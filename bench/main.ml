(* Paper-reproduction benchmark harness.

   Each subcommand regenerates one table or figure of "GSIM: Accelerating
   RTL Simulation for Large-Scale Designs" (DAC 2025) on this repository's
   substrate; run without arguments to produce everything.

     main.exe [--quick] [table1|fig6|fig7|fig8|fig9|table3|table4|
               ablation|model|coverage|fault|backend|resilience|serve|
               chaos|overload|native|micro|all]  *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Partition = Gsim_partition.Partition
module Counters = Gsim_engine.Counters
module Pipeline = Gsim_passes.Pipeline
module Activity = Gsim_engine.Activity
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core
module Gsim = Gsim_core.Gsim
module Emit = Gsim_emit.Emit
open Harness

(* ------------------------------------------------------------------ *)
(* Table I: single-thread full-cycle speed vs design scale              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I - Verilator-style (single thread) speed vs design scale (linux_boot)";
  Printf.printf "%-10s %12s %12s %12s\n" "design" "IR nodes" "IR edges" "speed";
  let prog = linux_long () in
  List.iter
    (fun d ->
      let core = build_design d in
      let s = Circuit.stats core.Stu_core.circuit in
      let m = measure (Gsim.verilator ()) d prog in
      Printf.printf "%-10s %12s %12s %12s\n" d.Designs.design_name
        (kseparated s.Circuit.ir_nodes) (kseparated s.Circuit.ir_edges) (pp_hz m.hz))
    Designs.all

(* ------------------------------------------------------------------ *)
(* Fig. 6: overall speedup over single-threaded Verilator               *)
(* ------------------------------------------------------------------ *)

let fig6_configs () =
  [
    Gsim.verilator ();
    Gsim.verilator ~threads:2 ();
    Gsim.verilator ~threads:4 ();
    Gsim.verilator ~threads:8 ();
    Gsim.arcilator;
    Gsim.essent;
    Gsim.gsim;
  ]

let fig6 () =
  header "Fig. 6 - Overall performance (speedup vs verilator single-thread)";
  let workloads = [ ("coremark", coremark_long ()); ("linux_boot", linux_long ()) ] in
  List.iter
    (fun (wname, prog) ->
      sub wname;
      Printf.printf "%-10s" "design";
      List.iter (fun c -> Printf.printf " %13s" c.Gsim.config_name) (fig6_configs ());
      print_newline ();
      List.iter
        (fun d ->
          let base = measure (Gsim.verilator ()) d prog in
          Printf.printf "%-10s" d.Designs.design_name;
          List.iter
            (fun config ->
              let m =
                if config.Gsim.config_name = "verilator" then base
                else measure config d prog
              in
              Printf.printf " %12.2fx" (m.hz /. base.hz))
            (fig6_configs ());
          Printf.printf "   (base %s)\n%!" (pp_hz base.hz))
        Designs.all)
    workloads

(* ------------------------------------------------------------------ *)
(* Fig. 7: SPEC-like checkpoints on the largest design                  *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Fig. 7 - SPEC CPU2006-like checkpoints on XiangShan-like";
  let d = Designs.xiangshan_like in
  Printf.printf "%-14s %12s %12s %14s %14s\n" "checkpoint" "verilator" "gsim" "gsim/v1T"
    "gsim/v8T";
  let speed1 = ref [] and speed8 = ref [] in
  List.iter
    (fun name ->
      let prog = spec_long name in
      let v1 = measure (Gsim.verilator ()) d prog in
      let v8 = measure (Gsim.verilator ~threads:8 ()) d prog in
      let g = measure Gsim.gsim d prog in
      speed1 := (g.hz /. v1.hz) :: !speed1;
      speed8 := (g.hz /. v8.hz) :: !speed8;
      Printf.printf "%-14s %12s %12s %13.2fx %13.2fx\n%!" name (pp_hz v1.hz) (pp_hz g.hz)
        (g.hz /. v1.hz) (g.hz /. v8.hz))
    spec_names;
  Printf.printf "%-14s %12s %12s %13.2fx %13.2fx\n" "geomean" "" "" (geomean !speed1)
    (geomean !speed8)

(* ------------------------------------------------------------------ *)
(* Fig. 8: per-technique breakdown                                      *)
(* ------------------------------------------------------------------ *)

(* Techniques applied incrementally, starting from an unoptimized
   per-node-active-bit baseline (the paper's P0). *)
let fig8_steps =
  [
    ( "baseline",
      Gsim.
        {
          (gsim_with ~opt_level:Pipeline.O0 ~partition_algorithm:"none" ~packed_exam:false
             ~activation:Activity.Branch ())
          with config_name = "baseline";
        } );
    ( "+supernode",
      Gsim.
        {
          (gsim_with ~opt_level:Pipeline.O0 ~partition_algorithm:"gsim" ~packed_exam:true ())
          with config_name = "+supernode";
        } );
    ( "+node-simplify",
      Gsim.{ (gsim_with ~opt_level:Pipeline.O1 ()) with config_name = "+node-simplify" } );
    ( "+cost-models+reset",
      Gsim.{ (gsim_with ~opt_level:Pipeline.O2 ()) with config_name = "+cost+reset" } );
    ("+bit-split", Gsim.{ (gsim_with ~opt_level:Pipeline.O3 ()) with config_name = "+bitsplit" });
  ]

let fig8 () =
  header "Fig. 8 - Performance breakdown per technique (log10 of incremental speedup)";
  Printf.printf "%-10s" "design";
  List.iter (fun (n, _) -> Printf.printf " %18s" n) (List.tl fig8_steps);
  print_newline ();
  let prog = coremark_long () in
  List.iter
    (fun d ->
      let speeds =
        List.map (fun (_, config) -> (measure config d prog).hz) fig8_steps
      in
      Printf.printf "%-10s" d.Designs.design_name;
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          Printf.printf " %11.3f (%4.2fx)" (log10 (b /. a)) (b /. a);
          pairs rest
        | [ _ ] | [] -> ()
      in
      pairs speeds;
      (match (speeds, List.rev speeds) with
       | base :: _, final :: _ ->
         Printf.printf "   total %.2fx\n%!" (final /. base)
       | _ -> print_newline ()))
    Designs.all

(* ------------------------------------------------------------------ *)
(* Fig. 9: maximum supernode size sweep                                 *)
(* ------------------------------------------------------------------ *)

let fig9_sizes = [ 2; 4; 8; 16; 32; 64; 128 ]

let fig9 () =
  header "Fig. 9 - Performance vs maximum supernode size (coremark)";
  Printf.printf "%-10s" "design";
  List.iter (fun s -> Printf.printf " %9d" s) fig9_sizes;
  Printf.printf "   (normalized to size 8)\n";
  let prog = coremark_long () in
  List.iter
    (fun d ->
      let speeds =
        List.map
          (fun size -> (measure (Gsim.gsim_with ~max_supernode:size ()) d prog).hz)
          fig9_sizes
      in
      let baseline = List.nth speeds 2 in
      Printf.printf "%-10s" d.Designs.design_name;
      List.iter (fun hz -> Printf.printf " %8.2fx" (hz /. baseline)) speeds;
      print_newline ();
      flush stdout)
    Designs.all

(* ------------------------------------------------------------------ *)
(* Table III: partitioning algorithms                                   *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table III - Partitioning algorithms (coremark on BOOM-like, other opts off)";
  Printf.printf "%-14s %10s %11s %14s %14s %12s\n" "algorithm" "part(s)" "supernodes"
    "activations" "active-node" "speed";
  let d = Designs.boom_like in
  let core = build_design d in
  let prog = coremark_long () in
  (* Like the paper, each algorithm runs under its own optimal parameter:
     a small sweep picks the best-performing maximum size. *)
  let best_size algo =
    if algo = "none" then 1
    else begin
      let candidates = if !Harness.quick then [ 4; 20 ] else [ 2; 4; 8; 20; 32 ] in
      let best = ref (0., 4) in
      List.iter
        (fun size ->
          let config =
            Gsim.
              {
                (gsim_with ~opt_level:Pipeline.O0 ~partition_algorithm:algo
                   ~max_supernode:size ())
                with config_name = algo;
              }
          in
          let m = measure ~cycles_override:800 config d prog in
          if m.hz > fst !best then best := (m.hz, size))
        candidates;
      snd !best
    end
  in
  let rows =
    List.map (fun algo -> (algo, best_size algo)) [ "none"; "kernighan"; "mffc"; "gsim" ]
  in
  List.iter
    (fun (algo, size) ->
      let label = Printf.sprintf "%s(%d)" algo size in
      (* Partition time measured on the unoptimized graph, like the paper's
         standalone partitioning step. *)
      let t0 = now () in
      let p =
        (Option.get (Partition.algorithm_of_string algo)) core.Stu_core.circuit
          ~max_size:size
      in
      let pt = now () -. t0 in
      let config =
        Gsim.
          {
            (gsim_with ~opt_level:Pipeline.O0 ~partition_algorithm:algo ~max_supernode:size ())
            with config_name = label;
          }
      in
      let m = measure config d prog in
      Printf.printf "%-14s %10.3f %11s %14s %14s %12s\n%!" label pt
        (kseparated (Array.length p.Partition.supernodes))
        (kseparated (m.counters.Counters.activations / m.cycles))
        (kseparated (m.counters.Counters.evals / m.cycles))
        (pp_hz m.hz))
    rows

(* ------------------------------------------------------------------ *)
(* Table IV: resource usage                                             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table IV - Resources: emission time, code size, data size";
  Printf.printf "%-10s %-11s %12s %12s %12s\n" "design" "simulator" "emission(s)" "code(B)"
    "data(B)";
  let configs = [ Gsim.verilator (); Gsim.essent; Gsim.arcilator; Gsim.gsim ] in
  List.iter
    (fun d ->
      let core = build_design d in
      List.iter
        (fun config ->
          let r = Gsim.emit_cpp config core.Stu_core.circuit in
          Printf.printf "%-10s %-11s %12.3f %12s %12s\n%!" d.Designs.design_name
            config.Gsim.config_name r.Emit.emission_seconds (kseparated r.Emit.code_bytes)
            (kseparated r.Emit.data_bytes))
        configs)
    Designs.all

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures                                 *)
(* ------------------------------------------------------------------ *)

let repcut_ablation () =
  header "Ablation A3 - RepCut-style replication-aided threading (BOOM-like, coremark)";
  Printf.printf "  (the paper's future-work direction; this host has %d core(s))\n"
    (try
       let ic = Unix.open_process_in "nproc 2>/dev/null" in
       let n = int_of_string (String.trim (input_line ic)) in
       ignore (Unix.close_process_in ic);
       n
     with _ -> 1);
  let core = build_design Designs.boom_like in
  let prog = coremark_long () in
  List.iter
    (fun threads ->
      let t = Gsim_engine.Repcut.create ~threads core.Stu_core.circuit in
      let sim = Gsim_engine.Repcut.sim t in
      Designs.load_program sim core.Stu_core.h prog;
      Designs.run_cycles sim 64;
      let cycles = if !Harness.quick then 200 else 800 in
      let t0 = now () in
      Designs.run_cycles sim cycles;
      let dt = now () -. t0 in
      Printf.printf "  %d thread(s): %10s  replication factor %.2f  cones %s\n%!" threads
        (pp_hz (float_of_int cycles /. dt))
        (Gsim_engine.Repcut.replication_factor t)
        (String.concat "/"
           (Array.to_list (Array.map string_of_int (Gsim_engine.Repcut.cone_sizes t))));
      Gsim_engine.Repcut.destroy t)
    [ 1; 2; 4 ]

let ablation () =
  header "Ablation A1 - activation strategy cost model (coremark on BOOM-like)";
  List.iter
    (fun (label, strategy) ->
      let config =
        Gsim.{ (gsim_with ~activation:strategy ()) with config_name = label }
      in
      let m = measure config Designs.boom_like (coremark_long ()) in
      Printf.printf "  %-12s %12s  (activations/cycle %s)\n%!" label (pp_hz m.hz)
        (kseparated (m.counters.Counters.activations / m.cycles)))
    [
      ("branch", Activity.Branch);
      ("branchless", Activity.Branchless);
      ("cost-model", Activity.Cost_model);
    ];
  header "Ablation A2 - packed active-word fast path (linux_boot on XiangShan-like)";
  List.iter
    (fun (label, packed) ->
      let config = Gsim.{ (gsim_with ~packed_exam:packed ()) with config_name = label } in
      let m = measure config Designs.xiangshan_like (linux_long ()) in
      Printf.printf "  %-12s %12s  (exams/cycle %s)\n%!" label (pp_hz m.hz)
        (kseparated (m.counters.Counters.exams / m.cycles)))
    [ ("unpacked", false); ("packed", true) ];
  repcut_ablation ()

(* ------------------------------------------------------------------ *)
(* §II-B model statistics                                               *)
(* ------------------------------------------------------------------ *)

let model () =
  header "Model (SII-B) - activity factor and examination share";
  let m = measure Gsim.gsim Designs.xiangshan_like (coremark_long ()) in
  Printf.printf "  activity factor af (gsim)      = %.2f%% (paper: ~4.61%%)\n"
    (100. *. m.activity);
  (* The 82%% figure motivates the work: with one active bit per node, the
     examination branches dominate.  Measure it on that baseline. *)
  let baseline =
    Gsim.
      {
        (gsim_with ~opt_level:Pipeline.O0 ~partition_algorithm:"none" ~packed_exam:false
           ~activation:Activity.Branch ())
        with config_name = "per-node";
      }
  in
  let mb = measure baseline Designs.xiangshan_like (coremark_long ()) in
  let cb = mb.counters in
  let events =
    cb.Counters.evals + cb.Counters.exams + cb.Counters.activations
    + cb.Counters.reg_commits
  in
  Printf.printf "  exam share, per-node baseline  = %.1f%% of engine events (paper: 82.26%% of branches)\n"
    (100. *. float_of_int cb.Counters.exams /. float_of_int events);
  let c = m.counters in
  Printf.printf "  exam share, gsim supernodes    = %.1f%%\n"
    (100. *. float_of_int c.Counters.exams
     /. float_of_int
          (c.Counters.evals + c.Counters.exams + c.Counters.activations
           + c.Counters.reg_commits));
  Printf.printf "  supernodes                     = %s\n" (kseparated m.supernodes);
  Printf.printf "  gsim per-cycle: evals=%d exams=%d activations=%d commits=%d\n"
    (c.Counters.evals / m.cycles) (c.Counters.exams / m.cycles)
    (c.Counters.activations / m.cycles)
    (c.Counters.reg_commits / m.cycles)

(* ------------------------------------------------------------------ *)
(* Coverage collection overhead                                         *)
(* ------------------------------------------------------------------ *)

(* The point of the activity fast path: collection cost should follow the
   activity factor, not the design size.  Compare the gsim engine with no
   coverage, with change-event coverage, and with naive per-cycle
   resampling, plus full-cycle resampling as the conventional baseline. *)
let coverage () =
  header "Coverage - collection overhead: change-event fast path vs full resampling";
  Printf.printf "%-10s %-22s %12s %10s\n" "design" "collector" "speed" "overhead";
  let prog = coremark_long () in
  let designs = [ Designs.stu_core; Designs.rocket_like ] in
  List.iter
    (fun d ->
      let core = build_design d in
      let h = core.Stu_core.h in
      let nodes = Circuit.node_count core.Stu_core.circuit in
      let cycles = budget_for nodes in
      let run config wrap =
        let pre = optimized_circuit d config.Gsim.opt_level in
        let compiled =
          Gsim.instantiate { config with Gsim.opt_level = Pipeline.O0 } pre
        in
        let sim = wrap compiled in
        Designs.load_program sim h prog;
        let warmup = max 8 (cycles / 20) in
        Designs.run_cycles sim warmup;
        let t0 = now () in
        Designs.run_cycles sim cycles;
        let dt = now () -. t0 in
        compiled.Gsim.destroy ();
        float_of_int cycles /. dt
      in
      let plain c = c.Gsim.sim in
      let fast c =
        snd (Gsim_coverage.Collect.of_activity (Option.get c.Gsim.activity))
      in
      let resample c = snd (Gsim_coverage.Collect.create c.Gsim.sim) in
      let g_plain = run Gsim.gsim plain in
      let g_fast = run Gsim.gsim fast in
      let g_resample = run Gsim.gsim resample in
      let v_plain = run (Gsim.verilator ()) plain in
      let v_resample = run (Gsim.verilator ()) resample in
      let row label hz base =
        Printf.printf "%-10s %-22s %12s %+9.1f%%\n%!" d.Designs.design_name label
          (pp_hz hz)
          (100. *. ((base /. hz) -. 1.))
      in
      row "gsim, none" g_plain g_plain;
      row "gsim, change-event" g_fast g_plain;
      row "gsim, resample-all" g_resample g_plain;
      row "full-cycle, none" v_plain v_plain;
      row "full-cycle, resample" v_resample v_plain;
      let fast_cost = (g_plain /. g_fast) -. 1. in
      let resample_cost = (g_plain /. g_resample) -. 1. in
      Printf.printf
        "%-10s   -> fast path costs %.1f%% vs %.1f%% for resampling (%s)\n%!"
        d.Designs.design_name (100. *. fast_cost) (100. *. resample_cost)
        (if fast_cost < resample_cost then "fast path wins" else "resampling wins"))
    designs

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign throughput                                  *)
(* ------------------------------------------------------------------ *)

(* Faults/sec per preset x backend on a real core, with the same fault
   list everywhere, over several rounds (median, min and max).  The run
   FAILS unless every configuration, the reference interpreter included,
   classifies every fault identically in every round — the campaign's
   portability guarantee.  Results also land in BENCH_fault.json. *)
let host_description () =
  let model =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.trim (String.sub l 0 i) = "model name" ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
    | exception Sys_error _ -> None
  in
  Printf.sprintf "%s, %d core(s), OCaml %s"
    (Option.value model ~default:"unknown CPU")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let fault () =
  header "Fault - campaign throughput (faults/sec) per preset x backend";
  let module Fault = Gsim_fault.Fault in
  let module Fdb = Gsim_fault.Db in
  let module Campaign = Gsim_fault.Campaign in
  let core = build_design Designs.stu_core in
  let circuit = core.Stu_core.circuit in
  let horizon = if !Harness.quick then 40 else 120 in
  let count = if !Harness.quick then 12 else 60 in
  let rounds = if !Harness.quick then 3 else 5 in
  let cfg = { Campaign.horizon; budget = (if !Harness.quick then 15 else 40) } in
  let faults = Fault.random ~seed:7 ~count ~horizon circuit in
  let configs =
    ("reference", "-", Gsim.reference)
    :: List.concat_map
         (fun (name, mk) ->
           List.map
             (fun be -> (name, Gsim_engine.Eval.to_string be, (mk be : Gsim.config)))
             ([ `Closures ] @ if Gsim_engine.Native.available () then [ `Native ] else []))
         [
           ("full-cycle", fun be -> { (Gsim.verilator ()) with Gsim.backend = be });
           ("essent", fun be -> { Gsim.essent with Gsim.backend = be });
           ("gsim", fun be -> { Gsim.gsim with Gsim.backend = be });
         ]
  in
  Printf.printf "%-12s %-10s %10s %10s %10s   %s\n" "engine" "backend" "median/s" "min/s"
    "max/s" "det/lat/mask/hang/unin";
  let baseline = ref None and rows = ref [] in
  List.iter
    (fun (ename, bname, config) ->
      (* One untimed warm-up round pays the native compile, if any. *)
      let rates =
        List.init (rounds + 1) (fun _ ->
            let t0 = now () in
            let db = Campaign.run cfg config circuit faults in
            let dt = now () -. t0 in
            (match !baseline with
             | None -> baseline := Some db
             | Some b ->
               if not (Fdb.equal b db) then
                 failwith
                   (Printf.sprintf
                      "fault classification differs between configurations (%s/%s)" ename
                      bname));
            float_of_int (Fdb.count db) /. dt)
        |> List.tl |> List.sort compare
      in
      let median = List.nth rates (rounds / 2) in
      let lo = List.hd rates and hi = List.nth rates (rounds - 1) in
      let s = Fdb.summary (Option.get !baseline) in
      Printf.printf "%-12s %-10s %10.1f %10.1f %10.1f   %d/%d/%d/%d/%d\n%!" ename bname median
        lo hi s.Fdb.detected s.Fdb.latent s.Fdb.masked s.Fdb.hangs s.Fdb.uninjectable;
      rows :=
        Printf.sprintf
          "    {\"engine\":%S,\"backend\":%S,\"faults_per_s\":%.1f,\"faults_per_s_min\":%.1f,\"faults_per_s_max\":%.1f}"
          ename bname median lo hi
        :: !rows)
    configs;
  let db = Option.get !baseline in
  let s = Fdb.summary db in
  let oc = open_out "BENCH_fault.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"fault\",\n  \"host\": %S,\n  \"design\": %S,\n  \"rounds\": %d,\n  \"horizon\": %d,\n  \"budget\": %d,\n  \"count\": %d,\n  \"classes\": \"%d/%d/%d/%d/%d\",\n  \"class_checksum\": %S,\n  \"rows\": [\n%s\n  ]\n}\n"
    (host_description ()) (Circuit.name circuit) rounds horizon cfg.Campaign.budget
    (Fdb.count db) s.Fdb.detected s.Fdb.latent s.Fdb.masked s.Fdb.hangs s.Fdb.uninjectable
    (Digest.to_hex (Digest.string (Fdb.to_string db)))
    (String.concat ",\n" (List.rev !rows));
  close_out oc;
  Printf.printf "  -> all %d configurations agree on every fault in every round\n" (List.length configs);
  Printf.printf "  [wrote BENCH_fault.json]\n%!"

(* ------------------------------------------------------------------ *)
(* Differential fuzzing throughput                                     *)
(* ------------------------------------------------------------------ *)

(* Cases/sec through the differential oracle per subject matrix — the
   cost of a clean campaign (generation + reference trace + subjects).
   The run FAILS if any case actually diverges: a healthy tree fuzzes
   clean, so a finding here is a real bug, not a bench artifact. *)
let fuzz () =
  header "Fuzz - differential campaign throughput (cases/sec)";
  let module Fuzz = Gsim_verify.Fuzz in
  let module Corpus = Gsim_verify.Corpus in
  let cases = if !Harness.quick then 8 else 40 in
  let matrices =
    [
      ("gsim+closures", [ Fuzz.setup_of_name "gsim+closures" ]);
      ("full matrix", Fuzz.default_setups);
    ]
  in
  Printf.printf "%-22s %9s %8s %10s\n" "subjects" "#subjects" "secs" "cases/s";
  List.iter
    (fun (name, setups) ->
      let dir = Filename.temp_file "gsim_fuzz_bench" "" in
      Sys.remove dir;
      let camp = { Fuzz.default_campaign with Fuzz.seed = 5; cases; setups; dir } in
      let t0 = now () in
      let r = Fuzz.run camp in
      let dt = now () -. t0 in
      let failing = List.length (Corpus.failures r.Fuzz.db) in
      Printf.printf "%-22s %9d %8.2f %10.1f\n%!" name (List.length setups) dt
        (float_of_int r.Fuzz.ran /. dt);
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir;
      if failing > 0 then
        failwith
          (Printf.sprintf "fuzz bench found %d real divergence(s) under %s" failing name))
    matrices;
  Printf.printf "  -> all matrices fuzz clean\n%!"

(* ------------------------------------------------------------------ *)
(* Evaluation-backend comparison: closures vs native                   *)
(* ------------------------------------------------------------------ *)

(* One short deterministic run whose folded node values certify that all
   backends computed identical simulations, plus the speed comparison
   the backends exist for.  The native column appears when a C compiler
   is on PATH (or GSIM_CC names one).  Results also land in
   BENCH_backends.json so CI can archive them. *)
let backend_checksum config d prog =
  let core = build_design d in
  let pre = optimized_circuit d config.Gsim.opt_level in
  let compiled =
    Gsim.instantiate { config with Gsim.opt_level = Pipeline.O0 } pre
  in
  let sim = compiled.Gsim.sim in
  Designs.load_program sim core.Stu_core.h prog;
  Designs.run_cycles sim (if !Harness.quick then 100 else 500);
  let c = sim.Gsim_engine.Sim.circuit in
  let acc = ref 0 in
  Circuit.iter_nodes c (fun nd ->
      let v = sim.Gsim_engine.Sim.peek nd.Circuit.id in
      (* 63-bit mixing fold; to_packed is exact for narrow nodes and
         to_int_trunc truncates wide ones deterministically. *)
      let x =
        if Bits.width v <= 62 then Bits.to_packed v else Bits.to_int_trunc v
      in
      acc := ((!acc * 1099511628211) + x + nd.Circuit.id) land max_int);
  let changed = (sim.Gsim_engine.Sim.counters ()).Counters.changed in
  compiled.Gsim.destroy ();
  (!acc, changed)

let backend_configs () =
  [
    ("full-cycle", fun be -> { (Gsim.verilator ()) with Gsim.backend = be });
    ("gsim", fun be -> { Gsim.gsim with Gsim.backend = be });
  ]

let backend () =
  header "Backend - closures vs AOT native";
  let have_native = Gsim_engine.Native.available () in
  if not have_native then
    Printf.printf "  (no C compiler found - native column skipped; set GSIM_CC to override)\n";
  Printf.printf "%-10s %-11s %10s %10s %8s %8s %8s %9s %9s\n" "design" "engine" "closures"
    "native" "ns/ev(c)" "ns/ev(n)" "nat/clo" "mw/cyc(c)" "mw/cyc(n)";
  let prog = coremark_long () in
  let rows = ref [] in
  (* Per-eval cost at the median window's rate. *)
  let ns m =
    1e9 *. float_of_int m.cycles
    /. (m.hz *. float_of_int (max m.counters.Counters.evals 1))
  in
  (* The rate, its spread over the windows and the allocation, as the
     JSON fields [<p>_hz], [<p>_hz_min], [<p>_hz_max] and
     [minor_words_per_cycle_<p>]. *)
  let rate_fields p m =
    Printf.sprintf
      "\"%s_hz\":%.1f,\"%s_hz_min\":%.1f,\"%s_hz_max\":%.1f,\"minor_words_per_cycle_%s\":%.2f"
      p m.hz p m.hz_min p m.hz_max p m.minor_words_per_cycle
  in
  List.iter
    (fun d ->
      List.iter
        (fun (ename, mk) ->
          let mc = measure (mk `Closures) d prog in
          let kc, chc = backend_checksum (mk `Closures) d prog in
          let native =
            if not have_native then None
            else begin
              let mn = measure (mk `Native) d prog in
              let kn, chn = backend_checksum (mk `Native) d prog in
              if kn <> kc || chn <> chc then
                failwith
                  (Printf.sprintf "native backend mismatch on %s/%s: %x/%d vs %x/%d"
                     d.Designs.design_name ename kc chc kn chn);
              Some (mn, kn)
            end
          in
          let opt f = match native with Some (m, _) -> f m | None -> "-" in
          Printf.printf "%-10s %-11s %10s %10s %8.1f %8s %8s %9.1f %9s  (checksums agree)\n%!"
            d.Designs.design_name ename (pp_hz mc.hz)
            (opt (fun m -> pp_hz m.hz))
            (ns mc)
            (opt (fun m -> Printf.sprintf "%.1f" (ns m)))
            (opt (fun m -> Printf.sprintf "%7.2fx" (m.hz /. mc.hz)))
            mc.minor_words_per_cycle
            (opt (fun m -> Printf.sprintf "%.1f" m.minor_words_per_cycle));
          let native_fields =
            match native with
            | None -> ""
            | Some (m, kn) ->
              Printf.sprintf
                ",%s,\"ns_per_eval_native\":%.2f,\"native_speedup\":%.3f,\"native_checksum\":%d"
                (rate_fields "native" m) (ns m) (m.hz /. mc.hz) kn
          in
          rows :=
            Printf.sprintf
              "    {\"design\":%S,\"engine\":%S,\"windows\":%d,\"cycles\":%d,%s,\"ns_per_eval_closures\":%.2f,\"checksum\":%d%s}"
              d.Designs.design_name ename windows mc.cycles (rate_fields "closures" mc) (ns mc) kc
              native_fields
            :: !rows)
        (backend_configs ()))
    Designs.all;
  let oc = open_out "BENCH_backends.json" in
  Printf.fprintf oc "{\n  \"bench\": \"backend\",\n  \"native\": %b,\n  \"rows\": [\n%s\n  ]\n}\n"
    have_native
    (String.concat ",\n" (List.rev !rows));
  close_out oc;
  Printf.printf "  [wrote BENCH_backends.json]\n"

(* ------------------------------------------------------------------ *)
(* Resilience: checkpoint + shadow-verification overhead                *)
(* ------------------------------------------------------------------ *)

(* What a long-running session pays for crash safety and for lockstep
   verification, against the same workload run bare.  Delta checkpoints
   should be noise (a keyframe is a full state dump; a delta is the
   scalar diff plus the write barrier's dirty memory words); full-frame
   checkpointing ([checkpoints-full]) is the old cost, kept as a column
   for comparison.  Full-stride shadow verification costs about one
   reference-engine replay of every window — the price of the guarantee,
   reported rather than hidden; the sampled [checkpoints+shadow] recipe
   replays only the tail of each window.

   Individual runs are tens of milliseconds, well inside scheduler
   noise, so each variant is measured in interleaved rounds against the
   same round's bare baseline and the median overhead is reported. *)
let resilience () =
  let module Session = Gsim_resilience.Session in
  header "Resilience - checkpoint ring and shadow lockstep overhead (stuCore, coremark)";
  let d = Designs.stu_core in
  let prog = coremark_long () in
  (* A resilient session's natural regime is long runs, and short ones
     drown in scheduler noise and fixed costs (the anchor capture, the
     chain's startup keyframe) — so [--quick] trims rounds, not
     cycles. *)
  let cycles = 100_000 in
  let stride = cycles / 10 in
  let rounds = if !quick then 3 else 5 in
  (* Store rings live on tmpfs when the platform has one: the bench
     measures the checkpointing mechanism, and a 250-byte delta costs
     ~10x more in ext4 create+rename journaling than in compute. *)
  let scratch_root =
    if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then "/dev/shm"
    else Filename.get_temp_dir_name ()
  in
  let tmp_dir tag =
    let dir =
      Filename.concat scratch_root
        (Printf.sprintf "gsim-bench-res-%d-%s" (Unix.getpid ()) tag)
    in
    Gsim_resilience.Store.ensure_dir dir;
    dir
  in
  let clear_dir dir =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  let variants =
    [
      ("bare", None, None);
      ("session", Some Session.default, None);
      ( "checkpoints",
        Some
          { Session.default with
            Session.checkpoint_every = Some stride;
            checkpoint_dir = Some (tmp_dir "ck") },
        Some (tmp_dir "ck") );
      ( "checkpoints-full",
        Some
          { Session.default with
            Session.checkpoint_every = Some stride;
            checkpoint_dir = Some (tmp_dir "ckfull");
            keyframe_every = 0 },
        Some (tmp_dir "ckfull") );
      ("shadow", Some { Session.default with Session.shadow_stride = Some stride }, None);
      ( "checkpoints+shadow",
        Some
          { Session.default with
            Session.checkpoint_every = Some stride;
            checkpoint_dir = Some (tmp_dir "both");
            shadow_stride = Some stride;
            shadow_window = Some (stride / 8) },
        Some (tmp_dir "both") );
    ]
  in
  let run_variant config cfg store_dir =
    Option.iter clear_dir store_dir;
    match cfg with
    | None ->
      let core = build_design d in
      let compiled = Gsim.instantiate config core.Stu_core.circuit in
      let sim = compiled.Gsim.sim in
      Designs.load_program sim core.Stu_core.h prog;
      let t0 = now () in
      Designs.run_cycles sim cycles;
      let dt = now () -. t0 in
      compiled.Gsim.destroy ();
      (dt, (0, 0, 0))
    | Some cfg ->
      let core = build_design d in
      let t = Session.create cfg config core.Stu_core.circuit in
      Designs.load_program (Session.sim t) core.Stu_core.h prog;
      let t0 = now () in
      let o = Session.run t cycles in
      let dt = now () -. t0 in
      Session.destroy t;
      (dt, (o.Session.keyframes_written, o.Session.deltas_written, o.Session.windows_verified))
  in
  (* Mean on-disk bytes per generation kind, from the ring left behind. *)
  let store_bytes = function
    | None -> (0, 0)
    | Some dir ->
      let mean = function
        | [] -> 0
        | l -> List.fold_left ( + ) 0 l / List.length l
      in
      let sizes suffix =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f suffix)
        |> List.map (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_size)
      in
      (mean (sizes ".gck"), mean (sizes ".gcd"))
  in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  Printf.printf "%-11s %-19s %12s %9s %5s %6s %9s %9s %8s\n" "engine" "variant" "speed"
    "overhead" "kf" "deltas" "kf-bytes" "d-bytes" "windows";
  let rows = ref [] in
  let gate_failures = ref [] in
  List.iter
    (fun (ename, config) ->
      let samples = Hashtbl.create 8 in
      let counts = Hashtbl.create 8 in
      for _ = 1 to rounds do
        let base = ref nan in
        List.iter
          (fun (vname, cfg, store_dir) ->
            let dt, c = run_variant config cfg store_dir in
            if cfg = None then base := dt;
            let overhead = (dt /. !base -. 1.) *. 100. in
            Hashtbl.replace samples vname
              ((dt, overhead) :: (try Hashtbl.find samples vname with Not_found -> []));
            Hashtbl.replace counts vname (c, store_bytes store_dir))
          variants
      done;
      List.iter
        (fun (vname, _, _) ->
          let s = Hashtbl.find samples vname in
          let dt = median (List.map fst s) in
          let overhead = median (List.map snd s) in
          let (kf, deltas, windows), (kf_bytes, d_bytes) = Hashtbl.find counts vname in
          let hz = float_of_int cycles /. dt in
          Printf.printf "%-11s %-19s %12s %8.1f%% %5d %6d %9d %9d %8d\n%!" ename vname
            (pp_hz hz) overhead kf deltas kf_bytes d_bytes windows;
          if !quick && vname = "checkpoints" && overhead > 25. then
            gate_failures := Printf.sprintf "%s checkpoints %.1f%%" ename overhead
                             :: !gate_failures;
          rows :=
            Printf.sprintf
              "    \
               {\"engine\":%S,\"variant\":%S,\"hz\":%.1f,\"overhead_pct\":%.2f,\"keyframes\":%d,\"deltas\":%d,\"keyframe_bytes\":%d,\"delta_bytes\":%d,\"windows_verified\":%d,\"cycles\":%d,\"rounds\":%d}"
              ename vname hz overhead kf deltas kf_bytes d_bytes windows cycles rounds
            :: !rows)
        variants)
    [ ("gsim", Gsim.gsim); ("full-cycle", Gsim.verilator ()) ];
  let oc = open_out "BENCH_resilience.json" in
  Printf.fprintf oc "{\n  \"bench\": \"resilience\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.rev !rows));
  close_out oc;
  Printf.printf "  [wrote BENCH_resilience.json]\n";
  match !gate_failures with
  | [] -> ()
  | fails ->
    Printf.printf "  GATE FAILED: delta checkpoint overhead above 25%%: %s\n"
      (String.concat ", " fails);
    exit 1

(* ------------------------------------------------------------------ *)
(* gsimd saturation: jobs/sec and latency, warm vs cold plan cache      *)
(* ------------------------------------------------------------------ *)

(* A parametric register chain big enough that compiling it (parse +
   passes + partition) dominates a short simulation — exactly the regime
   the compiled-plan cache exists for.  Generated as FIRRTL text so every
   job exercises the real wire protocol and frontend. *)
let serve_design ?(salt = 0) stages =
  let b = Buffer.create (stages * 80) in
  Buffer.add_string b "circuit Chain :\n  module Chain :\n";
  Buffer.add_string b "    input clock : Clock\n";
  Buffer.add_string b "    input reset : UInt<1>\n";
  Buffer.add_string b "    input in : UInt<32>\n";
  Buffer.add_string b "    output out : UInt<32>\n\n";
  for i = 0 to stages - 1 do
    Buffer.add_string b
      (Printf.sprintf "    reg r%d : UInt<32>, clock with : (reset => (reset, UInt<32>(%d)))\n"
         i ((i + salt) land 0xffff));
    let src = if i = 0 then "in" else Printf.sprintf "r%d" (i - 1) in
    Buffer.add_string b
      (Printf.sprintf "    r%d <= xor(%s, shr(r%d, 1))\n" i src i)
  done;
  Buffer.add_string b (Printf.sprintf "    out <= r%d\n" (stages - 1));
  Buffer.contents b

let serve () =
  let module SP = Gsim_server.Protocol in
  let module Client = Gsim_server.Client in
  let module Daemon = Gsim_server.Daemon in
  header "Serve - gsimd saturation: jobs/sec and latency, warm vs cold plan cache";
  let stages = if !Harness.quick then 150 else 600 in
  let clients = 4 in
  let jobs_per_client = if !Harness.quick then 5 else 12 in
  let cycles = 100 in
  let design = serve_design stages in
  let job =
    {
      SP.sj_filename = "chain.fir";
      sj_design = design;
      sj_opts = SP.default_engine_opts;
      sj_cycles = cycles;
      sj_pokes = [ "in=12345" ];
      sj_token = None;
      sj_tenant = None;
      sj_deadline = 0.;
    }
  in
  let total = clients * jobs_per_client in
  let run_phase label cache_capacity =
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-bench-%d-%s.sock" (Unix.getpid ()) label)
    in
    let spool =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-bench-%d-%s" (Unix.getpid ()) label)
    in
    let address = SP.Unix_sock sock in
    let devnull = open_out "/dev/null" in
    let cfg =
      {
        (Daemon.default_config address) with
        Daemon.workers = 4;
        cache_capacity;
        spool = Some spool;
        log = devnull;
      }
    in
    let server = Thread.create (fun () -> Daemon.serve cfg) () in
    let rec wait_ready n =
      if not (Sys.file_exists sock) then
        if n = 0 then failwith "gsimd did not start"
        else begin
          Unix.sleepf 0.01;
          wait_ready (n - 1)
        end
    in
    wait_ready 500;
    let latencies = Array.make total 0. in
    let t0 = now () in
    let client ci () =
      Client.with_connection address (fun c ->
          for j = 0 to jobs_per_client - 1 do
            let t = now () in
            (match Client.call c (SP.Sim (SP.Batch, job)) with
             | SP.Sim_done _ -> ()
             | SP.Error_resp e -> failwith ("serve bench job failed: " ^ e.SP.ei_message)
             | _ -> failwith "unexpected response");
            latencies.((ci * jobs_per_client) + j) <- now () -. t
          done)
    in
    let threads = List.init clients (fun ci -> Thread.create (client ci) ()) in
    List.iter Thread.join threads;
    let dt = now () -. t0 in
    let st =
      match Client.with_connection address (fun c -> Client.call c SP.Status) with
      | SP.Status_ok s -> s
      | _ -> failwith "status failed"
    in
    (match Client.with_connection address (fun c -> Client.call c SP.Shutdown) with
     | SP.Shutting_down -> ()
     | _ -> failwith "shutdown failed");
    Thread.join server;
    close_out devnull;
    Array.sort compare latencies;
    let pct p = latencies.(min (total - 1) (int_of_float (p *. float_of_int total))) in
    let jobs_per_sec = float_of_int total /. dt in
    Printf.printf
      "%-6s %3d jobs %2d clients %8.2fs %9.2f jobs/s  p50 %6.0fms p99 %6.0fms  cache %d hit / %d miss\n%!"
      label total clients dt jobs_per_sec
      (pct 0.50 *. 1000.) (pct 0.99 *. 1000.) st.SP.st_cache_hits st.SP.st_cache_misses;
    (jobs_per_sec, pct 0.50, pct 0.99, st.SP.st_cache_hits, st.SP.st_cache_misses)
  in
  Printf.printf "  design: %d-stage register chain, %d cycles per job\n%!" stages cycles;
  let c_jps, c_p50, c_p99, c_hits, c_misses = run_phase "cold" 0 in
  let w_jps, w_p50, w_p99, w_hits, w_misses = run_phase "warm" 16 in
  let ratio = w_jps /. c_jps in
  Printf.printf "  -> warm cache is %.2fx cold (plan compiled %d time(s) warm vs %d cold)\n%!"
    ratio w_misses c_misses;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"serve\",\n  \"stages\": %d,\n  \"cycles\": %d,\n  \"clients\": %d,\n  \"jobs\": %d,\n  \"rows\": [\n    {\"phase\":\"cold\",\"jobs_per_sec\":%.3f,\"p50_ms\":%.1f,\"p99_ms\":%.1f,\"cache_hits\":%d,\"cache_misses\":%d},\n    {\"phase\":\"warm\",\"jobs_per_sec\":%.3f,\"p50_ms\":%.1f,\"p99_ms\":%.1f,\"cache_hits\":%d,\"cache_misses\":%d}\n  ],\n  \"warm_over_cold\": %.3f\n}\n"
    stages cycles clients total c_jps (c_p50 *. 1000.) (c_p99 *. 1000.) c_hits c_misses
    w_jps (w_p50 *. 1000.) (w_p99 *. 1000.) w_hits w_misses ratio;
  close_out oc;
  Printf.printf "  [wrote BENCH_serve.json]\n"

(* ------------------------------------------------------------------ *)
(* gsimd under chaos: throughput and p99 with injected worker failure   *)
(* ------------------------------------------------------------------ *)

(* What supervision costs: the same batch workload runs against a calm
   daemon and against one whose workers crash at ~10% of jobs (seeded
   Chaos injection at eval ticks).  Every job must still complete —
   crashes are recovered from the per-stride spool, so the price is
   respawn + backoff latency, not lost work.  The --quick variant gates
   CI at <= 2x p99 inflation. *)
let chaos_bench () =
  let module SP = Gsim_server.Protocol in
  let module Client = Gsim_server.Client in
  let module Daemon = Gsim_server.Daemon in
  let module Chaos = Gsim_server.Chaos in
  let module Supervisor = Gsim_server.Supervisor in
  header "Chaos - gsimd jobs/sec and p99 under ~10% injected worker failure";
  let stages = if !Harness.quick then 120 else 400 in
  let clients = 4 in
  let jobs_per_client = if !Harness.quick then 6 else 12 in
  let cycles = 200 in
  let design = serve_design stages in
  let job =
    {
      SP.sj_filename = "chain.fir";
      sj_design = design;
      sj_opts = SP.default_engine_opts;
      sj_cycles = cycles;
      sj_pokes = [ "in=12345" ];
      sj_token = None;
      sj_tenant = None;
      sj_deadline = 0.;
    }
  in
  let total = clients * jobs_per_client in
  (* Two eval ticks per job (stride 100, 200 cycles): crash=0.05 per
     tick ~= 10% of jobs lose their worker at least once. *)
  let chaos_spec = Chaos.spec_of_string "seed=7,crash=0.05" in
  let run_phase label spec =
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-chaos-%d-%s.sock" (Unix.getpid ()) label)
    in
    let spool =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-chaos-%d-%s" (Unix.getpid ()) label)
    in
    let address = SP.Unix_sock sock in
    let devnull = open_out "/dev/null" in
    let dflt = Daemon.default_config address in
    let cfg =
      {
        dflt with
        Daemon.workers = 4;
        cache_capacity = 16;
        preempt_stride = 100;
        spool = Some spool;
        log = devnull;
        chaos = spec;
        supervision =
          { dflt.Daemon.supervision with Supervisor.backoff_base = 0.02; backoff_max = 0.2 };
      }
    in
    let server = Thread.create (fun () -> Daemon.serve cfg) () in
    let rec wait_ready n =
      if not (Sys.file_exists sock) then
        if n = 0 then failwith "gsimd did not start"
        else begin
          Unix.sleepf 0.01;
          wait_ready (n - 1)
        end
    in
    wait_ready 500;
    let latencies = Array.make total 0. in
    let t0 = now () in
    let client ci () =
      Client.with_connection address (fun c ->
          for j = 0 to jobs_per_client - 1 do
            let t = now () in
            (match Client.call c (SP.Sim (SP.Batch, job)) with
             | SP.Sim_done r ->
               if r.SP.sr_cycles <> cycles then
                 failwith "chaos bench job finished with wrong cycle count"
             | SP.Error_resp e -> failwith ("chaos bench job failed: " ^ e.SP.ei_message)
             | _ -> failwith "unexpected response");
            latencies.((ci * jobs_per_client) + j) <- now () -. t
          done)
    in
    let threads = List.init clients (fun ci -> Thread.create (client ci) ()) in
    List.iter Thread.join threads;
    let dt = now () -. t0 in
    let st =
      match Client.with_connection address (fun c -> Client.call c SP.Status) with
      | SP.Status_ok s -> s
      | _ -> failwith "status failed"
    in
    (match Client.with_connection address (fun c -> Client.call c SP.Shutdown) with
     | SP.Shutting_down -> ()
     | _ -> failwith "shutdown failed");
    Thread.join server;
    close_out devnull;
    Array.sort compare latencies;
    let pct p = latencies.(min (total - 1) (int_of_float (p *. float_of_int total))) in
    let jobs_per_sec = float_of_int total /. dt in
    Printf.printf
      "%-9s %3d jobs %8.2fs %9.2f jobs/s  p50 %6.0fms p99 %6.0fms  crashes %2d retries %2d restarts %2d\n%!"
      label total dt jobs_per_sec (pct 0.50 *. 1000.) (pct 0.99 *. 1000.)
      st.SP.st_worker_crashes st.SP.st_retries st.SP.st_worker_restarts;
    (jobs_per_sec, pct 0.50, pct 0.99, st)
  in
  Printf.printf "  design: %d-stage register chain, %d cycles per job, stride 100\n%!"
    stages cycles;
  let b_jps, b_p50, b_p99, _ = run_phase "baseline" Chaos.none in
  let c_jps, c_p50, c_p99, c_st = run_phase "chaos" chaos_spec in
  if c_st.SP.st_worker_crashes = 0 then
    failwith "chaos phase injected no worker crashes (seed/stride drifted?)";
  if c_st.SP.st_gave_up > 0 then
    failwith (Printf.sprintf "chaos phase lost %d job(s)" c_st.SP.st_gave_up);
  let inflation = c_p99 /. b_p99 in
  Printf.printf
    "  -> chaos throughput %.2fx baseline, p99 inflation %.2fx (%d crash(es) recovered)\n%!"
    (c_jps /. b_jps) inflation c_st.SP.st_worker_crashes;
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"chaos\",\n  \"stages\": %d,\n  \"cycles\": %d,\n  \"clients\": %d,\n  \"jobs\": %d,\n  \"spec\": %S,\n  \"rows\": [\n    {\"phase\":\"baseline\",\"jobs_per_sec\":%.3f,\"p50_ms\":%.1f,\"p99_ms\":%.1f},\n    {\"phase\":\"chaos\",\"jobs_per_sec\":%.3f,\"p50_ms\":%.1f,\"p99_ms\":%.1f,\"worker_crashes\":%d,\"retries\":%d,\"worker_restarts\":%d,\"gave_up\":%d}\n  ],\n  \"p99_inflation\": %.3f\n}\n"
    stages cycles clients total (Chaos.spec_to_string chaos_spec) b_jps (b_p50 *. 1000.)
    (b_p99 *. 1000.) c_jps (c_p50 *. 1000.) (c_p99 *. 1000.) c_st.SP.st_worker_crashes
    c_st.SP.st_retries c_st.SP.st_worker_restarts c_st.SP.st_gave_up inflation;
  close_out oc;
  Printf.printf "  [wrote BENCH_chaos.json]\n";
  if !Harness.quick && inflation > 2.0 then begin
    Printf.printf "  GATE FAILED: chaos p99 is %.2fx baseline (budget 2.0x)\n" inflation;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* gsimd brownout: interactive latency while batch tenants flood 4x     *)
(* ------------------------------------------------------------------ *)

(* What overload protection buys: an interactive tenant runs the same
   serial workload against an unloaded daemon and against one flooded
   with ~4x its batch service rate by two greedy tenants.  The daemon
   must shed batch work (brownout + retry-after) rather than let the
   queue grow without bound, split what it does accept ~evenly between
   the greedy tenants (DRR), and keep the interactive p99 bounded.  The
   --quick variant gates CI at <= 2x interactive p99 inflation. *)
let overload_bench () =
  let module SP = Gsim_server.Protocol in
  let module Client = Gsim_server.Client in
  let module Daemon = Gsim_server.Daemon in
  let module Chaos = Gsim_server.Chaos in
  header "Overload - gsimd interactive p99 and shed rate under 4x batch flood";
  let stages = if !Harness.quick then 100 else 300 in
  let cycles = 200 in
  let inter_jobs = if !Harness.quick then 8 else 20 in
  let flood_threads_per_tenant = 4 in
  let design = serve_design stages in
  let job ?tenant prio =
    ( prio,
      {
        SP.sj_filename = "chain.fir";
        sj_design = design;
        sj_opts = SP.default_engine_opts;
        sj_cycles = cycles;
        sj_pokes = [ "in=12345" ];
        sj_token = None;
        sj_tenant = tenant;
        sj_deadline = 0.;
      } )
  in
  (* Workers stall 20 ms at each 100-cycle stride tick, so the batch
     service rate is known and small — the flood reliably outruns it. *)
  let chaos_spec = Chaos.spec_of_string "seed=5,busy=1.0,busy-ms=20" in
  let with_daemon label f =
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-over-%d-%s.sock" (Unix.getpid ()) label)
    in
    let spool =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-over-%d-%s" (Unix.getpid ()) label)
    in
    let address = SP.Unix_sock sock in
    let devnull = open_out "/dev/null" in
    let cfg =
      {
        (Daemon.default_config address) with
        Daemon.workers = 2;
        queue_capacity = 8;
        cache_capacity = 16;
        preempt_stride = 100;
        spool = Some spool;
        log = devnull;
        chaos = chaos_spec;
        high_water = 0.5;
      }
    in
    let server = Thread.create (fun () -> Daemon.serve cfg) () in
    let rec wait_ready n =
      if not (Sys.file_exists sock) then
        if n = 0 then failwith "gsimd did not start"
        else begin
          Unix.sleepf 0.01;
          wait_ready (n - 1)
        end
    in
    wait_ready 500;
    let r = f address in
    let st =
      match Client.with_connection address (fun c -> Client.call c SP.Status) with
      | SP.Status_ok s -> s
      | _ -> failwith "status failed"
    in
    (match Client.with_connection address (fun c -> Client.call c SP.Shutdown) with
     | SP.Shutting_down -> ()
     | _ -> failwith "shutdown failed");
    Thread.join server;
    close_out devnull;
    (r, st)
  in
  let interactive_pass address =
    let lat = Array.make inter_jobs 0. in
    Client.with_connection address (fun c ->
        for j = 0 to inter_jobs - 1 do
          let t = now () in
          let prio, sj = job ~tenant:"vip" SP.Interactive in
          (match Client.call c (SP.Sim (prio, sj)) with
           | SP.Sim_done _ -> ()
           | SP.Error_resp e -> failwith ("interactive job refused: " ^ e.SP.ei_message)
           | _ -> failwith "unexpected response");
          lat.(j) <- now () -. t
        done);
    Array.sort compare lat;
    let pct p = lat.(min (inter_jobs - 1) (int_of_float (p *. float_of_int inter_jobs))) in
    (pct 0.50, pct 0.99)
  in
  Printf.printf "  design: %d-stage chain, %d cycles/job, 2 stalled workers, queue 8\n%!"
    stages cycles;
  let (u_p50, u_p99), _ = with_daemon "calm" interactive_pass in
  Printf.printf "%-9s p50 %6.0fms p99 %6.0fms\n%!" "unloaded" (u_p50 *. 1000.)
    (u_p99 *. 1000.);
  (* Overloaded phase: two greedy tenants, two flooding threads each. *)
  let done_a = Atomic.make 0 and done_b = Atomic.make 0 in
  let shed = Atomic.make 0 and retry_hinted = Atomic.make 0 in
  let stop = Atomic.make false in
  let (o_p50, o_p99), o_st =
    with_daemon "flood" (fun address ->
        (* Flooders offer work continuously — a shed job is immediately
           followed by the next attempt, a true open firehose — until
           the interactive measurement finishes. *)
        let flooder tenant counter () =
          Client.with_connection address (fun c ->
              while not (Atomic.get stop) do
                let prio, sj = job ~tenant SP.Batch in
                match Client.call c (SP.Sim (prio, sj)) with
                | SP.Sim_done _ -> Atomic.incr counter
                | SP.Error_resp e ->
                  Atomic.incr shed;
                  if e.SP.ei_retry_after > 0. then Atomic.incr retry_hinted;
                  Unix.sleepf 0.005
                | _ -> failwith "unexpected response"
              done)
        in
        let threads =
          List.concat_map
            (fun (tenant, counter) ->
              List.init flood_threads_per_tenant (fun _ ->
                  Thread.create (flooder tenant counter) ()))
            [ ("greedy-a", done_a); ("greedy-b", done_b) ]
        in
        Unix.sleepf 0.2 (* let the flood saturate the queue first *);
        let r = interactive_pass address in
        Atomic.set stop true;
        List.iter Thread.join threads;
        r)
  in
  let offered = Atomic.get done_a + Atomic.get done_b + Atomic.get shed in
  let shed_n = Atomic.get shed in
  let a = Atomic.get done_a and b = Atomic.get done_b in
  let shed_rate = float_of_int shed_n /. float_of_int offered in
  let fairness =
    if max a b = 0 then 1.0 else float_of_int (min a b) /. float_of_int (max a b)
  in
  let inflation = o_p99 /. u_p99 in
  Printf.printf
    "%-9s p50 %6.0fms p99 %6.0fms  shed %d/%d (%.0f%%)  greedy split %d/%d (fairness %.2f)\n%!"
    "overload" (o_p50 *. 1000.) (o_p99 *. 1000.) shed_n offered (shed_rate *. 100.) a b
    fairness;
  Printf.printf
    "  -> interactive p99 inflation %.2fx under a 4x batch flood (%d shed with retry-after)\n%!"
    inflation (Atomic.get retry_hinted);
  if shed_n = 0 then failwith "overload bench shed nothing (flood never saturated?)";
  if shed_n <> Atomic.get retry_hinted then
    failwith "some shed responses carried no retry-after hint";
  let oc = open_out "BENCH_serve_overload.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"serve-overload\",\n  \"stages\": %d,\n  \"cycles\": %d,\n  \"interactive_jobs\": %d,\n  \"batch_offered\": %d,\n  \"rows\": [\n    {\"phase\":\"unloaded\",\"p50_ms\":%.1f,\"p99_ms\":%.1f},\n    {\"phase\":\"overload\",\"p50_ms\":%.1f,\"p99_ms\":%.1f,\"shed\":%d,\"shed_rate\":%.3f,\"greedy_a\":%d,\"greedy_b\":%d,\"fairness\":%.3f,\"daemon_shed\":%d}\n  ],\n  \"interactive_p99_inflation\": %.3f\n}\n"
    stages cycles inter_jobs offered (u_p50 *. 1000.) (u_p99 *. 1000.) (o_p50 *. 1000.)
    (o_p99 *. 1000.) shed_n shed_rate a b fairness o_st.SP.st_shed inflation;
  close_out oc;
  Printf.printf "  [wrote BENCH_serve_overload.json]\n";
  if !Harness.quick && inflation > 2.0 then begin
    Printf.printf "  GATE FAILED: interactive p99 is %.2fx unloaded (budget 2.0x)\n"
      inflation;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Native backend on the daemon: warm .so cache vs cold cc runs         *)
(* ------------------------------------------------------------------ *)

(* What the on-disk/in-process .so cache is worth under daemon load.
   Both phases run with the plan cache OFF so the only cache in play is
   the native one: the cold phase gives every job a distinct design
   (unique IR digest, so every job pays a full cc run), the warm phase
   repeats one design (one compile, then memo hits).  The native stats
   counters certify which regime each phase actually ran in. *)
let native () =
  let module SP = Gsim_server.Protocol in
  let module Client = Gsim_server.Client in
  let module Daemon = Gsim_server.Daemon in
  let module Native = Gsim_engine.Native in
  header "Native - daemon jobs/sec: warm .so cache vs cold compiles";
  if not (Native.available ()) then begin
    Printf.printf "  no C compiler found - skipping (set GSIM_CC to override)\n";
    let oc = open_out "BENCH_native.json" in
    Printf.fprintf oc "{\n  \"bench\": \"native\",\n  \"available\": false\n}\n";
    close_out oc;
    Printf.printf "  [wrote BENCH_native.json]\n"
  end
  else begin
    (* A fresh cache dir per run so the cold phase genuinely compiles. *)
    let cache_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsim-bench-native-%d" (Unix.getpid ()))
    in
    Unix.putenv "GSIM_NATIVE_CACHE" cache_dir;
    let stages = if !Harness.quick then 80 else 300 in
    let clients = 4 in
    let jobs_per_client = if !Harness.quick then 3 else 6 in
    let cycles = 200 in
    let total = clients * jobs_per_client in
    let job_of salt =
      {
        SP.sj_filename = "chain.fir";
        sj_design = serve_design ~salt stages;
        sj_opts = { SP.default_engine_opts with SP.eo_backend = "native" };
        sj_cycles = cycles;
        sj_pokes = [ "in=12345" ];
        sj_token = None;
        sj_tenant = None;
        sj_deadline = 0.;
      }
    in
    let run_phase label job_for =
      let sock =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "gsimd-native-%d-%s.sock" (Unix.getpid ()) label)
      in
      let spool =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "gsimd-native-%d-%s" (Unix.getpid ()) label)
      in
      let address = SP.Unix_sock sock in
      let devnull = open_out "/dev/null" in
      let cfg =
        {
          (Daemon.default_config address) with
          Daemon.workers = 4;
          cache_capacity = 0;
          spool = Some spool;
          log = devnull;
        }
      in
      let compiles0 = Native.stats.Native.compiles in
      let memo0 = Native.stats.Native.memo_hits in
      let disk0 = Native.stats.Native.disk_hits in
      let server = Thread.create (fun () -> Daemon.serve cfg) () in
      let rec wait_ready n =
        if not (Sys.file_exists sock) then
          if n = 0 then failwith "gsimd did not start"
          else begin
            Unix.sleepf 0.01;
            wait_ready (n - 1)
          end
      in
      wait_ready 500;
      let t0 = now () in
      let client ci () =
        Client.with_connection address (fun c ->
            for j = 0 to jobs_per_client - 1 do
              let job = job_for ((ci * jobs_per_client) + j) in
              match Client.call c (SP.Sim (SP.Batch, job)) with
              | SP.Sim_done _ -> ()
              | SP.Error_resp e -> failwith ("native bench job failed: " ^ e.SP.ei_message)
              | _ -> failwith "unexpected response"
            done)
      in
      let threads = List.init clients (fun ci -> Thread.create (client ci) ()) in
      List.iter Thread.join threads;
      let dt = now () -. t0 in
      (match Client.with_connection address (fun c -> Client.call c SP.Shutdown) with
       | SP.Shutting_down -> ()
       | _ -> failwith "shutdown failed");
      Thread.join server;
      close_out devnull;
      let compiles = Native.stats.Native.compiles - compiles0 in
      let memo_hits = Native.stats.Native.memo_hits - memo0 in
      let disk_hits = Native.stats.Native.disk_hits - disk0 in
      let jobs_per_sec = float_of_int total /. dt in
      Printf.printf
        "%-6s %3d jobs %2d clients %8.2fs %9.2f jobs/s  cc runs %2d  memo hits %2d  disk hits %2d\n%!"
        label total clients dt jobs_per_sec compiles memo_hits disk_hits;
      (jobs_per_sec, compiles, memo_hits, disk_hits)
    in
    Printf.printf "  design: %d-stage register chain, %d cycles per job, plan cache off\n%!"
      stages cycles;
    let c_jps, c_cc, c_memo, c_disk = run_phase "cold" (fun k -> job_of (1000 + (k * 17))) in
    let w_jps, w_cc, w_memo, w_disk = run_phase "warm" (fun _ -> job_of 0) in
    if c_cc < total then
      failwith
        (Printf.sprintf "cold phase expected %d cc runs, saw %d (cache not cold?)" total
           c_cc);
    if w_cc > 1 then
      failwith (Printf.sprintf "warm phase expected at most one cc run, saw %d" w_cc);
    let ratio = w_jps /. c_jps in
    Printf.printf "  -> warm .so cache is %.2fx cold (cc ran %d time(s) warm vs %d cold)\n%!"
      ratio w_cc c_cc;
    let oc = open_out "BENCH_native.json" in
    Printf.fprintf oc
      "{\n  \"bench\": \"native\",\n  \"available\": true,\n  \"stages\": %d,\n  \"cycles\": %d,\n  \"clients\": %d,\n  \"jobs\": %d,\n  \"rows\": [\n    {\"phase\":\"cold\",\"jobs_per_sec\":%.3f,\"cc_runs\":%d,\"memo_hits\":%d,\"disk_hits\":%d},\n    {\"phase\":\"warm\",\"jobs_per_sec\":%.3f,\"cc_runs\":%d,\"memo_hits\":%d,\"disk_hits\":%d}\n  ],\n  \"warm_over_cold\": %.3f\n}\n"
      stages cycles clients total c_jps c_cc c_memo c_disk w_jps w_cc w_memo w_disk ratio;
    close_out oc;
    Printf.printf "  [wrote BENCH_native.json]\n"
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernel inner loops                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro (bechamel) - kernel inner loops";
  let open Bechamel in
  let core = build_design Designs.rocket_like in
  let boom = build_design Designs.boom_like in
  let prog = coremark_long () in
  let make_step config =
    let compiled = Gsim.instantiate config core.Stu_core.circuit in
    Designs.load_program compiled.Gsim.sim core.Stu_core.h prog;
    Designs.run_cycles compiled.Gsim.sim 64;
    Staged.stage (fun () -> compiled.Gsim.sim.Gsim_engine.Sim.step ())
  in
  (* One Test.make per reproduced table: the cycle kernel under the
     configuration that table measures. *)
  let tests =
    [
      Test.make ~name:"table1.full_cycle_step" (make_step (Gsim.verilator ()));
      Test.make ~name:"fig6.gsim_step" (make_step Gsim.gsim);
      Test.make ~name:"fig7.essent_step" (make_step Gsim.essent);
      Test.make ~name:"table3.kernighan_step"
        (make_step (Gsim.gsim_with ~partition_algorithm:"kernighan" ~max_supernode:20 ()));
      Test.make ~name:"fig9.size5_step" (make_step (Gsim.gsim_with ~max_supernode:5 ()));
      Test.make ~name:"table4.partition_gsim"
        (Staged.stage (fun () ->
             ignore (Partition.gsim core.Stu_core.circuit ~max_size:32)));
      Test.make ~name:"pipeline.o3_rocket"
        (Staged.stage (fun () ->
             ignore (Pipeline.optimize ~level:Pipeline.O3 (Circuit.copy core.Stu_core.circuit))));
      Test.make ~name:"circuit.digest_boom"
        (Staged.stage (fun () -> ignore (Circuit.digest boom.Stu_core.circuit)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second (if !Harness.quick then 0.25 else 1.0))
      ~kde:(Some 100) ()
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                          ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  table3 ();
  table4 ();
  ablation ();
  model ();
  coverage ();
  fault ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          Harness.quick := true;
          false
        end
        else true)
      args
  in
  let t0 = now () in
  (match args with
   | [] | [ "all" ] -> all ()
   | cmds ->
     List.iter
       (function
         | "table1" -> table1 ()
         | "fig6" -> fig6 ()
         | "fig7" -> fig7 ()
         | "fig8" -> fig8 ()
         | "fig9" -> fig9 ()
         | "table3" -> table3 ()
         | "table4" -> table4 ()
         | "ablation" -> ablation ()
         | "model" -> model ()
         | "coverage" -> coverage ()
         | "fault" -> fault ()
         | "backend" -> backend ()
         | "resilience" -> resilience ()
         | "fuzz" -> fuzz ()
         | "serve" -> serve ()
         | "chaos" -> chaos_bench ()
         | "overload" | "--overload" -> overload_bench ()
         | "native" -> native ()
         | "micro" -> micro ()
         | other ->
           Printf.eprintf
             "unknown bench %S (expected table1|fig6|fig7|fig8|fig9|table3|table4|ablation|model|coverage|fault|backend|resilience|fuzz|serve|chaos|overload|native|micro|all)\n"
             other;
           exit 2)
       cmds);
  Printf.printf "\n[bench completed in %.1fs]\n" (now () -. t0)
