(* The benchmark program.  See perfbench/run.py for how it is built and
   driven; usage:

     gsbench.exe run --workload W --seed N --seconds S --trace 0|1
                     --cli PATH --state DIR
     gsbench.exe setup --design boom|rocket --trace 0|1

   [run] executes one workload and prints one JSON result as its last
   stdout line.  [setup] is the child process the set-up measurements
   spawn: one design from its in-memory source to its first simulated
   cycle, in a fresh process (empty in-process native memo). *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Ir_text = Gsim_ir.Ir_text
module Gsim = Gsim_core.Gsim
module Compile = Gsim.Compile
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core
module Programs = Gsim_designs.Programs
module Isa = Gsim_designs.Isa
module Sim = Gsim_engine.Sim
module Native = Gsim_engine.Native
module Counters = Gsim_engine.Counters
module Checkpoint = Gsim_engine.Checkpoint
module Pipeline = Gsim_passes.Pipeline
module Pass = Gsim_passes.Pass
module Partition = Gsim_partition.Partition
module Emit_c = Gsim_emit.Emit_c
module Fault = Gsim_fault.Fault
module Fdb = Gsim_fault.Db
module Campaign = Gsim_fault.Campaign
module Protocol = Gsim_server.Protocol
module Client = Gsim_server.Client

let now = Unix.gettimeofday
let span = Tracer.span
let median = Calib.median
let percentile = Calib.percentile

(* p99, or for fewer than 1000 samples the highest percentile that
   still has ten samples beyond it. *)
let tail l =
  let n = float_of_int (List.length l) in
  percentile (Float.max 0.5 (Float.min 0.99 (1. -. (10. /. n)))) l

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Run record                                                           *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let check ok msg = if not ok then problems := msg :: !problems

(* Per-layer metrics default to 0: a layer the workload never calls did
   no work. *)
let layer_metrics =
  [
    ("designs.build_s", "s"); ("compile.hash_s", "s"); ("compile.prepare_s", "s");
    ("compile.realize_s", "s"); ("sim.first_cycle_s", "s"); ("setup.residual_s", "s");
    ("trace.overhead_s", "s");
    ("pass.simplify_s", "s"); ("pass.alias_s", "s"); ("pass.dce_s", "s");
    ("pass.reset_s", "s"); ("pass.inline_s", "s"); ("pass.extract_s", "s");
    ("pass.bitsplit_s", "s"); ("pass.validate_s", "s"); ("pass.rounds", "count");
    ("pipeline.nodes_out", "count"); ("partition.s", "s"); ("partition.supernodes", "count");
    ("emit_c.s", "s"); ("emit_c.c_kb", "kB"); ("native.cc_s", "s"); ("native.so_kb", "kB");
    ("native.load_s", "s"); ("native.compiles", "count"); ("native.disk_hits", "count");
    ("native.memo_hits", "count"); ("firrtl.parse_s", "s"); ("firrtl.mb_per_s", "MB/s");
    ("firrtl.path_failures", "count");
    ("activity.evals_per_cycle", "1/cycle"); ("activity.exams_per_cycle", "1/cycle");
    ("activity.activations_per_cycle", "1/cycle"); ("activity.changed_per_cycle", "1/cycle");
    ("activity.reg_commits_per_cycle", "1/cycle"); ("activity.af", "ratio");
    ("engine.ns_per_eval", "ns"); ("campaign.fault_ms_p50", "ms");
    ("checkpoint.restore_us", "us"); ("fault.detected", "count"); ("fault.latent", "count");
    ("fault.masked", "count"); ("fault.hang", "count"); ("fault.uninjectable", "count");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us");
    ("plan_cache.hit_ratio", "ratio"); ("daemon.overhead_ms", "ms"); ("host.cal_rate", "1/s");
    ("host.pollution_ratio", "ratio"); ("raw.work_per_s", "1/s"); ("raw.setup_s", "s");
  ]

let end_to_end_metrics =
  [
    ("setup_s", "s"); ("work_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("peak_rss_mb", "MB");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let put name v = Hashtbl.replace values name v

(* Human-readable notes printed before the JSON line. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Exact-repeat self-check                                              *)
(* ------------------------------------------------------------------ *)

(* Deterministic counters are recorded in a file under the state
   directory the first time a run sees them; every later run of the
   same workload must reproduce them exactly. *)
let exact_path = ref ""
let exact_table : (string, string) Hashtbl.t = Hashtbl.create 32
let exact_dirty = ref false

let exact_load path =
  exact_path := path;
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line ' ' with
         | Some i ->
           Hashtbl.replace exact_table (String.sub line 0 i)
             (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic
  end

let exact key value =
  match Hashtbl.find_opt exact_table key with
  | Some v -> check (v = value) (Printf.sprintf "exact counter %s is %s, earlier runs saw %s" key value v)
  | None ->
    Hashtbl.replace exact_table key value;
    exact_dirty := true

let exact_save () =
  if !exact_dirty && !exact_path <> "" then begin
    let tmp = !exact_path ^ ".tmp" in
    let oc = open_out tmp in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) exact_table []
    |> List.sort compare
    |> List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v);
    close_out oc;
    Sys.rename tmp !exact_path
  end

(* ------------------------------------------------------------------ *)
(* Processes and files                                                  *)
(* ------------------------------------------------------------------ *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let file_kb path = try float_of_int (Unix.stat path).Unix.st_size /. 1024. with _ -> 0.

let env_with pairs =
  let keys = List.map fst pairs in
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> not (List.mem (String.sub kv 0 i) keys)
           | None -> true)
  in
  Array.of_list (keep @ List.map (fun (k, v) -> k ^ "=" ^ v) pairs)

(* Run [exe args] to completion and return its stdout lines. *)
let run_child ~env exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  (match reap () with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith (Printf.sprintf "child %s %s failed" exe (String.concat " " args)));
  (pid, List.rev !lines)

(* ------------------------------------------------------------------ *)
(* Set-up: design source to first simulated cycle                       *)
(* ------------------------------------------------------------------ *)

let native_config = { Gsim.gsim with Gsim.backend = `Native }
let dmem_size = Stu_core.default_config.Stu_core.dmem_depth

let design_of = function
  | "boom" -> Designs.boom_like
  | "rocket" -> Designs.rocket_like
  | d -> failwith ("unknown design " ^ d)

type setup = {
  core : Stu_core.core;
  plan : Compile.plan;
  compiled : Gsim.compiled;
  seconds : float;
  cc_cpu : float;  (* CPU seconds of waited-for children: the C compiler *)
  so_path : string;
}

let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let setup_design ?(forcible = []) ?(keep = []) config (d : Designs.design) =
  span "setup" @@ fun () ->
  let cpu0 = child_cpu () in
  let t0 = now () in
  let core = span "designs.build" d.Designs.build in
  let source = span "compile.hash" (fun () -> Compile.of_circuit core.Stu_core.circuit) in
  let plan = span "compile.prepare" (fun () -> Compile.prepare ~forcible ~keep config source) in
  let loaded =
    if config.Gsim.backend = `Native then
      span "native.load" (fun () -> Native.load (Compile.plan_circuit plan))
    else None
  in
  let compiled = span "compile.realize" (fun () -> Compile.realize plan) in
  span "sim.first_cycle" (fun () -> compiled.Gsim.sim.Sim.step ());
  let seconds = now () -. t0 in
  {
    core;
    plan;
    compiled;
    seconds;
    cc_cpu = child_cpu () -. cpu0;
    so_path = (match loaded with Some (u, _) -> u.Native.so_path | None -> "");
  }

(* Child mode: one set-up in this fresh process, reported as lines. *)
let child_setup design =
  let s = setup_design native_config (design_of design) in
  let st = Native.stats in
  Printf.printf "setup_s %.9f\n" s.seconds;
  Printf.printf "cc_cpu_s %.6f\n" s.cc_cpu;
  Printf.printf "native %d %d %d\n" st.Native.compiles st.Native.disk_hits st.Native.memo_hits;
  Printf.printf "so_kb %.3f\n" (file_kb s.so_path);
  Printf.printf "nodes_out %d\n" (Circuit.node_count (Compile.plan_circuit s.plan));
  Printf.printf "supernodes %d\n" s.compiled.Gsim.supernodes;
  Printf.printf "rss_mb %.3f\n" (vm_hwm_mb "self");
  (* Output check on a second engine instance: the quick program's
     registers and retired count against the ISA golden model. *)
  (match
     Designs.check_against_golden (Compile.realize s.plan).Gsim.sim s.core.Stu_core.h
       (Programs.quick ()) ~dmem_size
   with
   | () -> print_endline "check ok"
   | exception Failure m -> print_endline ("check " ^ m));
  List.iter (fun sp -> print_endline (Tracer.to_line sp)) !Tracer.spans

type child_result = {
  c_setup : float;
  c_cc_cpu : float;
  c_native : string;
  c_so_kb : float;
  c_nodes_out : string;
  c_supernodes : string;
  c_rss : float;
  c_spans : Tracer.span list;
}

let spawn_setup ~cache ~traced design =
  let env = env_with [ ("GSIM_NATIVE_CACHE", cache) ] in
  let pid, lines =
    run_child ~env Sys.executable_name
      [ "setup"; "--design"; design; "--trace"; (if traced then "1" else "0") ]
  in
  let field k =
    match
      List.find_map
        (fun l ->
          match String.index_opt l ' ' with
          | Some i when String.sub l 0 i = k -> Some (String.sub l (i + 1) (String.length l - i - 1))
          | _ -> None)
        lines
    with
    | Some v -> v
    | None -> failwith (Printf.sprintf "set-up child printed no %s" k)
  in
  let chk = field "check" in
  check (chk = "ok") (Printf.sprintf "%s set-up child: quick program mismatch: %s" design chk);
  {
    c_setup = float_of_string (field "setup_s");
    c_cc_cpu = float_of_string (field "cc_cpu_s");
    c_native = field "native";
    c_so_kb = float_of_string (field "so_kb");
    c_nodes_out = field "nodes_out";
    c_supernodes = field "supernodes";
    c_rss = float_of_string (field "rss_mb");
    c_spans = List.filter_map (Tracer.of_line ~pid) lines;
  }

(* [n] repetitions of [f i], which returns a raw time in seconds and a
   payload; each is followed by a calibration kernel run.  Returns
   (calibrated seconds, payload) per repetition. *)
let calibrated_reps n f =
  let m = Calib.meter () in
  List.init n (fun i ->
      attempted := !attempted + 1;
      let secs, x = f i in
      (secs /. Calib.record m ~work:1. ~secs, x))

let setup_span_names =
  [ "designs.build"; "compile.hash"; "compile.prepare"; "native.load"; "compile.realize";
    "sim.first_cycle" ]

(* Set-up repetitions in child processes.  Untraced children give
   [setup_s]; in a traced run, traced children alternate with untraced
   ones and give the per-span self times, the residual and the tracing
   overhead. *)
let measured_setups ~trace ~reps ~cache_for design =
  let results =
    calibrated_reps
      (if trace then 2 * reps else reps)
      (fun i ->
        let traced = trace && i mod 2 = 1 in
        let r = spawn_setup ~cache:(cache_for i) ~traced design in
        (r.c_setup, (traced, r)))
  in
  let traced_reps, plain_reps = List.partition (fun (_, (t, _)) -> t) results in
  let child (_, (_, r)) = r in
  let plain = List.map child plain_reps and traced = List.map child traced_reps in
  List.iter
    (fun r ->
      exact (design ^ ".native") r.c_native;
      exact (design ^ ".pipeline.nodes_out") r.c_nodes_out;
      exact (design ^ ".partition.supernodes") r.c_supernodes)
    (plain @ traced);
  let setup_s = median (List.map fst plain_reps) in
  put "raw.setup_s" (median (List.map (fun r -> r.c_setup) plain));
  if trace then begin
    let med f = median (List.map f traced) in
    let self r = Tracer.self_times r.c_spans in
    List.iter
      (fun name ->
        put (name ^ "_s")
          (med (fun r -> try List.assoc name (self r) with Not_found -> 0.)))
      setup_span_names;
    put "setup.residual_s" (med (fun r -> try List.assoc "setup" (self r) with Not_found -> 0.));
    put "trace.overhead_s" (median (List.map fst traced_reps) -. setup_s);
    put "native.cc_s" (med (fun r -> r.c_cc_cpu));
    put "native.so_kb" (med (fun r -> r.c_so_kb));
    (match String.split_on_char ' ' (List.hd traced).c_native with
     | [ c; d; m ] ->
       put "native.compiles" (float_of_string c);
       put "native.disk_hits" (float_of_string d);
       put "native.memo_hits" (float_of_string m)
     | _ -> ());
    List.iter Tracer.adopt (List.map (fun r -> r.c_spans) traced)
  end;
  note "%s set-up: raw %s s over %d fresh processes; calibrated median %.4f s" design
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.c_setup) plain))
    (List.length plain) setup_s;
  (setup_s, median (List.map (fun r -> r.c_rss) plain))

(* ------------------------------------------------------------------ *)
(* Per-layer replays                                                    *)
(* ------------------------------------------------------------------ *)

(* Drives [Pipeline.plan level] the way [Pass.run_fixpoint] does:
   [apply p] for each pass application in order, [after_round ()] after
   each round.  Returns the number of rounds. *)
let replay_plan level ~apply ~after_round =
  List.fold_left
    (fun rounds (st : Pipeline.stage) ->
      let rec go r =
        if r >= st.Pipeline.stage_max_rounds then r
        else begin
          let changed =
            List.fold_left
              (fun ch p -> (apply p).Pass.rewrites > 0 || ch)
              false st.Pipeline.stage_passes
          in
          after_round ();
          if changed then go (r + 1) else r + 1
        end
      in
      rounds + go 0)
    0 (Pipeline.plan level)

(* Replays [Compile.prepare]'s pass pipeline one [Pass.apply] at a time
   to time each pass, asserts the result equals the plan's circuit, then
   times partitioning of it. *)
let replay_pipeline (config : Gsim.config) circuit ~marked plan =
  let c = Circuit.copy circuit in
  List.iter (fun id -> if Circuit.node_opt c id <> None then Circuit.mark_output c id) marked;
  Circuit.check_acyclic c;
  let add name dt =
    let k = "pass." ^ name ^ "_s" in
    put k ((try Hashtbl.find values k with Not_found -> 0.) +. dt)
  in
  let validate () =
    let (), dt = time (fun () -> Circuit.validate c) in
    add "validate" dt
  in
  let rounds =
    replay_plan config.Gsim.opt_level ~after_round:validate ~apply:(fun p ->
        let o, dt = time (fun () -> Pass.apply p c) in
        add p.Pass.pass_name dt;
        o)
  in
  validate ();
  put "pass.rounds" (float_of_int rounds);
  put "pipeline.nodes_out" (float_of_int (Circuit.node_count c));
  check
    (Ir_text.to_string c = Ir_text.to_string (Compile.plan_circuit plan))
    "pass replay does not reproduce Compile.prepare's circuit";
  let part, dt = time (fun () -> Partition.gsim c ~max_size:config.Gsim.max_supernode) in
  put "partition.s" dt;
  put "partition.supernodes" (float_of_int (Array.length part.Partition.supernodes))

let activity_metrics (ctr : Counters.t) ~total_nodes =
  let per x = float_of_int x /. float_of_int (max 1 ctr.Counters.cycles) in
  put "activity.evals_per_cycle" (per ctr.Counters.evals);
  put "activity.exams_per_cycle" (per ctr.Counters.exams);
  put "activity.activations_per_cycle" (per ctr.Counters.activations);
  put "activity.changed_per_cycle" (per ctr.Counters.changed);
  put "activity.reg_commits_per_cycle" (per ctr.Counters.reg_commits);
  put "activity.af" (Counters.activity_factor ctr ~total_nodes)

let counters_key (ctr : Counters.t) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d" ctr.Counters.cycles ctr.Counters.evals ctr.Counters.exams
    ctr.Counters.activations ctr.Counters.changed ctr.Counters.reg_commits

(* Calibrated latencies in ms. *)
let latency_metrics lat =
  put "latency_p50_ms" (median lat);
  put "latency_tail_ms" (tail lat)

let meter_metrics m =
  put "host.cal_rate" (Calib.cal_rate m);
  put "host.pollution_ratio" (Calib.pollution m);
  put "raw.work_per_s" (Calib.raw_rate m);
  put "work_per_s" (Calib.calibrated_rate m)

(* ------------------------------------------------------------------ *)
(* Steady simulation window: repeated CoreMark runs                     *)
(* ------------------------------------------------------------------ *)

(* Each operation restores the engine's power-on checkpoint, loads
   CoreMark and runs it to halt; registers and retired count are checked
   against the ISA golden model, and the engine's event counters must be
   identical on every operation. *)
let coremark_iters = 10

let coremark_window ~name (s : setup) ~seconds =
  let compiled = Compile.realize s.plan in
  let sim = compiled.Gsim.sim and h = s.core.Stu_core.h in
  let ck0 = Checkpoint.capture ?rt:compiled.Gsim.runtime sim in
  let prog = Programs.coremark ~iters:coremark_iters () in
  let golden_regs, _, golden_retired =
    Isa.reference_execute ~code:prog.Isa.code ~data:prog.Isa.data ~dmem_size ()
  in
  (* One untimed run first: restore leaves combinational values stale,
     so only runs that follow a full run see identical engine state. *)
  Checkpoint.restore sim ck0;
  Designs.load_program sim h prog;
  ignore (Designs.run_program sim h);
  let m = Calib.meter () in
  let lat = ref [] and restores = ref [] and first_ctr = ref "" in
  let t_end = now () +. seconds in
  while now () < t_end do
    attempted := !attempted + 1;
    let t0 = now () in
    Checkpoint.restore sim ck0;
    let t1 = now () in
    Designs.load_program sim h prog;
    Counters.clear (sim.Sim.counters ());
    let cycles = Designs.run_program sim h in
    let dt = now () -. t0 in
    restores := (t1 -. t0) :: !restores;
    let ok =
      Sim.peek_int sim h.Stu_core.instret = golden_retired
      && Array.for_all2
           (fun id g -> id < 0 || Sim.peek_int sim id land 0xFFFFFFFF = g land 0xFFFFFFFF)
           h.Stu_core.reg_nodes golden_regs
    in
    if not ok then failed := !failed + 1;
    check ok (name ^ ": CoreMark registers differ from Isa.reference_execute");
    let ctr = sim.Sim.counters () in
    let key = counters_key ctr in
    if !first_ctr = "" then begin
      first_ctr := key;
      activity_metrics ctr ~total_nodes:(Circuit.node_count sim.Sim.circuit)
    end
    else check (key = !first_ctr) (Printf.sprintf "%s: engine counters differ between identical runs: %s vs %s" name key !first_ctr);
    let f = Calib.record m ~work:(float_of_int cycles) ~secs:dt in
    lat := (dt /. f *. 1000.) :: !lat
  done;
  exact (name ^ ".counters") !first_ctr;
  meter_metrics m;
  latency_metrics !lat;
  put "checkpoint.restore_us" (median !restores *. 1e6);
  let evals_per_cycle = try Hashtbl.find values "activity.evals_per_cycle" with Not_found -> 0. in
  put "engine.ns_per_eval" (1e9 /. (evals_per_cycle *. Calib.calibrated_rate m));
  note "%s: %d CoreMark runs, %.1f cycles/s calibrated (raw %.1f); kernel %.4g/s, pollution %.4f"
    name (List.length !lat) (Calib.calibrated_rate m) (Calib.raw_rate m) (Calib.cal_rate m) (Calib.pollution m);
  compiled.Gsim.destroy ()

let emit_metrics s =
  let r, dt = time (fun () -> Emit_c.emit (Compile.plan_circuit s.plan)) in
  put "emit_c.s" dt;
  put "emit_c.c_kb" (float_of_int (String.length r.Emit_c.source) /. 1024.)

(* ------------------------------------------------------------------ *)
(* boom-steady                                                          *)
(* ------------------------------------------------------------------ *)

let boom_steady ~state ~seconds ~trace =
  (* The cache outlives the run: a priming child makes sure the object
     is on disk, so every timed set-up is a disk hit. *)
  let cache = Filename.concat state "native-boom" in
  mkdir_p cache;
  ignore (spawn_setup ~cache ~traced:false "boom");
  let setup_s, _ = measured_setups ~trace ~reps:5 ~cache_for:(fun _ -> cache) "boom" in
  Unix.putenv "GSIM_NATIVE_CACHE" cache;
  let s = setup_design native_config Designs.boom_like in
  coremark_window ~name:"boom" s ~seconds;
  put "setup_s" setup_s;
  put "peak_rss_mb" (vm_hwm_mb "self");
  if trace then begin
    replay_pipeline native_config s.core.Stu_core.circuit ~marked:[] s.plan;
    emit_metrics s
  end

(* ------------------------------------------------------------------ *)
(* rocket-cold                                                          *)
(* ------------------------------------------------------------------ *)

exception Invalid_after of string * exn

(* Names the first pass application after which the circuit no longer
   validates (or which raises), replaying [Pipeline.plan] on a copy. *)
let first_bad_pass (config : Gsim.config) circuit =
  let c = Circuit.copy circuit in
  match
    replay_plan config.Gsim.opt_level ~after_round:ignore ~apply:(fun p ->
        try
          let o = Pass.apply p c in
          Circuit.validate c;
          o
        with e -> raise (Invalid_after (p.Pass.pass_name, e)))
  with
  | _ -> "none: every pass application validates"
  | exception Invalid_after (name, e) ->
    Printf.sprintf "pass %s: %s" name (match e with Failure m -> m | e -> Printexc.to_string e)

(* The FIRRTL path: emit the in-memory design as FIRRTL text, load it
   back and prepare it.  Its outcome is the per-layer count
   firrtl.path_failures, not an operation of the run: a failure prints
   its diagnostic and the workload continues. *)
let firrtl_path () =
  put "firrtl.path_failures" 0.;
  let core = Designs.rocket_like.Designs.build () in
  let text = (Gsim_firrtl.Firrtl_emit.emit core.Stu_core.circuit).Gsim_firrtl.Firrtl_emit.text in
  let source = ref None in
  match
    let src, dt =
      time (fun () ->
          span "firrtl.parse" (fun () -> Compile.source_of_string ~filename:"rocket.fir" text))
    in
    source := Some src;
    put "firrtl.parse_s" dt;
    put "firrtl.mb_per_s" (float_of_int (String.length text) /. 1e6 /. dt);
    ignore (Compile.prepare Gsim.gsim src)
  with
  | () -> note "rocket FIRRTL path: ok (%d bytes of FIRRTL)" (String.length text)
  | exception e ->
    put "firrtl.path_failures" 1.;
    let msg = match e with Failure m -> m | e -> Printexc.to_string e in
    let msg =
      match !source with
      | Some src ->
        Printf.sprintf "%s; first invalid circuit after %s" msg
          (first_bad_pass Gsim.gsim src.Compile.circuit)
      | None -> msg
    in
    note "rocket FIRRTL path: FAILED: %s" msg;
    Printf.eprintf "rocket-cold: FIRRTL path failed: %s\n%!" msg

let rocket_cold ~run_dir ~seconds ~trace =
  let cold i = Filename.concat run_dir (Printf.sprintf "native-cold-%d" i) in
  let setup_s, rss = measured_setups ~trace ~reps:5 ~cache_for:cold "rocket" in
  firrtl_path ();
  (* The steady window reuses the last child's object: a disk hit. *)
  let last = cold (if trace then 9 else 4) in
  Unix.putenv "GSIM_NATIVE_CACHE" last;
  let s = setup_design native_config Designs.rocket_like in
  coremark_window ~name:"rocket" s ~seconds;
  put "setup_s" setup_s;
  put "peak_rss_mb" rss;
  if trace then begin
    replay_pipeline native_config s.core.Stu_core.circuit ~marked:[] s.plan;
    emit_metrics s
  end

(* ------------------------------------------------------------------ *)
(* stucore-faults                                                       *)
(* ------------------------------------------------------------------ *)

let campaign_cfg = Campaign.default_config
let chunk_faults = 500

(* Chunk [k] of the campaign: an independent seeded draw, so every chunk
   is a random sample of the fault space and chunk 0 is fixed per seed. *)
let fault_chunk ~seed circuit k =
  Fault.random ~seed:((seed * 7919) + k) ~count:chunk_faults
    ~horizon:campaign_cfg.Campaign.horizon circuit

let stucore_faults ~seed ~seconds ~trace =
  let circuit = (Designs.stu_core.Designs.build ()).Stu_core.circuit in
  let chunk0 = fault_chunk ~seed circuit 0 in
  let forcible =
    List.filter_map
      (fun (f : Fault.t) ->
        Option.map (fun (n : Circuit.node) -> n.Circuit.id) (Circuit.find_node circuit f.Fault.target))
      chunk0
    |> List.sort_uniq compare
  in
  let keep = List.map (fun (r : Circuit.register) -> r.Circuit.read) (Circuit.registers circuit) in
  (* Set-up: design build plus the campaign's instantiate with its
     forcible set, repeated in-process (no native cache is involved). *)
  let setups =
    calibrated_reps (if trace then 82 else 41) (fun i ->
        let traced = trace && i mod 2 = 1 in
        Tracer.enabled := traced;
        let s = setup_design ~forcible ~keep Gsim.gsim Designs.stu_core in
        Tracer.enabled := false;
        (s.seconds, (traced, s)))
  in
  let plain = List.filter_map (fun (cal, (t, _)) -> if t then None else Some cal) setups in
  put "setup_s" (median plain);
  put "raw.setup_s"
    (median (List.filter_map (fun (_, (t, s)) -> if t then None else Some s.seconds) setups));
  let _, (_, s0) = List.hd setups in
  exact (Printf.sprintf "seed%d.stucore.pipeline.nodes_out" seed)
    (string_of_int (Circuit.node_count (Compile.plan_circuit s0.plan)));
  exact (Printf.sprintf "seed%d.stucore.supernodes" seed) (string_of_int s0.compiled.Gsim.supernodes);
  if trace then begin
    let traced = List.filter_map (fun (_, (t, s)) -> if t then Some s.seconds else None) setups in
    let traced_cal = List.filter_map (fun (cal, (t, _)) -> if t then Some cal else None) setups in
    let self = Tracer.self_times !Tracer.spans in
    let n = float_of_int (List.length traced) in
    List.iter
      (fun name -> put (name ^ "_s") ((try List.assoc name self with Not_found -> 0.) /. n))
      setup_span_names;
    put "setup.residual_s" ((try List.assoc "setup" self with Not_found -> 0.) /. n);
    put "trace.overhead_s" (median traced_cal -. median plain);
    replay_pipeline Gsim.gsim circuit ~marked:(keep @ forcible) s0.plan;
    (* Engine counters and checkpoint restore cost on the campaign's
       engine over the golden horizon. *)
    let sim = s0.compiled.Gsim.sim in
    let ck = Checkpoint.capture ?rt:s0.compiled.Gsim.runtime sim in
    Counters.clear (sim.Sim.counters ());
    Sim.run sim campaign_cfg.Campaign.horizon;
    activity_metrics (sim.Sim.counters ()) ~total_nodes:(Circuit.node_count sim.Sim.circuit);
    let restores = List.init 200 (fun _ -> snd (time (fun () -> Checkpoint.restore sim ck))) in
    put "checkpoint.restore_us" (median restores *. 1e6)
  end;
  (* The campaign window: whole chunks until the time is up. *)
  let m = Calib.meter () in
  let lat = ref [] and raw_lat = ref [] and classified = ref 0 and chunk0_db = ref None in
  let t_end = now () +. seconds in
  let k = ref 0 in
  while now () < t_end || !k = 0 do
    let faults = if !k = 0 then chunk0 else fault_chunk ~seed circuit !k in
    let last = ref (now ()) and slice = ref [] in
    let flush () =
      if !slice <> [] then begin
        let secs = List.fold_left ( +. ) 0. !slice in
        let f = Calib.record m ~work:(float_of_int (List.length !slice)) ~secs in
        lat := List.rev_append (List.map (fun dt -> dt /. f *. 1000.) !slice) !lat;
        raw_lat := List.rev_append (List.map (fun dt -> dt *. 1000.) !slice) !raw_lat;
        slice := []
      end
    in
    let progress done_ _total =
      let t = now () in
      (* The first fault of a chunk also pays the campaign's own
         instantiation and golden run. *)
      if done_ > 1 then slice := (t -. !last) :: !slice;
      if List.length !slice >= 100 then flush ();
      last := now ()
    in
    let db = Campaign.run ~progress campaign_cfg Gsim.gsim circuit faults in
    flush ();
    classified := !classified + Fdb.count db;
    attempted := !attempted + Fdb.count db;
    if !k = 0 then chunk0_db := Some db;
    incr k
  done;
  let db0 = Option.get !chunk0_db in
  let sm = Fdb.summary db0 in
  exact (Printf.sprintf "seed%d.stucore.classes" seed)
    (Printf.sprintf "%d/%d/%d/%d/%d" sm.Fdb.detected sm.Fdb.latent sm.Fdb.masked sm.Fdb.hangs
       sm.Fdb.uninjectable);
  put "fault.detected" (float_of_int sm.Fdb.detected);
  put "fault.latent" (float_of_int sm.Fdb.latent);
  put "fault.masked" (float_of_int sm.Fdb.masked);
  put "fault.hang" (float_of_int sm.Fdb.hangs);
  put "fault.uninjectable" (float_of_int sm.Fdb.uninjectable);
  (* Output check: a seeded sample re-classified on the reference
     interpreter must match record for record. *)
  let st = Random.State.make [| seed; 0x5eed |] in
  let arr = Array.of_list chunk0 in
  let sample =
    List.init 24 (fun _ -> arr.(Random.State.int st (Array.length arr)))
    |> List.sort_uniq compare
  in
  let ref_db = Campaign.run campaign_cfg Gsim.reference circuit sample in
  List.iter
    (fun f ->
      let key = Fault.key f in
      check
        (Fdb.find ref_db key = Fdb.find db0 key && Fdb.find ref_db key <> None)
        (Printf.sprintf "fault %s: gsim and reference presets classify it differently" key))
    sample;
  meter_metrics m;
  latency_metrics !lat;
  put "campaign.fault_ms_p50" (median !raw_lat);
  put "peak_rss_mb" (vm_hwm_mb "self");
  note "stucore: %d faults in %d chunks, %.2f faults/s calibrated (raw %.2f); kernel %.4g/s, pollution %.4f"
    !classified !k (Calib.calibrated_rate m) (Calib.raw_rate m) (Calib.cal_rate m)
    (Calib.pollution m);
  note "stucore: chunk 0 classes detected/latent/masked/hang/uninjectable = %d/%d/%d/%d/%d"
    sm.Fdb.detected sm.Fdb.latent sm.Fdb.masked sm.Fdb.hangs sm.Fdb.uninjectable

(* ------------------------------------------------------------------ *)
(* gsimd-mixed                                                          *)
(* ------------------------------------------------------------------ *)

let chain_stages = 400
let job_cycles = 400
let pool_size = 8
(* One job in [fresh_every] is a fresh design: a plan-cache miss.  At
   2 % the misses sit right around p99, so the tail measures them. *)
let fresh_every = 50

(* A register chain in FIRRTL: an accumulator feeding a chain of
   xor/shift stages, so every stage keeps changing.  [salt] changes the
   reset values, so every salt is a distinct design (distinct text and
   circuit hash). *)
let chain_design salt =
  let b = Buffer.create (chain_stages * 90) in
  Buffer.add_string b "circuit Chain :\n  module Chain :\n    input clock : Clock\n";
  Buffer.add_string b "    input reset : UInt<1>\n    input in : UInt<32>\n    output out : UInt<32>\n\n";
  for i = 0 to chain_stages - 1 do
    Printf.bprintf b "    reg r%d : UInt<32>, clock with : (reset => (reset, UInt<32>(%d)))\n" i
      (((i * 40503) + salt) land 0xffff);
    if i = 0 then Buffer.add_string b "    r0 <= tail(add(r0, in), 1)\n"
    else Printf.bprintf b "    r%d <= xor(r%d, shr(r%d, 1))\n" i (i - 1) i
  done;
  Printf.bprintf b "    out <= r%d\n" (chain_stages - 1);
  Buffer.contents b

let job_opts = Protocol.default_engine_opts

let sim_job ~design ~poke =
  Protocol.Sim
    ( Protocol.Interactive,
      {
        Protocol.sj_filename = "chain.fir";
        sj_design = design;
        sj_opts = job_opts;
        sj_cycles = job_cycles;
        sj_pokes = [ Printf.sprintf "in=%d" poke ];
        sj_token = None;
        sj_tenant = None;
        sj_deadline = 0.;
      } )

(* What the daemon's worker computes for a sim job, run locally, with
   the time of each step. *)
type local_run = {
  outputs : (string * string) list;
  counters : Counters.t;
  total_nodes : int;
  config : Gsim.config;
  source : Compile.source;
  plan : Compile.plan;
  parse_s : float;
  prepare_s : float;
  realize_s : float;
  run_s : float;
}

let local_run ~design ~poke =
  let o = job_opts in
  let config =
    Gsim.config_of_names ~engine:o.Protocol.eo_engine ~threads:o.Protocol.eo_threads
      ~level:o.Protocol.eo_level ~max_supernode:o.Protocol.eo_max_supernode
      ~backend:o.Protocol.eo_backend
  in
  let timed name f = time (fun () -> span name f) in
  let source, parse_s =
    timed "firrtl.parse" (fun () -> Compile.source_of_string ~filename:"chain.fir" design)
  in
  let plan, prepare_s = timed "compile.prepare" (fun () -> Compile.prepare config source) in
  let compiled, realize_s = timed "compile.realize" (fun () -> Compile.realize plan) in
  let sim = compiled.Gsim.sim in
  let circuit = Compile.plan_circuit plan in
  (match Circuit.find_node circuit "in" with
   | Some n -> sim.Sim.poke n.Circuit.id (Bits.of_int ~width:n.Circuit.width poke)
   | None -> failwith "chain design has no input 'in'");
  Counters.clear (sim.Sim.counters ());
  let (), run_s = timed "sim.run" (fun () -> Sim.run sim job_cycles) in
  let outputs =
    Circuit.outputs circuit
    |> List.map (fun (n : Circuit.node) ->
           (n.Circuit.name, Format.asprintf "%a" Bits.pp (sim.Sim.peek n.Circuit.id)))
  in
  {
    outputs;
    counters = sim.Sim.counters ();
    total_nodes = Circuit.node_count sim.Sim.circuit;
    config;
    source;
    plan;
    parse_s;
    prepare_s;
    realize_s;
    run_s;
  }

(* [dir] is relative to the current directory, which the daemon
   inherits: a Unix socket path must stay short (108 bytes) wherever the
   source tree lives. *)
let spawn_daemon ~cli ~dir =
  mkdir_p dir;
  let env = env_with [ ("GSIM_NATIVE_CACHE", Filename.concat dir "native") ] in
  Unix.create_process_env cli
    [| cli; "serve"; "--listen"; Filename.concat dir "d.sock"; "--workers"; "2"; "--cache"; "64";
       "--spool"; Filename.concat dir "spool"; "--log"; Filename.concat dir "log" |]
    env Unix.stdin Unix.stdout Unix.stderr

let live_daemons : int list ref = ref []

let rec connect_retry address deadline =
  match Client.connect address with
  | c -> c
  | exception Unix.Unix_error _ when now () < deadline ->
    Unix.sleepf 0.002;
    connect_retry address deadline

let stop_daemon pid address =
  (try
     Client.with_connection ~timeout:10. address (fun c -> ignore (Client.call c Protocol.Shutdown))
   with _ -> (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ();
  live_daemons := List.filter (( <> ) pid) !live_daemons

let reply_outputs = function
  | Protocol.Sim_done r -> Ok r
  | Protocol.Error_resp e -> Error e.Protocol.ei_message
  | _ -> Error "unexpected response"

let gsimd_mixed ~cli ~run_dir ~seed ~seconds ~trace =
  Unix.chdir run_dir;
  let st = Random.State.make [| seed; 0x95d |] in
  let pool =
    Array.init pool_size (fun i -> (chain_design ((seed * 1000) + i), Random.State.int st 1_000_000))
  in
  let fresh_offset = Random.State.int st fresh_every in
  let fresh k = (chain_design ((seed * 1000) + 100_000 + k), Random.State.int st 1_000_000) in
  (* Set-up: spawn to the first reply, on a fresh daemon each time. *)
  let reps = 15 in
  let spawn i =
    let dir = Printf.sprintf "gsimd-%d" i in
    let address = Protocol.Unix_sock (Filename.concat dir "d.sock") in
    let t0 = now () in
    let pid = spawn_daemon ~cli ~dir in
    live_daemons := pid :: !live_daemons;
    let c = connect_retry address (now () +. 30.) in
    let design, poke = pool.(0) in
    let r = Client.call c (sim_job ~design ~poke) in
    let dt = now () -. t0 in
    Client.close c;
    (match reply_outputs r with
     | Ok _ -> ()
     | Error m ->
       failed := !failed + 1;
       check false ("first job: " ^ m));
    if i < reps - 1 then stop_daemon pid address;
    (dt, (pid, address, dt))
  in
  let setups = calibrated_reps reps spawn in
  put "setup_s" (median (List.map fst setups));
  put "raw.setup_s" (median (List.map (fun (_, (_, _, dt)) -> dt) setups));
  let _, (pid, address, _) = List.nth setups (reps - 1) in
  (* Warm the plan cache with the repeat pool; fresh designs miss it. *)
  Array.iter
    (fun (design, poke) ->
      Client.with_connection address (fun c -> ignore (Client.call c (sim_job ~design ~poke))))
    pool;
  (* Closed loop: 2 connections, each sends its next job when the
     previous reply arrives.  Every ~1 s both pause for a kernel run. *)
  let lock = Mutex.create () in
  let next_job = ref 0 and in_flight = ref 0 and paused = ref false and stop = ref false in
  let cond = Condition.create () in
  let replies = Hashtbl.create 64 in
  let slice_lat = ref [] and hits = ref 0 and misses = ref 0 in
  (* Called once per job index, in order, under [lock]. *)
  let job_for k =
    if k mod fresh_every = fresh_offset then (`Fresh k, fresh k)
    else
      let i = Random.State.int st pool_size in
      (`Pool i, pool.(i))
  in
  let rec worker c =
    Mutex.lock lock;
    while !paused && not !stop do
      Condition.wait cond lock
    done;
    if !stop then Mutex.unlock lock
    else begin
      let k = !next_job in
      let tag, (design, poke) = job_for k in
      incr next_job;
      incr in_flight;
      Mutex.unlock lock;
      let t0 = now () in
      let r =
        try Client.call c (sim_job ~design ~poke)
        with e -> Protocol.error_resp (Printexc.to_string e)
      in
      let dt = now () -. t0 in
      Mutex.lock lock;
      (match reply_outputs r with
       | Ok res ->
         slice_lat := dt :: !slice_lat;
         if res.Protocol.sr_cache_hit then incr hits else incr misses;
         Hashtbl.replace replies (tag, design, poke)
           (res.Protocol.sr_outputs
           :: (try Hashtbl.find replies (tag, design, poke) with Not_found -> []))
       | Error msg ->
         (* A failed job misses every latency limit. *)
         failed := !failed + 1;
         slice_lat := infinity :: !slice_lat;
         Printf.eprintf "gsimd job %d failed: %s\n%!" k msg);
      decr in_flight;
      Condition.broadcast cond;
      Mutex.unlock lock;
      worker c
    end
  in
  let m = Calib.meter () in
  let lat = ref [] and raw_lat = ref [] and jobs = ref 0 in
  let threads =
    List.init 2 (fun _ -> Thread.create (fun () -> Client.with_connection address worker) ())
  in
  let t_end = now () +. seconds in
  let finished = ref false in
  while not !finished do
    let t0 = now () in
    Mutex.lock lock;
    paused := false;
    Condition.broadcast cond;
    Mutex.unlock lock;
    Thread.delay 1.0;
    Mutex.lock lock;
    paused := true;
    while !in_flight > 0 do
      Condition.wait cond lock
    done;
    let secs = now () -. t0 in
    let l = !slice_lat in
    slice_lat := [];
    Mutex.unlock lock;
    let n = List.length l in
    jobs := !jobs + n;
    let f = Calib.record m ~work:(float_of_int n) ~secs in
    lat := List.rev_append (List.map (fun dt -> dt /. f *. 1000.) l) !lat;
    raw_lat := List.rev_append (List.map (fun dt -> dt *. 1000.) l) !raw_lat;
    if now () >= t_end && !jobs >= 1000 then finished := true
  done;
  Mutex.lock lock;
  stop := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  List.iter Thread.join threads;
  attempted := !attempted + !jobs;
  (match Client.with_connection address (fun c -> Client.call c Protocol.Status) with
   | Protocol.Status_ok s ->
     note "gsimd: daemon plan cache %d hits / %d misses" s.Protocol.st_cache_hits
       s.Protocol.st_cache_misses
   | _ -> ());
  put "peak_rss_mb" (vm_hwm_mb (string_of_int pid));
  stop_daemon pid address;
  meter_metrics m;
  latency_metrics !lat;
  put "plan_cache.hit_ratio" (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
  note "gsimd: %d jobs (%d plan-cache hits, %d misses), %.2f jobs/s calibrated (raw %.2f), raw p50 %.3f ms tail %.3f ms; kernel %.4g/s, pollution %.4f"
    !jobs !hits !misses (Calib.calibrated_rate m) (Calib.raw_rate m) (median !raw_lat)
    (tail !raw_lat) (Calib.cal_rate m) (Calib.pollution m);
  (* Output check: every distinct design's remote outputs are
     byte-identical to a local run. *)
  let pool_runs = ref [] in
  Hashtbl.iter
    (fun (tag, design, poke) outs ->
      let r = local_run ~design ~poke in
      List.iter
        (fun o ->
          check (o = r.outputs)
            (Printf.sprintf "gsimd: remote outputs differ from a local run (poke %d)" poke))
        outs;
      match tag with
      | `Pool i ->
        pool_runs := (i, design, r) :: !pool_runs;
        exact (Printf.sprintf "seed%d.gsimd.pool%d.counters" seed i) (counters_key r.counters)
      | `Fresh _ -> ())
    replies;
  let pool_runs = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !pool_runs in
  let med f = median (List.map (fun (_, _, r) -> f r) pool_runs) in
  if trace then begin
    let _, _, r0 = List.hd pool_runs in
    activity_metrics r0.counters ~total_nodes:r0.total_nodes;
    replay_pipeline r0.config r0.source.Compile.circuit ~marked:[] r0.plan;
    put "compile.prepare_s" (med (fun r -> r.prepare_s));
    put "compile.realize_s" (med (fun r -> r.realize_s));
    put "firrtl.parse_s" (med (fun r -> r.parse_s));
    put "firrtl.mb_per_s"
      (median (List.map (fun (_, d, r) -> float_of_int (String.length d) /. 1e6 /. r.parse_s) pool_runs));
    (* Client-side codec cost of a pool job and its reply. *)
    let design, poke = pool.(0) in
    let req = sim_job ~design ~poke in
    let reply =
      Protocol.Sim_done
        {
          Protocol.sr_engine = "gsim";
          sr_cycles = job_cycles;
          sr_halted = false;
          sr_outputs = List.hd (Hashtbl.find replies (`Pool 0, design, poke));
          sr_cache_hit = true;
          sr_compile_seconds = 0.;
          sr_preemptions = 0;
        }
    in
    let bytes = Protocol.encode_response reply in
    let enc = List.init 200 (fun _ -> snd (time (fun () -> Protocol.encode_request req))) in
    let dec = List.init 200 (fun _ -> snd (time (fun () -> Protocol.decode_response bytes))) in
    put "protocol.encode_us" (median enc *. 1e6);
    put "protocol.decode_us" (median dec *. 1e6);
    (* What a plan-cache hit costs in the client's latency beyond the
       realize, run and codec the benchmark can time itself. *)
    put "daemon.overhead_ms"
      (median !raw_lat
      -. ((med (fun r -> r.realize_s) +. med (fun r -> r.run_s) +. median enc +. median dec) *. 1000.))
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

(* +infinity is a latency past every limit (failed jobs); NaN is a
   defect of the run. *)
let json_number name v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else if v > 0. then "1e300"
  else begin
    check false (name ^ " was not measured");
    "0"
  end

let main_run args =
  let get k d = match List.assoc_opt k args with Some v -> v | None -> d in
  let workload = get "--workload" "" in
  let seed = int_of_string (get "--seed" "1") in
  let seconds = float_of_string (get "--seconds" "10") in
  let trace = get "--trace" "0" = "1" in
  (* Absolute: gsimd-mixed changes directory. *)
  let absolute p = if p = "" || not (Filename.is_relative p) then p else Filename.concat (Sys.getcwd ()) p in
  let cli = absolute (get "--cli" "") in
  let state = absolute (get "--state" "") in
  if state = "" then failwith "--state is required";
  mkdir_p state;
  let run_dir = Filename.concat state (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p run_dir;
  (* The record is per build of the program: a change that legitimately
     moves a counter starts a fresh record. *)
  let build_id = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  exact_load (Filename.concat state (Printf.sprintf "exact-%s-%s.txt" workload build_id));
  Tracer.enabled := trace;
  let cleanup () =
    List.iter (fun pid -> try Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid) with _ -> ()) !live_daemons;
    Unix.chdir state;
    rm_rf run_dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      (match workload with
       | "boom-steady" -> boom_steady ~state ~seconds ~trace
       | "rocket-cold" -> rocket_cold ~run_dir ~seconds ~trace
       | "stucore-faults" -> stucore_faults ~seed ~seconds ~trace
       | "gsimd-mixed" ->
         if cli = "" then failwith "--cli is required for gsimd-mixed";
         gsimd_mixed ~cli ~run_dir ~seed ~seconds ~trace
       | w -> failwith ("unknown workload " ^ w));
      exact_save ());
  if trace then
    Tracer.write_chrome (Filename.concat state (Printf.sprintf "trace-%s-seed%d.json" workload seed));
  let names = if trace then layer_metrics else end_to_end_metrics in
  let body =
    List.map
      (fun (name, unit) ->
        let v = try Hashtbl.find values name with Not_found -> 0. in
        note "  %-34s %18.6f %s" name v unit;
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number name v) unit)
      names
  in
  List.iter (fun p -> Printf.eprintf "check failed: %s\n%!" p) (List.rev !problems);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = []) (max 1 !attempted) !failed (String.concat ", " body)

let () =
  let rec pairs = function
    | k :: v :: rest -> (k, v) :: pairs rest
    | _ -> []
  in
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> main_run (pairs rest)
  | _ :: "setup" :: rest ->
    let args = pairs rest in
    Tracer.enabled := List.assoc_opt "--trace" args = Some "1";
    child_setup (match List.assoc_opt "--design" args with Some d -> d | None -> "boom")
  | _ ->
    prerr_endline "usage: gsbench.exe run --workload W --seed N --seconds S --trace 0|1 --cli PATH --state DIR";
    exit 2
