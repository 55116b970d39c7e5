(* gsim — command-line driver.

   Subcommands:
     stats        IR statistics before and after optimization, per-pass effect
     emit         compile a design and emit a standalone C simulation unit
     emit-firrtl  re-emit a design as flat FIRRTL (optionally optimized)
     sim          simulate a design with pokes from the command line
     run          run a built-in workload on a built-in processor design
     cov          coverage: collect from runs, merge databases, render reports
     fault        fault injection: run campaigns, merge shards, render reports
     fuzz         differential fuzzing: run, replay, report, merge
     equiv        random-stimulus equivalence check of two designs
     profile      the hottest supernodes of a design/workload pair
     ckpt         print the newest recoverable generation of a checkpoint store
     serve        run the gsimd job daemon
     remote       submit sim/campaign/fuzz/cov jobs to gsimd; status, shutdown

   `sim`, `fault campaign`, `fuzz run` and `cov collect` and their
   `remote` twins share one job spec per kind: one term builds the
   Protocol job record, the same Worker body runs it (in-process or on
   the daemon), and one printer renders either result. *)

open Cmdliner
module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
module Pipeline = Gsim_passes.Pipeline
module Pass = Gsim_passes.Pass
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core
module Programs = Gsim_designs.Programs
module Gsim = Gsim_core.Gsim
module Emit = Gsim_emit.Emit
module Cov_db = Gsim_coverage.Db
module Cov_collect = Gsim_coverage.Collect
module Cov_report = Gsim_coverage.Report
module Fault = Gsim_fault.Fault
module Fault_db = Gsim_fault.Db
module Campaign = Gsim_fault.Campaign
module Fault_report = Gsim_fault.Report
module Session = Gsim_resilience.Session
module Incident = Gsim_resilience.Incident
module Fuzz = Gsim_verify.Fuzz
module Fuzz_corpus = Gsim_verify.Corpus
module Compile = Gsim_core.Gsim.Compile
module SP = Gsim_server.Protocol
module Server_client = Gsim_server.Client
module Daemon = Gsim_server.Daemon
module Worker = Gsim_server.Worker

exception Usage of string

let read_text_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* With --json, stdout carries exactly one JSON value; everything else a
   command has to say goes to stderr. *)
let notice ~json line = if json then prerr_endline line else print_endline line

let save_coverage path db =
  let db = if Sys.file_exists path then Cov_db.merge (Cov_db.load path) db else db in
  Cov_db.save path db;
  db

let coverage_line path db =
  Printf.sprintf "coverage: %.1f%% -> %s (%d run(s))"
    (Cov_db.total_percent (Cov_db.summary db)) path db.Cov_db.runs

(* Wrap a compiled simulator with a coverage collector when requested.
   [finish] writes the database, merging into [path] if it already holds
   coverage from earlier runs. *)
let attach_coverage ~json coverage_path (compiled : Gsim.compiled) =
  match coverage_path with
  | None -> (compiled.Gsim.sim, fun () -> ())
  | Some path ->
    let cov, sim = Cov_collect.of_sim ?activity:compiled.Gsim.activity compiled.Gsim.sim in
    (sim, fun () -> notice ~json (coverage_line path (save_coverage path (Cov_collect.db cov))))

(* A built-in design and workload by name. *)
let builtin ?(unknown = "unknown design") design workload =
  match (Designs.by_name design, Programs.by_name workload) with
  | Some d, Some mk -> (d.Designs.build (), mk ())
  | None, _ ->
    failwith
      (Printf.sprintf "%s %S (one of: %s)" unknown design
         (String.concat ", " (List.map (fun d -> d.Designs.design_name) Designs.all)))
  | _, None ->
    failwith
      (Printf.sprintf "unknown workload %S (one of: %s)" workload
         (String.concat ", " Programs.names))

(* Write [text] to [output], or to stdout without one. *)
let write_or_print output text =
  match output with
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None -> print_string text

let level_of_string s =
  match Pipeline.level_of_string s with
  | Some l -> l
  | None -> failwith "unknown optimization level"

(* `gsim cov|fault|fuzz merge`: fold the input databases into one, save
   it, and print [summary inputs merged out]. *)
let merge_cmd ~doc ~docv ~out_doc ~in_doc ~load ~merge ~save ~summary =
  let run out inputs =
    let merged = List.fold_left merge (load (List.hd inputs)) (List.map load (List.tl inputs)) in
    save out merged;
    print_endline (summary (List.length inputs) merged out)
  in
  let out = Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv ~doc:out_doc) in
  let inputs = Arg.(non_empty & pos_all file [] & info [] ~docv ~doc:in_doc) in
  Cmd.v (Cmd.info "merge" ~doc) Term.(const run $ out $ inputs)

(* --- common arguments --------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.fir|FILE.v" ~doc:"FIRRTL or Verilog input file")

let engine_arg =
  Arg.(
    value
    & opt string "gsim"
    & info [ "engine"; "e" ] ~docv:"ENGINE"
        ~doc:"Simulator: gsim, essent, verilator, arcilator, reference")

let threads_arg =
  Arg.(value & opt int 1 & info [ "threads"; "j" ] ~doc:"Threads for the verilator engine")

let level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "opt"; "O" ] ~docv:"LEVEL" ~doc:"Override optimization level (O0..O3)")

let supernode_arg =
  Arg.(
    value & opt int 8
    & info [ "max-supernode" ] ~doc:"Maximum supernode size (the paper's knob)")

let backend_arg =
  Arg.(
    value
    & opt string (Gsim_engine.Eval.to_string Gsim_engine.Eval.default)
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Per-node evaluation backend: auto (the default — native when a C compiler \
           is available and the design is big enough to amortize it, otherwise \
           closures), native (ahead-of-time C compiled to a cached .so; falls back \
           to closures without a C compiler), or closures (specialized closure \
           trees; works everywhere)")

let coverage_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "coverage" ] ~docv:"FILE.cov"
        ~doc:"Collect toggle/node/condition coverage; merges into FILE.cov if it exists")

let design_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DESIGN" ~doc:"Built-in design: stucore|rocket|boom|xiangshan")

let workload_arg =
  Arg.(value & pos 1 string "coremark" & info [] ~docv:"WORKLOAD" ~doc:"Built-in program name")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output")

(* The engine options of every job kind; a typo fails here, before
   anything runs or ships. *)
let engine_opts =
  let make eo_engine eo_threads eo_level eo_max_supernode eo_backend =
    let o = { SP.eo_engine; eo_backend; eo_level; eo_max_supernode; eo_threads } in
    ignore (Worker.config_of_opts o);
    o
  in
  Term.(const make $ engine_arg $ threads_arg $ level_arg $ supernode_arg $ backend_arg)

let pokes_arg =
  Arg.(value & opt_all string []
       & info [ "poke"; "p" ] ~docv:"NAME=VAL"
           ~doc:"Drive an input for the whole run (in a fault campaign: golden and \
                 faulty runs alike)")

(* --- job specs -------------------------------------------------------------
   One term per job kind builds its Protocol record; `gsim X` runs it
   in-process and `gsim remote X` ships it to gsimd, both through the same
   Worker body.  Only the layer around the record differs: local flags
   (VCD, checkpoints, resume, ...) on one side, the transport on the
   other. *)

let sim_job =
  let make file sj_opts sj_cycles sj_pokes =
    { SP.sj_filename = Filename.basename file; sj_design = read_text_file file; sj_opts;
      sj_cycles; sj_pokes; sj_token = None; sj_tenant = None; sj_deadline = 0. }
  in
  let cycles = Arg.(value & opt int 100 & info [ "cycles"; "n" ] ~doc:"Cycles to run") in
  Term.(const make $ file_arg $ engine_opts $ cycles $ pokes_arg)

let campaign_job =
  let make file cj_opts cj_horizon cj_budget cj_random cj_seed cj_models cj_duration
      cj_faults cj_pokes =
    { SP.cj_filename = Filename.basename file; cj_design = read_text_file file; cj_opts;
      cj_horizon; cj_budget; cj_faults; cj_random; cj_seed; cj_duration; cj_models;
      cj_pokes; cj_token = None; cj_tenant = None; cj_deadline = 0. }
  in
  let horizon =
    Arg.(value & opt int Campaign.default_config.Campaign.horizon
         & info [ "cycles"; "n" ] ~docv:"N" ~doc:"Golden-run horizon in cycles")
  in
  let budget =
    Arg.(value & opt int Campaign.default_config.Campaign.budget
         & info [ "budget" ] ~docv:"N" ~doc:"Observation window per fault (watchdog)")
  in
  let nfaults =
    Arg.(value & opt int 0
         & info [ "faults" ] ~docv:"N" ~doc:"Draw N random faults over the design's signals")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random fault-list seed") in
  let models =
    Arg.(value & opt (some string) None
         & info [ "models" ] ~docv:"M,M" ~doc:"Restrict random faults: seu, stuck0, stuck1, word")
  in
  let duration =
    Arg.(value & opt int 1 & info [ "duration" ] ~doc:"Duration of random stuck/word faults")
  in
  let fault_keys =
    Arg.(value & opt_all string []
         & info [ "fault"; "f" ] ~docv:"KEY"
             ~doc:"Inject a specific fault, e.g. cpu.pc#seu:3@120 (repeatable)")
  in
  Term.(const make $ file_arg $ engine_opts $ horizon $ budget $ nfaults $ seed $ models
        $ duration $ fault_keys $ pokes_arg)

let fuzz_job =
  let make fj_seed fj_cases fj_from fj_cycles fj_setups =
    { SP.fj_seed; fj_cases; fj_from; fj_cycles; fj_setups; fj_token = None;
      fj_tenant = None; fj_deadline = 0. }
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Campaign seed; same seed, same cases and repro buckets")
  in
  let cases =
    Arg.(value & opt int 200
         & info [ "cases"; "n" ] ~docv:"N" ~doc:"Number of case indices to explore")
  in
  let from =
    Arg.(value & opt int 0
         & info [ "from" ] ~docv:"I"
             ~doc:"First case index (sharding: disjoint ranges, then fuzz merge)")
  in
  let cycles =
    Arg.(value & opt int Fuzz.default_campaign.Fuzz.cycles
         & info [ "cycles" ] ~docv:"N" ~doc:"Stimulus length per case")
  in
  let setups =
    Arg.(value & opt (some string) None
         & info [ "setups" ] ~docv:"S,S"
             ~doc:"Comma-separated engine+backend subjects (e.g. gsim+closures,gsim+native); \
                   default: all four presets on closures, plus verilator and gsim \
                   on native when a C compiler is available")
  in
  Term.(const make $ seed $ cases $ from $ cycles $ setups)

(* [target] is the design file, or locally also a built-in design name
   (then the record carries no design text). *)
let cov_job target =
  let make path vj_opts vj_cycles vj_pokes =
    { SP.vj_filename = Filename.basename path;
      vj_design = (if Sys.file_exists path then read_text_file path else "");
      vj_opts; vj_cycles; vj_pokes; vj_token = None; vj_tenant = None; vj_deadline = 0. }
  in
  let cycles =
    Arg.(value & opt int 100_000 & info [ "cycles"; "n" ] ~doc:"Cycle budget")
  in
  Term.(const make $ target $ engine_opts $ cycles $ pokes_arg)

let campaign_out_arg =
  Arg.(value & opt string "gsim.fdb"
       & info [ "db"; "o"; "output" ] ~docv:"FILE.fdb"
           ~doc:"Campaign database (appended as faults finish)")

let latent_arg =
  Arg.(value & opt int 0
       & info [ "latent" ] ~docv:"N" ~doc:"List up to N latent faults in the text report")

let cov_out_arg =
  Arg.(value & opt string "gsim.cov"
       & info [ "o"; "output" ] ~docv:"FILE.cov" ~doc:"Coverage database (merged into if present)")

(* --- result printers -------------------------------------------------------
   One printer per result kind, for the local and the remote result alike.
   [fields] are the runner's own JSON fields (local counters, remote cache
   verdicts); [tail] prints the runner's own text lines. *)

let json_with fields obj =
  if fields = "" then obj else String.sub obj 0 (String.length obj - 1) ^ fields ^ "}"

let print_sim ~json ?ran ?(where = "") ?(fields = "") ?(tail = ignore) (r : SP.sim_result) =
  if json then
    Printf.printf "{\"engine\":\"%s\",\"cycles\":%d,\"outputs\":{%s}%s}\n" r.SP.sr_engine
      r.SP.sr_cycles
      (String.concat ","
         (List.map (fun (n, v) -> Printf.sprintf "\"%s\":\"%s\"" n v) r.SP.sr_outputs))
      fields
  else begin
    if r.SP.sr_halted then Printf.printf "$halt asserted at cycle %d\n" r.SP.sr_cycles;
    (match ran with
     | Some n -> Printf.printf "ran %d cycles (to cycle %d) on %s%s\n" n r.SP.sr_cycles
                   r.SP.sr_engine where
     | None -> Printf.printf "ran %d cycles on %s%s\n" r.SP.sr_cycles r.SP.sr_engine where);
    List.iter (fun (n, v) -> Printf.printf "  %-24s = %s\n" n v) r.SP.sr_outputs;
    tail ()
  end

(* A database result: its report object plus [fields] under --json, else
   its text report followed by [tail]. *)
let print_report ~json ?(fields = "") ?(tail = ignore) json_report text_report =
  if json then print_endline (json_with fields (json_report ()))
  else (print_string (text_report ()); tail ())

let print_campaign ~json ~latent ~out ~total ?fields ?tail db =
  print_report ~json ?fields ?tail (fun () -> Fault_report.to_json db) (fun () ->
      Fault_report.to_string ~latent db
      ^ Printf.sprintf "database: %s (%d of %d fault(s) done)\n" out (Fault_db.count db) total)

let print_fuzz ~json ?fields ?tail db =
  print_report ~json ?fields ?tail (fun () -> Fuzz.report_json db) (fun () -> Fuzz.report_text db)

(* Coverage results merge into [out] like every other coverage run. *)
let print_cov ~json ~out ?fields ?tail db =
  let db = save_coverage out db in
  print_report ~json ?fields ?tail (fun () -> Cov_report.to_json db) (fun () ->
      coverage_line out db ^ "\n")

(* --- resilience ----------------------------------------------------------
   The flags shared by `sim` and `run` that route execution through a
   resilient session (lib/resilience): crash-safe periodic checkpoints,
   shadow lockstep verification, wall-clock watchdog, and graceful
   degradation onto the reference engine. *)

let ck_every_arg =
  Arg.(value & opt (some int) None
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Persist a crash-safe checkpoint every N cycles (needs --checkpoint-dir)")

let ck_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Directory for the checkpoint ring (and incident reports)")

let ck_ring_arg =
  Arg.(value & opt int 3
       & info [ "checkpoint-ring" ] ~docv:"K"
           ~doc:"Checkpoint generations to keep (0 keeps everything)")

let keyframe_arg =
  Arg.(value & opt int 16
       & info [ "keyframe-every" ] ~docv:"K"
           ~doc:"Write a full keyframe after at most K delta checkpoints (0 writes \
                 every checkpoint full; default 16)")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Restore the newest valid checkpoint from --checkpoint-dir before running")

let shadow_arg =
  Arg.(value & opt (some int) None
       & info [ "shadow-stride" ] ~docv:"N"
           ~doc:"Every N cycles, re-execute the window on the reference engine and \
                 compare architectural state; divergences are bisected to a minimal \
                 replayable incident and the session degrades onto the reference engine")

let shadow_window_arg =
  Arg.(value & opt (some int) None
       & info [ "shadow-window" ] ~docv:"W"
           ~doc:"Sampled verification: re-execute only the last W cycles of each \
                 shadow stride (default: the whole stride)")

let watchdog_arg =
  Arg.(value & opt (some float) None
       & info [ "watchdog" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per step batch on the primary engine; a trip rolls \
                 back to the last verified checkpoint and degrades")

let inject_arg =
  Arg.(value & opt_all string []
       & info [ "inject" ] ~docv:"KEY"
           ~doc:"Seed a primary-only fault (same KEY syntax as fault campaigns, e.g. \
                 r#stuck1:0+100@50) — exercises detection and degradation")

let incident_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "incident-dir" ] ~docv:"DIR"
           ~doc:"Where incident reports are written (default: --checkpoint-dir)")

(* The resilience flags of `sim` and `run` as one term: the session
   configuration (None when no flag asks for one), --resume, and the
   --inject keys. *)
let session_term =
  let make checkpoint_every checkpoint_dir ring keyframe_every resume shadow_stride
      shadow_window watchdog_seconds incident_dir injects =
    let wants =
      checkpoint_every <> None || checkpoint_dir <> None || resume || shadow_stride <> None
      || watchdog_seconds <> None || incident_dir <> None || injects <> []
    in
    if not wants then (None, false, [])
    else begin
      let fail_if cond msg = if cond then raise (Usage msg) in
      let positive flag = function
        | Some n -> fail_if (n <= 0) (flag ^ " must be positive")
        | None -> ()
      in
      fail_if (resume && checkpoint_dir = None) "--resume requires --checkpoint-dir";
      fail_if (checkpoint_every <> None && checkpoint_dir = None)
        "--checkpoint-every requires --checkpoint-dir";
      positive "--checkpoint-every" checkpoint_every;
      fail_if (keyframe_every < 0) "--keyframe-every must be >= 0";
      positive "--shadow-stride" shadow_stride;
      positive "--shadow-window" shadow_window;
      fail_if (shadow_window <> None && shadow_stride = None)
        "--shadow-window requires --shadow-stride";
      ( Some
          { Session.checkpoint_every; checkpoint_dir; ring; keyframe_every; shadow_stride;
            shadow_window; watchdog_seconds; incident_dir },
        resume,
        injects )
    end
  in
  Term.(const make $ ck_every_arg $ ck_dir_arg $ ck_ring_arg $ keyframe_arg $ resume_arg
        $ shadow_arg $ shadow_window_arg $ watchdog_arg $ incident_dir_arg $ inject_arg)

(* --inject faults run on the primary sim only (a degraded session leaves
   them behind). *)
let schedule_injections circuit t faults =
  List.iter
    (fun ((f : Fault.t), (n : Circuit.node)) ->
      let id = n.Circuit.id in
      let register = Circuit.register_of_node circuit id <> None in
      Session.inject_at t ~cycle:f.Fault.cycle (fun sim ->
          Fault.inject sim ~register ~width:n.Circuit.width id f);
      Option.iter
        (fun c -> Session.inject_at t ~cycle:c (fun sim -> sim.Sim.release id))
        (Fault.release_cycle ~register f))
    faults

(* Run [f] on a resilient session over [circuit] with the --inject faults
   scheduled and, with --resume, the newest checkpoint restored; [f] also
   gets where the session resumed, if it did. *)
let with_session ~json scfg config circuit injects resume f =
  let resolved =
    List.map
      (fun key ->
        let f = Fault.of_key key in
        match Circuit.find_node circuit f.Fault.target with
        | Some n -> (f, n)
        | None -> failwith (Printf.sprintf "inject: no node named %S" f.Fault.target))
      injects
  in
  let forcible = List.map (fun (_, (n : Circuit.node)) -> n.Circuit.id) resolved in
  let t = Session.create ~forcible scfg config circuit in
  Fun.protect ~finally:(fun () -> Session.destroy t) @@ fun () ->
  schedule_injections circuit t resolved;
  let resumed = if resume then Session.resume t else None in
  Option.iter
    (fun (c, path) -> if not json then Printf.printf "resumed at cycle %d from %s\n" c path)
    resumed;
  f t resumed

let print_session_summary t (o : Session.outcome) =
  if o.Session.checkpoints_written > 0 then
    Printf.printf "checkpoints: %d written\n" o.Session.checkpoints_written;
  if o.Session.windows_verified > 0 then
    Printf.printf "shadow: %d window(s) verified\n" o.Session.windows_verified;
  List.iter
    (fun inc -> Printf.printf "incident: %s\n" (Incident.summary inc))
    o.Session.incidents;
  if o.Session.degraded then
    Printf.printf "degraded: session completed on %s\n" (Session.active_name t)

let session_json_fields (o : Session.outcome) resumed =
  Printf.sprintf
    "\"resumed_at\":%s,\"final_cycle\":%d,\"checkpoints\":%d,\"windows_verified\":%d,\"incidents\":%d,\"degraded\":%b"
    (match resumed with Some (c, _) -> string_of_int c | None -> "null")
    o.Session.final_cycle o.Session.checkpoints_written o.Session.windows_verified
    (List.length o.Session.incidents)
    o.Session.degraded

(* --- stats --------------------------------------------------------------- *)

let stats_cmd =
  let run file =
    let { Compile.circuit; halt; _ } = Compile.source_of_file file in
    let s = Circuit.stats circuit in
    Printf.printf "design   : %s\n" (Circuit.name circuit);
    Printf.printf "unoptimized: %s\n" (Format.asprintf "%a" Circuit.pp_stats s);
    let c = Circuit.copy circuit in
    let outcomes = Pipeline.optimize ~level:Pipeline.O3 c in
    ignore (Circuit.compact c);
    Printf.printf "after -O3  : %s\n" (Format.asprintf "%a" Circuit.pp_stats (Circuit.stats c));
    Printf.printf "%-10s %7s %9s %8s %9s\n" "pass" "applied" "rewrites" "nodes" "seconds";
    List.iter
      (fun t ->
        Printf.printf "%-10s %7d %9d %+8d %9.4f\n" t.Pass.total_pass t.Pass.applications
          t.Pass.total_rewrites t.Pass.node_delta t.Pass.total_seconds)
      (Pass.totals outcomes);
    if halt <> None then print_endline "design contains stop(): $halt output synthesized"
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Show IR statistics before and after optimization, and per pass its applications, \
          rewrites, node delta and seconds")
    Term.(const run $ file_arg)

(* --- emit ---------------------------------------------------------------- *)

let emit_cmd =
  let run file engine level max_supernode output =
    let circuit = (Compile.source_of_file file).Compile.circuit in
    let config =
      Gsim.config_of_names ~engine ~threads:1 ~level ~max_supernode
        ~backend:(Gsim_engine.Eval.to_string Gsim_engine.Eval.default)
    in
    let r = Gsim.emit_cpp config circuit in
    write_or_print output r.Emit.source;
    Printf.eprintf "emission: %.3fs, code %d B, data %d B, memories %d B\n"
      r.Emit.emission_seconds r.Emit.code_bytes r.Emit.data_bytes r.Emit.mem_bytes
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE.c")
  in
  Cmd.v (Cmd.info "emit" ~doc:"Emit C simulation code")
    Term.(const run $ file_arg $ engine_arg $ level_arg $ supernode_arg $ output)

(* --- emit-firrtl ----------------------------------------------------------- *)

let emit_fir_cmd =
  let run file level output =
    let circuit = (Compile.source_of_file file).Compile.circuit in
    Option.iter (fun l -> ignore (Pipeline.optimize ~level:(level_of_string l) circuit)) level;
    let r = Gsim_firrtl.Firrtl_emit.emit circuit in
    write_or_print output r.Gsim_firrtl.Firrtl_emit.text;
    List.iter
      (Printf.eprintf "warning: register %s lost its nonzero initial value\n")
      r.Gsim_firrtl.Firrtl_emit.lossy_inits
  in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE.fir") in
  Cmd.v
    (Cmd.info "emit-firrtl" ~doc:"Re-emit a design as flat FIRRTL (optionally optimized)")
    Term.(const run $ file_arg $ level_arg $ output)

(* --- sim ----------------------------------------------------------------- *)

let sim_cmd =
  let save_checkpoint ~json path ck =
    Gsim_engine.Checkpoint.save path ck;
    notice ~json ("checkpoint written to " ^ path)
  in
  (* The resilient path: the whole run goes through a Session, which owns
     instantiation (primary and fallback must share the kept-register
     set), periodic persistence, shadow verification, and degradation. *)
  let run_resilient (source : Compile.source) config scfg resume injects
      (job : SP.sim_job) save_ck json =
    let circuit = source.Compile.circuit in
    with_session ~json scfg config circuit injects resume @@ fun t resumed ->
    if resume && resumed = None && not json then print_endline "no checkpoint to resume from";
    let pokes = Sim.parse_pokes circuit job.SP.sj_pokes in
    let o = Session.run ~stimulus:(fun _ -> pokes) ?halt:source.Compile.halt t job.SP.sj_cycles in
    print_sim ~json ~ran:o.Session.ran ~fields:("," ^ session_json_fields o resumed)
      ~tail:(fun () -> print_session_summary t o)
      { SP.sr_engine = Session.active_name t; sr_cycles = o.Session.final_cycle;
        sr_halted = o.Session.halted; sr_outputs = Sim.outputs (Session.sim t) circuit;
        sr_cache_hit = false; sr_compile_seconds = 0.; sr_preemptions = 0 };
    Option.iter (fun path -> save_checkpoint ~json path (Session.checkpoint t)) save_ck
  in
  let run job vcd_path save_ck restore_ck coverage json (session, resume, injects) =
    let source = Compile.source_of_string ~filename:job.SP.sj_filename job.SP.sj_design in
    let config = Worker.config_of_opts job.SP.sj_opts in
    match session with
    | Some scfg ->
      if coverage <> None || vcd_path <> None || restore_ck <> None then
        raise
          (Usage
             "--coverage/--vcd/--restore-checkpoint cannot be combined with resilience \
              options (use --checkpoint-dir/--resume instead)");
      run_resilient source config scfg resume injects job save_ck json
    | None ->
    let compiled = Compile.realize (Compile.prepare config source) in
    let sim, finish_coverage = attach_coverage ~json coverage compiled in
    let sim, close_vcd =
      match vcd_path with
      | Some path -> Gsim_engine.Vcd.to_file path sim
      | None -> (sim, fun () -> ())
    in
    Option.iter
      (fun path -> Gsim_engine.Checkpoint.restore sim (Gsim_engine.Checkpoint.load path))
      restore_ck;
    let r = Worker.run_sim_job ?halt:source.Compile.halt config source.Compile.circuit sim job in
    let ctr = sim.Sim.counters () in
    print_sim ~json ~fields:(",\"counters\":" ^ Counters.to_json ctr)
      ~tail:(fun () -> Printf.printf "counters: %s\n" (Format.asprintf "%a" Counters.pp ctr))
      r;
    finish_coverage ();
    Option.iter
      (fun path -> save_checkpoint ~json path (Gsim_engine.Checkpoint.capture sim)) save_ck;
    close_vcd ();
    compiled.Gsim.destroy ()
  in
  let vcd =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE.vcd" ~doc:"Dump waveforms")
  in
  let save_ck =
    Arg.(value & opt (some string) None
         & info [ "save-checkpoint" ] ~docv:"FILE" ~doc:"Write final state as a checkpoint")
  in
  let restore_ck =
    Arg.(value & opt (some string) None
         & info [ "restore-checkpoint" ] ~docv:"FILE" ~doc:"Start from a checkpoint")
  in
  Cmd.v (Cmd.info "sim" ~doc:"Simulate a FIRRTL design")
    Term.(const run $ sim_job $ vcd $ save_ck $ restore_ck $ coverage_arg $ json_arg
          $ session_term)

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  (* One result line or object for the plain and the resilient run;
     [fields] are each one's own JSON fields, [line] its text summary. *)
  let print_run ~json design (prog : Gsim_designs.Isa.program) ~engine ~cycles ~instructions
      ~seconds ~fields ~line =
    if json then
      Printf.printf
        "{\"design\":\"%s\",\"workload\":\"%s\",\"engine\":\"%s\",\"cycles\":%d,\"instructions\":%d,\"seconds\":%.6f%s}\n"
        design prog.Gsim_designs.Isa.prog_name engine cycles instructions seconds fields
    else Printf.printf "%s on %s: %s\n" prog.Gsim_designs.Isa.prog_name engine line
  in
  let run_resilient core prog design config scfg resume injects max_cycles json =
    with_session ~json scfg config core.Stu_core.circuit injects resume @@ fun t resumed ->
    (* A fresh session loads the program; a resumed one gets its memory
       image (and any stores the program already did) from the
       checkpoint. *)
    if resumed = None then Designs.load_program (Session.sim t) core.Stu_core.h prog;
    let t0 = Unix.gettimeofday () in
    let o = Session.run ~halt:core.Stu_core.h.Stu_core.halt t max_cycles in
    let seconds = Unix.gettimeofday () -. t0 in
    let instructions = Sim.peek_int (Session.sim t) core.Stu_core.h.Stu_core.instret in
    print_run ~json design prog ~engine:(Session.active_name t) ~cycles:o.Session.final_cycle
      ~instructions ~seconds ~fields:("," ^ session_json_fields o resumed)
      ~line:
        (Printf.sprintf "%s at cycle %d, %d instructions in %.3fs"
           (if o.Session.halted then "halted" else "cycle budget exhausted")
           o.Session.final_cycle instructions seconds);
    if not json then print_session_summary t o
  in
  let run design workload opts max_cycles coverage json (session, resume, injects) =
    let core, prog = builtin design workload in
    if not json then Printf.printf "%s\n" (Designs.stats_line core.Stu_core.circuit);
    let config = Worker.config_of_opts opts in
    match session with
    | Some scfg ->
      if coverage <> None then
        raise (Usage "--coverage cannot be combined with resilience options");
      run_resilient core prog design config scfg resume injects max_cycles json
    | None ->
    let compiled = Gsim.instantiate config core.Stu_core.circuit in
    let sim, finish_coverage = attach_coverage ~json coverage compiled in
    Designs.load_program sim core.Stu_core.h prog;
    (* Write coverage even when the workload exhausts its cycle budget. *)
    Fun.protect ~finally:finish_coverage @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let cycles = Designs.run_program ~max_cycles sim core.Stu_core.h in
    let seconds = Unix.gettimeofday () -. t0 in
    let ctr = sim.Sim.counters () in
    let af =
      Counters.activity_factor ctr ~total_nodes:(Circuit.node_count core.Stu_core.circuit)
    in
    let instructions = Sim.peek_int sim core.Stu_core.h.Stu_core.instret in
    let hz = float_of_int cycles /. seconds in
    print_run ~json design prog ~engine:config.Gsim.config_name ~cycles ~instructions ~seconds
      ~fields:
        (Printf.sprintf ",\"hz\":%.0f,\"activity_factor\":%.6f,\"counters\":%s" hz af
           (Counters.to_json ctr))
      ~line:
        (Printf.sprintf "%d cycles, %d instructions in %.3fs (%.0f Hz, af %.2f%%)" cycles
           instructions seconds hz (100. *. af));
    compiled.Gsim.destroy ()
  in
  let max_cycles =
    Arg.(value & opt int 2_000_000 & info [ "max-cycles" ] ~doc:"Abort if no halt")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a built-in workload on a built-in design")
    Term.(const run $ design_arg $ workload_arg $ engine_opts $ max_cycles $ coverage_arg $ json_arg
          $ session_term)

(* --- cov ----------------------------------------------------------------- *)

(* gsim cov collect TARGET [WORKLOAD] -o FILE.cov
   TARGET is either a design file (.fir/.v) driven with --poke for a fixed
   cycle count — the same job `gsim remote cov` ships — or a built-in
   design name running a built-in workload. *)
let cov_collect_cmd =
  let run target workload (job : SP.cov_job) out json =
    let config = Worker.config_of_opts job.SP.vj_opts in
    let db =
      if Sys.file_exists target then begin
        let source = Compile.source_of_string ~filename:job.SP.vj_filename job.SP.vj_design in
        let compiled = Compile.realize (Compile.prepare config source) in
        Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
        Worker.collect_coverage ?halt:source.Compile.halt compiled source.Compile.circuit job
      end
      else begin
        let core, prog = builtin ~unknown:"no design file or built-in design" target workload in
        let compiled = Gsim.instantiate config core.Stu_core.circuit in
        Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
        let cov, sim = Cov_collect.of_sim ?activity:compiled.Gsim.activity compiled.Gsim.sim in
        Designs.load_program sim core.Stu_core.h prog;
        (* An exhausted cycle budget still yields valid coverage. *)
        (try ignore (Designs.run_program ~max_cycles:job.SP.vj_cycles sim core.Stu_core.h)
         with Failure _ -> ());
        Cov_collect.db cov
      end
    in
    print_cov ~json ~out db
  in
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DESIGN|FILE.fir" ~doc:"Built-in design name or design file")
  in
  Cmd.v
    (Cmd.info "collect" ~doc:"Run a design and collect coverage into a database file")
    Term.(const run $ target $ workload_arg $ cov_job target $ cov_out_arg $ json_arg)

let cov_merge_cmd =
  merge_cmd ~doc:"Merge coverage databases from independent runs" ~docv:"FILE.cov"
    ~out_doc:"Merged output database" ~in_doc:"Input databases" ~load:Cov_db.load
    ~merge:Cov_db.merge ~save:Cov_db.save ~summary:(fun n db out ->
      Printf.sprintf "merged %d database(s): %d run(s), %d cycles, %.1f%% -> %s" n
        db.Cov_db.runs db.Cov_db.total_cycles (Cov_db.total_percent (Cov_db.summary db)) out)

let cov_report_cmd =
  let run file json uncovered =
    let db = Cov_db.load file in
    if json then print_endline (Cov_report.to_json ~uncovered:(uncovered > 0) db)
    else print_string (Cov_report.to_string ~uncovered db)
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cov" ~doc:"Coverage database")
  in
  let uncovered =
    Arg.(value & opt int 0
         & info [ "uncovered"; "u" ] ~docv:"N" ~doc:"List up to N uncovered points (text mode)")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render a coverage database as a hierarchical report")
    Term.(const run $ file $ json_arg $ uncovered)

let cov_cmd =
  Cmd.group
    (Cmd.info "cov" ~doc:"Coverage: collect from runs, merge databases, render reports")
    [ cov_collect_cmd; cov_merge_cmd; cov_report_cmd ]

(* --- fault --------------------------------------------------------------- *)

let fault_campaign_cmd =
  let run job db_path resume stop_after latent golden_dir json =
    (* The on-disk database is the crash-safety mechanism: records are
       appended (and flushed) as they are produced, so a killed campaign
       leaves a loadable prefix that --resume skips. *)
    let start ~design ~horizon =
      let partial =
        if resume && Sys.file_exists db_path then Fault_db.load ~lenient:true db_path
        else Fault_db.create ~design ~horizon ()
      in
      Fault_db.init_file db_path partial;
      partial
    in
    let progress d total = if not json then Printf.eprintf "\r[%d/%d]%!" d total in
    let db, total =
      Worker.run_campaign_job ~start ~on_record:(Fault_db.append_record db_path) ~progress
        ?stop_after ?golden_dir:(Option.map (fun dir _ _ -> dir) golden_dir) job
    in
    if not json then Printf.eprintf "\r%!";
    (* Canonical sorted rewrite: an interrupted-then-resumed campaign ends
       with a byte-identical database to an uninterrupted one. *)
    Fault_db.save db_path db;
    print_campaign ~json ~latent ~out:db_path ~total db
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ] ~doc:"Skip faults already classified in the database")
  in
  let stop_after =
    Arg.(value & opt (some int) None
         & info [ "stop-after" ] ~docv:"N" ~doc:"Classify at most N faults, then exit (sharding)")
  in
  let golden_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Persist the golden run's checkpoints, output trace and SEU samples \
                   here (crash-safe); a resumed campaign reuses them instead of \
                   re-simulating the golden pass")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a fault-injection campaign against a golden run of the design")
    Term.(const run $ campaign_job $ campaign_out_arg $ resume $ stop_after $ latent_arg
          $ golden_dir $ json_arg)

let fault_merge_cmd =
  merge_cmd ~doc:"Merge fault-campaign shards over disjoint fault lists" ~docv:"FILE.fdb"
    ~out_doc:"Merged output database" ~in_doc:"Shard databases"
    ~load:(fun p -> Fault_db.load p) ~merge:Fault_db.merge ~save:Fault_db.save
    ~summary:(fun n db out ->
      let s = Fault_db.summary db in
      Printf.sprintf "merged %d shard(s): %d fault(s), %.1f%% coverage -> %s" n
        s.Fault_db.total (Fault_db.coverage_percent s) out)

let fault_report_cmd =
  let run file json latent per_fault =
    let db = Fault_db.load file in
    if json then print_endline (Fault_report.to_json ~faults:per_fault db)
    else print_string (Fault_report.to_string ~latent db)
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.fdb" ~doc:"Campaign database")
  in
  let latent =
    Arg.(value & opt int 0
         & info [ "latent" ] ~docv:"N" ~doc:"List up to N latent faults (text mode)")
  in
  let per_fault =
    Arg.(value & flag & info [ "faults" ] ~doc:"Include the per-fault array (JSON mode)")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render a fault-campaign database")
    Term.(const run $ file $ json_arg $ latent $ per_fault)

let fault_cmd =
  Cmd.group
    (Cmd.info "fault"
       ~doc:"Fault injection: run campaigns, merge shards, render reports")
    [ fault_campaign_cmd; fault_merge_cmd; fault_report_cmd ]

(* --- fuzz ---------------------------------------------------------------- *)

let fuzz_dir_arg =
  Arg.(value & opt string "fuzz-out"
       & info [ "dir"; "d" ] ~docv:"DIR"
           ~doc:"Campaign directory: fuzz.db corpus plus fuzz-NNN.rpt repros")

let fuzz_inject_arg =
  Arg.(value & flag
       & info [ "inject-miscompile" ]
           ~doc:"CI canary: enable the test-only Simplify constant-folding \
                 miscompile; the campaign must catch, shrink and bisect it")

let fuzz_run_cmd =
  let run job dir seconds watchdog shrink_budget resume inject fail_on_find json =
    let campaign =
      { (Worker.fuzz_campaign ~dir job) with
        Fuzz.seconds;
        watchdog;
        shrink_budget;
        inject_miscompile = inject }
    in
    let result = Fuzz.run ~resume ~log:(notice ~json) campaign in
    print_fuzz ~json
      ~tail:(fun () ->
        Printf.printf "this run: %d case(s) executed, %d skipped%s\n" result.Fuzz.ran
          result.Fuzz.skipped
          (if result.Fuzz.out_of_time then " (time budget reached)" else ""))
      result.Fuzz.db;
    if fail_on_find && Fuzz_corpus.failures result.Fuzz.db <> [] then exit 1
  in
  let seconds =
    Arg.(value & opt (some float) None
         & info [ "seconds" ] ~docv:"S" ~doc:"Wall-clock budget; stop early when exceeded")
  in
  let watchdog =
    Arg.(value & opt float Fuzz.default_campaign.Fuzz.watchdog
         & info [ "watchdog" ] ~docv:"S" ~doc:"Per-subject hang watchdog, seconds")
  in
  let shrink_checks =
    Arg.(value & opt int Fuzz.default_campaign.Fuzz.shrink_budget
         & info [ "shrink-checks" ] ~docv:"N" ~doc:"Re-validation budget for the delta-debugging shrinker")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ] ~doc:"Skip cases already recorded in DIR/fuzz.db")
  in
  let fail_on_find =
    Arg.(value & flag
         & info [ "fail-on-find" ] ~doc:"Exit 1 if the corpus holds any failure (CI gate)")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a differential fuzz campaign over the engine/backend matrix")
    Term.(const run $ fuzz_job $ fuzz_dir_arg $ seconds $ watchdog $ shrink_checks $ resume
          $ fuzz_inject_arg $ fail_on_find $ json_arg)

let fuzz_replay_cmd =
  let run file inject watchdog =
    let r = Fuzz.replay ~watchdog ~inject_miscompile:inject file in
    let repro = r.Fuzz.rp_repro in
    Printf.printf "repro:    %s (seed %d case %d, %s, %s)\n" file
      repro.Gsim_verify.Repro.seed repro.Gsim_verify.Repro.case
      repro.Gsim_verify.Repro.subject repro.Gsim_verify.Repro.culprit_detail;
    Printf.printf "expected: %s\n" r.Fuzz.rp_expected_signature;
    Printf.printf "actual:   %s\n" r.Fuzz.rp_actual;
    if r.Fuzz.rp_reproduced then print_endline "REPRODUCED"
    else begin
      print_endline "NOT REPRODUCED";
      exit 1
    end
  in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FUZZ-NNN.RPT" ~doc:"Repro report to replay")
  in
  let watchdog =
    Arg.(value & opt float 10.0 & info [ "watchdog" ] ~docv:"S")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Rebuild a recorded repro and check that its failure signature recurs")
    Term.(const run $ file $ fuzz_inject_arg $ watchdog)

let fuzz_report_cmd =
  let run path json =
    let path =
      if Sys.is_directory path then Filename.concat path "fuzz.db" else path
    in
    print_fuzz ~json (Fuzz_corpus.load ~lenient:true path)
  in
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"DIR|FUZZ.DB" ~doc:"Campaign directory or corpus file")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render a fuzz corpus")
    Term.(const run $ path $ json_arg)

let fuzz_merge_cmd =
  merge_cmd ~doc:"Merge fuzz-campaign shards over disjoint case ranges" ~docv:"FUZZ.DB"
    ~out_doc:"Merged output corpus" ~in_doc:"Shard corpora (same seed, disjoint case ranges)"
    ~load:(fun p -> Fuzz_corpus.load p) ~merge:Fuzz_corpus.merge ~save:Fuzz_corpus.save
    ~summary:(fun n db out ->
      Printf.sprintf "merged %d shard(s): %d case(s), %d failing -> %s" n
        (Fuzz_corpus.count db) (List.length (Fuzz_corpus.failures db)) out)

let fuzz_cmd =
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: campaigns with delta-debugging shrinking and \
             pass-pipeline bisection, replayable repros, crash-safe corpus")
    [ fuzz_run_cmd; fuzz_replay_cmd; fuzz_report_cmd; fuzz_merge_cmd ]

(* --- equiv --------------------------------------------------------------- *)

let equiv_cmd =
  let run file_a file_b cycles seed =
    let ca = (Compile.source_of_file file_a).Compile.circuit in
    let cb = (Compile.source_of_file file_b).Compile.circuit in
    (* Interfaces must match by name. *)
    let ports nodes =
      List.sort compare
        (List.map (fun (n : Circuit.node) -> (n.Circuit.name, n.Circuit.width)) nodes)
    in
    let inputs = ports (Circuit.inputs ca) in
    if inputs <> ports (Circuit.inputs cb) then failwith "designs have different input interfaces";
    let outputs_b = ports (Circuit.outputs cb) in
    let common_observed = List.filter (fun x -> List.mem x outputs_b) (ports (Circuit.outputs ca)) in
    if common_observed = [] then failwith "no common outputs to compare";
    let st = Random.State.make [| seed |] in
    let stimulus =
      Array.init cycles (fun _ ->
          List.map (fun (name, w) -> (name, Bits.random st ~width:w)) inputs)
    in
    let trace c =
      let compiled = Gsim.instantiate Gsim.gsim c in
      let id name = (Option.get (Circuit.find_node c name)).Circuit.id in
      let out =
        Sim.trace compiled.Gsim.sim
          ~observe:(List.map (fun (name, _) -> id name) common_observed)
          ~stimulus:(Array.map (List.map (fun (name, v) -> (id name, v))) stimulus)
      in
      compiled.Gsim.destroy ();
      out
    in
    let ta = trace ca and tb = trace cb in
    let same i = List.equal Bits.equal ta.(i) tb.(i) in
    (match Seq.find (fun i -> not (same i)) (Seq.init cycles Fun.id) with
     | None ->
       Printf.printf "EQUIVALENT over %d random cycles on %d shared outputs (%s)\n" cycles
         (List.length common_observed)
         (String.concat ", " (List.map fst common_observed))
     | Some cycle ->
       Printf.printf "DIVERGED at cycle %d:\n" cycle;
       List.iter2
         (fun (name, _) (va, vb) ->
           if not (Bits.equal va vb) then
             Printf.printf "  %-20s %s vs %s\n" name
               (Format.asprintf "%a" Bits.pp va)
               (Format.asprintf "%a" Bits.pp vb))
         common_observed
         (List.combine ta.(cycle) tb.(cycle));
       exit 1)
  in
  let file_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A.fir|A.v") in
  let file_b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B.fir|B.v") in
  let cycles = Arg.(value & opt int 1000 & info [ "cycles"; "n" ]) in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Random-stimulus equivalence check of two designs (by shared port names)")
    Term.(const run $ file_a $ file_b $ cycles $ seed)

(* --- profile ------------------------------------------------------------- *)

let profile_cmd =
  let run design workload level max_supernode cycles top =
    let core, prog = builtin design workload in
    let level = Option.fold ~none:Pipeline.O3 ~some:level_of_string level in
    ignore (Pipeline.optimize ~level core.Stu_core.circuit);
    let part = Gsim_partition.Partition.gsim core.Stu_core.circuit ~max_size:max_supernode in
    let engine = Gsim_engine.Activity.create core.Stu_core.circuit part in
    let sim = Gsim_engine.Activity.sim engine in
    Designs.load_program sim core.Stu_core.h prog;
    Designs.run_cycles sim cycles;
    let report = Gsim_engine.Profile.analyze ~top core.Stu_core.circuit part engine in
    Format.printf "%a" Gsim_engine.Profile.pp report
  in
  let cycles = Arg.(value & opt int 5000 & info [ "cycles"; "n" ]) in
  let top = Arg.(value & opt int 20 & info [ "top" ] ~doc:"Entries to show") in
  Cmd.v
    (Cmd.info "profile" ~doc:"Report the hottest supernodes for a design/workload pair")
    Term.(const run $ design_arg $ workload_arg $ level_arg $ supernode_arg $ cycles $ top)

(* --- serve / remote ------------------------------------------------------ *)

let to_arg =
  Arg.(value & opt string "gsimd.sock"
       & info [ "to" ] ~docv:"ADDR"
           ~doc:"Server address: a Unix socket path, or host:port for TCP")

(* One request to the daemon; connection failures and error responses
   become one-line failures. *)
let call ?(timeout = 0.) ?(retries = 0) ?token address request =
  match
    Server_client.call_robust ~timeout ~retries ?token (SP.address_of_string address) request
  with
  | SP.Error_resp e ->
    let attempts =
      if e.SP.ei_attempts > 1 then Printf.sprintf " (after %d attempts)" e.SP.ei_attempts
      else ""
    in
    let retry_hint =
      if e.SP.ei_retry_after > 0. then
        Printf.sprintf " — server suggests retrying in %.0f s" e.SP.ei_retry_after
      else ""
    in
    failwith
      (Printf.sprintf "server: [%s] %s%s%s"
         (SP.error_code_to_string e.SP.ei_code)
         e.SP.ei_message attempts retry_hint)
  | r -> r
  | exception Server_client.Timeout _ ->
    failwith
      (Printf.sprintf
         "no response from gsimd at %s within %gs — raise --timeout, check 'gsim remote \
          status', or restart the daemon"
         address timeout)
  | exception Unix.Unix_error (e, _, _) ->
    failwith
      (Printf.sprintf "cannot reach gsimd at %s: %s (is the daemon running?)" address
         (Unix.error_message e))

let timeout_arg =
  Arg.(value & opt float 0.
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Give up on a connect or response after this long (0 waits forever)")

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* --- ckpt ----------------------------------------------------------------
   Inspect a checkpoint store: materialize the newest intact generation
   (walking its delta chain) and print it in the full-keyframe text
   format — what a resume would restore, byte-comparable across runs
   regardless of where each run's keyframe/delta boundaries fell. *)
let ckpt_cmd =
  let module Store = Gsim_resilience.Store in
  let run dir lenient list =
    let store = Store.create ~ring:0 dir in
    if list then
      List.iter
        (fun (cycle, path, kind) ->
          Printf.printf "%-5s %12d %s\n"
            (match kind with `Full -> "full" | `Delta -> "delta")
            cycle path)
        (Store.generations store)
    else
      match Store.latest ~lenient store with
      | Some (ck, _) -> print_string (Gsim_engine.Checkpoint.to_string ck)
      | None -> failwith (Printf.sprintf "no recoverable generation in %s" dir)
  in
  let dir =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Checkpoint store directory")
  in
  let lenient =
    Arg.(value & flag
         & info [ "lenient" ]
             ~doc:"Fall back to last-complete-section recovery of the newest keyframe \
                   when every generation fails validation")
  in
  let list =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List every generation (cycle, kind, path) instead")
  in
  Cmd.v
    (Cmd.info "ckpt"
       ~doc:"Materialize and print the newest recoverable checkpoint generation")
    Term.(const run $ dir $ lenient $ list)

let serve_cmd =
  let run listen workers queue cache stride spool logfile chaos hang_timeout max_retries
      budget high_water backlog_seconds tenant_quota spool_quota =
    let address = SP.address_of_string listen in
    let usage_error parse x = try parse x with Failure msg -> raise (Usage msg) in
    let chaos = usage_error Gsim_server.Chaos.spec_of_string chaos in
    let budgets = usage_error Gsim_server.Admission.budgets_of_string budget in
    let log, close_log =
      match logfile with
      | Some path ->
        let oc = open_out path in
        (oc, fun () -> close_out_noerr oc)
      | None -> (stderr, fun () -> ())
    in
    let dflt = Daemon.default_config address in
    let cfg =
      {
        dflt with
        Daemon.workers = (if workers > 0 then workers else dflt.Daemon.workers);
        queue_capacity = queue;
        cache_capacity = cache;
        preempt_stride = stride;
        spool;
        log;
        chaos;
        supervision =
          {
            dflt.Daemon.supervision with
            Gsim_server.Supervisor.hang_timeout;
            max_retries;
          };
        budgets;
        high_water;
        max_backlog_seconds = backlog_seconds;
        tenant_quota;
        spool_quota_mb = spool_quota;
      }
    in
    Fun.protect ~finally:close_log (fun () -> Daemon.serve cfg)
  in
  let listen =
    Arg.(value & opt string "gsimd.sock"
         & info [ "listen"; "l" ] ~docv:"ADDR"
             ~doc:"Listen address: a Unix socket path, or host:port for TCP")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers"; "j" ] ~docv:"N"
             ~doc:"Worker domains (default: cores - 2, at least 2)")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N" ~doc:"Job-queue bound; submissions beyond it are refused")
  in
  let cache =
    Arg.(value & opt int 16
         & info [ "cache" ] ~docv:"N" ~doc:"Compiled-plan LRU entries (0 disables)")
  in
  let stride =
    Arg.(value & opt int 10_000
         & info [ "preempt-stride" ] ~docv:"N"
             ~doc:"Cycles a batch sim job runs between preemption checks (0 disables)")
  in
  let spool =
    Arg.(value & opt (some string) None
         & info [ "spool" ] ~docv:"DIR"
             ~doc:"Scratch root for checkpoints, golden traces and fuzz shards")
  in
  let logfile =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE" ~doc:"Append the server log here instead of stderr")
  in
  let chaos =
    Arg.(value & opt string ""
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Seeded fault injection, e.g. \
                   'seed=42,crash=0.1,hang=0.05,torn=0.02,slow=0.02,slow-ms=50,poison=MARK' \
                   (testing only)")
  in
  let hang_timeout =
    Arg.(value & opt float Gsim_server.Supervisor.default_policy.Gsim_server.Supervisor.hang_timeout
         & info [ "hang-timeout" ] ~docv:"SECONDS"
             ~doc:"Seconds without a worker heartbeat before a sim job is presumed hung, \
                   cancelled and retried")
  in
  let max_retries =
    Arg.(value & opt int Gsim_server.Supervisor.default_policy.Gsim_server.Supervisor.max_retries
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Retries per job after a worker loss before it fails with a structured \
                   error")
  in
  let budget =
    Arg.(value & opt string ""
         & info [ "budget" ] ~docv:"SPEC"
             ~doc:"Admission budgets, e.g. 'nodes=200000,width=4096,mem-mb=256,arena-mb=512,\
                   native-nodes=100000'; over-budget designs are refused before queueing \
                   (empty = unlimited)")
  in
  let high_water =
    Arg.(value & opt float 0.9
         & info [ "high-water" ] ~docv:"FRAC"
             ~doc:"Brownout threshold: shed new batch work once the batch band holds this \
                   fraction of --queue (0 disables)")
  in
  let backlog_seconds =
    Arg.(value & opt float 0.
         & info [ "backlog-seconds" ] ~docv:"SECONDS"
             ~doc:"Shed new batch work once the estimated backlog exceeds this many \
                   seconds (0 disables)")
  in
  let tenant_quota =
    Arg.(value & opt int 0
         & info [ "tenant-quota" ] ~docv:"N"
             ~doc:"Max queued jobs per tenant; past it the tenant is refused with a \
                   retry-after hint while others proceed (0 = unlimited)")
  in
  let spool_quota =
    Arg.(value & opt int 0
         & info [ "spool-quota-mb" ] ~docv:"MB"
             ~doc:"Disk budget for cached golden traces under --spool, evicted \
                   oldest-first (0 = unlimited)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the gsimd job daemon (graceful drain on SIGTERM/SIGINT or 'remote shutdown')")
    Term.(const run $ listen $ workers $ queue $ cache $ stride $ spool $ logfile $ chaos
          $ hang_timeout $ max_retries $ budget $ high_water $ backlog_seconds
          $ tenant_quota $ spool_quota)

(* Where and how a job is shipped: the one term every `gsim remote` job
   command adds to its job spec.  [priority] defaults per job kind. *)
(* `gsim remote X` is X's job spec plus this term: where and how the job
   ships.  It yields [ship request]: [request] builds the job from the
   chosen priority, tenant and deadline, and [ship] sends it and returns
   the checked response. *)
let transport priority =
  let ship address priority timeout retries token tenant deadline request =
    (* Auto-mint an idempotency token whenever retries could resubmit the
       job, so a retry after a torn response can never run it twice. *)
    let token =
      if token <> "" then Some token
      else if retries > 0 then
        Some (Printf.sprintf "cli-%d-%.6f" (Unix.getpid ()) (Unix.gettimeofday ()))
      else None
    in
    let tenant = if tenant = "" then None else Some tenant in
    call ~timeout ~retries ?token address
      (request (SP.priority_of_string priority) tenant deadline)
  in
  let priority =
    Arg.(value & opt string priority
         & info [ "priority" ] ~docv:"P"
             ~doc:"Scheduling class: interactive (preempts batch work) or batch")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"N"
             ~doc:"Reconnect and resubmit up to N times on timeouts and torn connections; \
                   resubmissions carry an idempotency token so the job never runs twice")
  in
  let token =
    Arg.(value & opt string ""
         & info [ "token" ] ~docv:"TOKEN"
             ~doc:"Idempotency token for resubmission (default: auto-generated when \
                   --retries > 0)")
  in
  let tenant =
    Arg.(value & opt string ""
         & info [ "tenant" ] ~docv:"NAME"
             ~doc:"Tenant id for fair scheduling, quotas and per-tenant accounting \
                   (default: a per-connection id assigned by the server)")
  in
  let deadline =
    Arg.(value & opt float 0.
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"End-to-end deadline: the server stops working on the job this long \
                   after admitting it and answers deadline-exceeded (0 = none)")
  in
  Term.(const ship $ to_arg $ priority $ timeout_arg $ retries $ token $ tenant $ deadline)

(* A remote database result: the database and the report on it are the
   local command's; the server's cache verdict and time come on top. *)
let remote_db response k =
  match response with
  | SP.Db_done r ->
    k r ~fields:(Printf.sprintf ",\"cache_hit\":%b" r.SP.dr_cache_hit)
      ~tail:(fun () ->
        Printf.printf "remote: %s in %.3fs server-side%s\n" r.SP.dr_summary r.SP.dr_seconds
          (if r.SP.dr_cache_hit then ", golden/plan cache hit" else ""))
  | _ -> failwith "unexpected response to job request"

let remote_sim_cmd =
  let run ship (job : SP.sim_job) json =
    match ship (fun p sj_tenant sj_deadline -> SP.Sim (p, { job with sj_tenant; sj_deadline })) with
    | SP.Sim_done r ->
      print_sim ~json
        ~where:(if r.SP.sr_cache_hit then " (remote, plan cache hit)" else " (remote)")
        ~fields:
          (Printf.sprintf ",\"cache_hit\":%b,\"compile_seconds\":%.6f,\"preemptions\":%d"
             r.SP.sr_cache_hit r.SP.sr_compile_seconds r.SP.sr_preemptions)
        ~tail:(fun () ->
          if r.SP.sr_preemptions > 0 then
            Printf.printf "preempted %d time(s); resumed from checkpoint\n"
              r.SP.sr_preemptions)
        r
    | _ -> failwith "unexpected response to sim request"
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a simulation job on a gsimd server")
    Term.(const run $ transport "interactive" $ sim_job $ json_arg)

let remote_campaign_cmd =
  let run ship (job : SP.campaign_job) out latent json =
    remote_db
      (ship (fun p cj_tenant cj_deadline -> SP.Campaign (p, { job with cj_tenant; cj_deadline })))
    @@ fun r ~fields ~tail ->
    Gsim_resilience.Store.write_atomic out r.SP.dr_text;
    let db = Fault_db.of_string r.SP.dr_text in
    print_campaign ~json ~latent ~out ~total:(Fault_db.count db) ~fields ~tail db
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a fault-campaign shard on a gsimd server")
    Term.(const run $ transport "batch" $ campaign_job $ campaign_out_arg $ latent_arg
          $ json_arg)

let remote_fuzz_cmd =
  let run ship (job : SP.fuzz_job) out json =
    remote_db (ship (fun p fj_tenant fj_deadline -> SP.Fuzz (p, { job with fj_tenant; fj_deadline })))
    @@ fun r ~fields ~tail ->
    Gsim_resilience.Store.write_atomic out r.SP.dr_text;
    print_fuzz ~json ~fields
      ~tail:(fun () -> tail (); Printf.printf "database: %s\n" out)
      (Fuzz_corpus.of_string r.SP.dr_text)
  in
  let out =
    Arg.(value & opt string "fuzz-remote.db"
         & info [ "o"; "output" ] ~docv:"FILE.db" ~doc:"Where to write the returned corpus shard")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a differential-fuzz shard on a gsimd server")
    Term.(const run $ transport "batch" $ fuzz_job $ out $ json_arg)

let remote_cov_cmd =
  let run ship (job : SP.cov_job) out json =
    remote_db
      (ship (fun p vj_tenant vj_deadline -> SP.Coverage (p, { job with vj_tenant; vj_deadline })))
    @@ fun r ~fields ~tail ->
    print_cov ~json ~out ~fields ~tail (Cov_db.of_string r.SP.dr_text)
  in
  Cmd.v
    (Cmd.info "cov" ~doc:"Run a coverage-collection job on a gsimd server")
    Term.(const run $ transport "interactive" $ cov_job file_arg $ cov_out_arg $ json_arg)

let remote_status_cmd =
  let run to_ json timeout =
    match call ~timeout to_ SP.Status with
    | SP.Status_ok s ->
      (* Checked here, from the rows themselves, so a daemon whose
         counters drift is caught by any client. *)
      let broken = List.filter (fun t -> not (SP.tenant_conserves t)) s.SP.st_tenants in
      if json then begin
        let tenants =
          String.concat ","
            (List.map
               (fun t ->
                 Printf.sprintf
                   "{\"tenant\":\"%s\",\"submitted\":%d,\"completed\":%d,\"shed\":%d,\"expired\":%d,\"inflight\":%d}"
                   (json_escape t.SP.tn_tenant) t.SP.tn_submitted t.SP.tn_completed
                   t.SP.tn_shed t.SP.tn_expired t.SP.tn_inflight)
               s.SP.st_tenants)
        in
        Printf.printf
          "{\"workers\":%d,\"queued\":%d,\"running\":%d,\"completed\":%d,\"rejected\":%d,\"shed\":%d,\"over_budget\":%d,\"deadline_expired\":%d,\"cache\":{\"entries\":%d,\"capacity\":%d,\"hits\":%d,\"misses\":%d,\"evictions\":%d},\"golden\":{\"hits\":%d,\"misses\":%d},\"preemptions\":%d,\"supervision\":{\"retries\":%d,\"hangs\":%d,\"worker_crashes\":%d,\"worker_restarts\":%d,\"gave_up\":%d},\"quarantine\":{\"open\":%d,\"trips\":%d},\"chaos_injected\":%d,\"tenants\":[%s],\"conservation\":\"%s\",\"uptime\":%.3f,\"draining\":%b}\n"
          s.SP.st_workers s.SP.st_queued s.SP.st_running s.SP.st_completed s.SP.st_rejected
          s.SP.st_shed s.SP.st_over_budget s.SP.st_deadline_expired
          s.SP.st_cache_entries s.SP.st_cache_capacity s.SP.st_cache_hits
          s.SP.st_cache_misses s.SP.st_cache_evictions s.SP.st_golden_hits
          s.SP.st_golden_misses s.SP.st_preemptions s.SP.st_retries s.SP.st_hangs
          s.SP.st_worker_crashes s.SP.st_worker_restarts s.SP.st_gave_up
          s.SP.st_quarantined s.SP.st_quarantine_trips s.SP.st_chaos_injected tenants
          (if broken = [] then "ok" else "violated")
          s.SP.st_uptime s.SP.st_draining
      end
      else begin
        Printf.printf "workers    : %d (%d running, %d queued)\n" s.SP.st_workers
          s.SP.st_running s.SP.st_queued;
        Printf.printf "jobs       : %d completed, %d rejected\n" s.SP.st_completed
          s.SP.st_rejected;
        if s.SP.st_shed > 0 || s.SP.st_over_budget > 0 || s.SP.st_deadline_expired > 0 then
          Printf.printf "overload   : %d shed, %d over budget, %d deadline expired\n"
            s.SP.st_shed s.SP.st_over_budget s.SP.st_deadline_expired;
        Printf.printf "plan cache : %d/%d entries, %d hit(s), %d miss(es), %d eviction(s)\n"
          s.SP.st_cache_entries s.SP.st_cache_capacity s.SP.st_cache_hits
          s.SP.st_cache_misses s.SP.st_cache_evictions;
        Printf.printf "golden     : %d hit(s), %d miss(es)\n" s.SP.st_golden_hits
          s.SP.st_golden_misses;
        Printf.printf "preemptions: %d\n" s.SP.st_preemptions;
        Printf.printf
          "supervision: %d retry(ies), %d hang(s), %d worker crash(es), %d restart(s), %d \
           gave up\n"
          s.SP.st_retries s.SP.st_hangs s.SP.st_worker_crashes s.SP.st_worker_restarts
          s.SP.st_gave_up;
        Printf.printf "quarantine : %d design(s) quarantined, %d trip(s)\n"
          s.SP.st_quarantined s.SP.st_quarantine_trips;
        if s.SP.st_chaos_injected > 0 then
          Printf.printf "chaos      : %d fault(s) injected\n" s.SP.st_chaos_injected;
        List.iter
          (fun t ->
            Printf.printf
              "tenant %-12s: %d submitted, %d completed, %d shed, %d expired, %d in flight\n"
              t.SP.tn_tenant t.SP.tn_submitted t.SP.tn_completed t.SP.tn_shed
              t.SP.tn_expired t.SP.tn_inflight)
          s.SP.st_tenants;
        (match broken with
         | [] -> print_endline "conservation: ok"
         | ts ->
           List.iter
             (fun t ->
               Printf.printf
                 "conservation: VIOLATED by tenant %s (%d submitted <> %d completed + %d shed \
                  + %d expired + %d in flight)\n"
                 t.SP.tn_tenant t.SP.tn_submitted t.SP.tn_completed t.SP.tn_shed
                 t.SP.tn_expired t.SP.tn_inflight)
             ts);
        Printf.printf "uptime     : %.1fs%s\n" s.SP.st_uptime
          (if s.SP.st_draining then " (draining)" else "")
      end
    | _ -> failwith "unexpected response to status request"
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query a gsimd server's queue, cache and worker counters")
    Term.(const run $ to_arg $ json_arg $ timeout_arg)

let remote_shutdown_cmd =
  let run to_ timeout =
    match call ~timeout to_ SP.Shutdown with
    | SP.Shutting_down -> print_endline "server draining: queued jobs will finish, then it exits"
    | _ -> failwith "unexpected response to shutdown request"
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask a gsimd server to drain and exit")
    Term.(const run $ to_arg $ timeout_arg)

let remote_cmd =
  Cmd.group
    (Cmd.info "remote" ~doc:"Submit jobs to a gsimd server (see 'gsim serve')")
    [ remote_sim_cmd; remote_campaign_cmd; remote_fuzz_cmd; remote_cov_cmd;
      remote_status_cmd; remote_shutdown_cmd ]

let () =
  let doc = "GSIM: an activity-driven compiled RTL simulator" in
  let info = Cmd.info "gsim" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ stats_cmd; emit_cmd; emit_fir_cmd; sim_cmd; run_cmd; cov_cmd; fault_cmd; fuzz_cmd;
        profile_cmd; equiv_cmd; ckpt_cmd; serve_cmd; remote_cmd ]
  in
  (* Ctrl-C raises Sys.Break instead of killing the process outright, so
     at_exit handlers (partial-checkpoint temp-file cleanup) still run
     and the conventional interrupt code is reported. *)
  Sys.catch_break true;
  (* Every error reaches the user as one line on stderr, never a
     backtrace: 2 for usage errors (cmdliner has already printed those),
     1 for runtime failures, 130 for an interrupt. *)
  exit
    (try
       match Cmd.eval_value ~catch:false group with
       | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
       | Error (`Parse | `Term) -> 2
       | Error `Exn -> 1
     with
     | Usage msg ->
       Printf.eprintf "gsim: %s\n" msg;
       2
     | Sys.Break ->
       prerr_endline "gsim: interrupted";
       130
     | Failure msg
     | Sys_error msg
     | Gsim_firrtl.Firrtl.Error msg
     | Gsim_verilog.Verilog.Error msg ->
       Printf.eprintf "gsim: %s\n" msg;
       1
     | e ->
       Printf.eprintf "gsim: %s\n" (Printexc.to_string e);
       1)
