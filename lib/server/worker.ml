module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Checkpoint = Gsim_engine.Checkpoint
module Gsim = Gsim_core.Gsim
module Compile = Gsim_core.Gsim.Compile
module Cov_collect = Gsim_coverage.Collect
module Cov_db = Gsim_coverage.Db
module Fault = Gsim_fault.Fault
module Fault_db = Gsim_fault.Db
module Campaign = Gsim_fault.Campaign
module Store = Gsim_resilience.Store
module Fuzz = Gsim_verify.Fuzz
module Corpus = Gsim_verify.Corpus
module P = Protocol

type job = {
  id : int;
  priority : int;
  tenant : string;
  deadline : float;  (* absolute Unix time; 0. = none *)
  request : P.request;
  mutable attempt : int;
  cancelled : bool Atomic.t;
  mutable ticks : int;
  mutable digest : string option;
  mutable done_cycles : int;
  mutable ck : Checkpoint.t option;
  mutable recovered : bool;
  mutable spool_link : (Checkpoint.t * int) option;
  mutable spool_deltas : int;
  mutable preemptions : int;
  mutable cache_hit : bool;
  mutable compile_seconds : float;
}

let make_job ~id ~priority ?(tenant = Scheduler.default_tenant) ?(deadline = 0.) request =
  {
    id;
    priority;
    tenant;
    deadline;
    request;
    attempt = 1;
    cancelled = Atomic.make false;
    ticks = 0;
    digest = None;
    done_cycles = 0;
    ck = None;
    recovered = false;
    spool_link = None;
    spool_deltas = 0;
    preemptions = 0;
    cache_hit = false;
    compile_seconds = 0.;
  }

(* A retry is a fresh record under the same id: the stale attempt may
   still be running on a wedged worker, so it must not share mutable
   resume state.  [recovered] makes the retry resume from the job's
   on-disk spool ring instead of cycle 0. *)
let retry_of job =
  let j =
    make_job ~id:job.id ~priority:job.priority ~tenant:job.tenant ~deadline:job.deadline
      job.request
  in
  j.attempt <- job.attempt + 1;
  j.recovered <- true;
  j

type context = {
  cache : Compile.plan Plan_cache.t;
  sched : job Scheduler.t;
  spool : string;
  preempt_stride : int;
  log : string -> unit;
  chaos : Chaos.t;
  preemption_count : int Atomic.t;
  golden_hits : int Atomic.t;
  golden_misses : int Atomic.t;
}

type outcome = Done of P.response | Yielded | Abandoned

exception Abandon
(* Raised at a tick when the supervisor has cancelled this attempt
   (it was presumed hung and a retry was re-admitted). *)

exception Deadline of int
(* Raised at a tick once the job's end-to-end deadline has passed;
   carries the cycle count reached.  Caught in [execute] and turned
   into a [Deadline_exceeded] job-level error. *)

(* Preemption spool cadence: the first yield of a job writes a full
   keyframe, later yields write sparse deltas chained on it, and every
   [spool_keyframe_every] deltas a fresh keyframe re-anchors the chain
   so recovery never walks an unbounded number of links. *)
let spool_keyframe_every = 8

let config_of_opts (o : P.engine_opts) =
  Gsim.config_of_names ~engine:o.eo_engine ~threads:o.eo_threads ~level:o.eo_level
    ~max_supernode:o.eo_max_supernode ~backend:o.eo_backend

let config_error req =
  let check f = match f () with _ -> None | exception Failure m -> Some m in
  match req with
  | P.Sim (_, j) -> check (fun () -> config_of_opts j.P.sj_opts)
  | P.Campaign (_, j) -> check (fun () -> config_of_opts j.P.cj_opts)
  | P.Coverage (_, j) -> check (fun () -> config_of_opts j.P.vj_opts)
  | P.Fuzz (_, j) -> check (fun () -> Fuzz.setups_of_string j.P.fj_setups)
  | P.Status | P.Shutdown -> None

(* --- job bodies ------------------------------------------------------------
   One body per job kind, shared by the daemon below and the local CLI:
   each turns its Protocol record into a result the same way wherever the
   record runs.  The callers add only what belongs to them (plan cache,
   stride ticks and spooling here; VCD, checkpoints and resume there). *)

let run_sim_job ?(stride = max_int) ?(between = fun _ -> true) ?(from = 0) ?halt config
    circuit sim (sj : P.sim_job) =
  List.iter (fun (id, v) -> sim.Sim.poke id v) (Sim.parse_pokes circuit sj.sj_pokes);
  let rec go cycles =
    let ran, halted = Sim.run_to_halt ?halt sim (min stride (sj.sj_cycles - cycles)) in
    let cycles = cycles + ran in
    if halted || cycles >= sj.sj_cycles || not (between cycles) then (cycles, halted)
    else go cycles
  in
  let cycles, halted = go from in
  {
    P.sr_engine = config.Gsim.config_name;
    sr_cycles = cycles;
    sr_halted = halted;
    sr_outputs = Sim.outputs sim circuit;
    sr_cache_hit = false;
    sr_compile_seconds = 0.;
    sr_preemptions = 0;
  }

let run_campaign_job ?(start = fun ~design ~horizon -> Fault_db.create ~design ~horizon ())
    ?on_record ?progress ?stop_after ?golden_dir (cj : P.campaign_job) =
  let config = config_of_opts cj.cj_opts in
  let source = Compile.source_of_string ~filename:cj.cj_filename cj.cj_design in
  let circuit = source.Compile.circuit in
  let faults =
    Fault.select ~keys:cj.cj_faults ~random:cj.cj_random ?models:cj.cj_models
      ~duration:cj.cj_duration ~seed:cj.cj_seed ~horizon:cj.cj_horizon circuit
  in
  let pokes = Sim.parse_pokes circuit cj.cj_pokes in
  let partial = start ~design:(Circuit.name circuit) ~horizon:cj.cj_horizon in
  let total = List.length faults in
  let progress = Option.map (fun p d _ -> p (d + Fault_db.count partial) total) progress in
  let fresh =
    Campaign.run ~skip:(Fault_db.mem partial) ?on_record ?progress ?stop_after
      ~stimulus:(fun _ -> pokes)
      ?golden_dir:(Option.map (fun dir -> dir source config) golden_dir)
      { Campaign.horizon = cj.cj_horizon; budget = cj.cj_budget }
      config circuit faults
  in
  (Fault_db.merge partial fresh, total)

let fuzz_campaign ~dir (fj : P.fuzz_job) =
  {
    Fuzz.default_campaign with
    Fuzz.seed = fj.fj_seed;
    cases = fj.fj_cases;
    start_case = fj.fj_from;
    cycles = fj.fj_cycles;
    setups = Fuzz.setups_of_string fj.fj_setups;
    dir;
  }

let collect_coverage ?halt (compiled : Gsim.compiled) circuit (vj : P.cov_job) =
  let cov, sim = Cov_collect.of_sim ?activity:compiled.Gsim.activity compiled.Gsim.sim in
  List.iter (fun (id, v) -> sim.Sim.poke id v) (Sim.parse_pokes circuit vj.vj_pokes);
  ignore (Sim.run_to_halt ?halt sim vj.vj_cycles);
  Cov_collect.db cov

(* Two-level plan lookup.  The fast path keys on the digest of the raw
   design text so a repeat request skips even the frontend; a text miss
   falls back to the canonical circuit-hash key (catching, e.g., a
   reformatted copy of a known design) before compiling.  Either hit
   means the pass pipeline and partitioning did not run. *)
let compiled_plan ctx config ~filename ~text =
  let frontend = if Filename.check_suffix filename ".v" then "v" else "fir" in
  let text_key =
    Printf.sprintf "text:%s:%s#%s" frontend
      (Digest.to_hex (Digest.string text))
      (Compile.fingerprint config)
  in
  match Plan_cache.find ctx.cache text_key with
  | Some plan -> (plan, true, 0.)
  | None ->
    let t0 = Unix.gettimeofday () in
    let source = Compile.source_of_string ~filename text in
    let circuit_key = Compile.key source config in
    (match Plan_cache.find ctx.cache circuit_key with
     | Some plan ->
       Plan_cache.add ctx.cache text_key plan;
       (plan, true, Unix.gettimeofday () -. t0)
     | None ->
       let plan = Compile.prepare config source in
       Plan_cache.add ctx.cache circuit_key plan;
       Plan_cache.add ctx.cache text_key plan;
       (plan, false, Unix.gettimeofday () -. t0))

let job_dir ctx job name =
  let dir = Filename.concat ctx.spool (Printf.sprintf "%s-job-%03d" name job.id) in
  Store.ensure_dir dir;
  dir

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* --- sim ----------------------------------------------------------------- *)

(* Spool one generation crash-safely: the on-disk ring survives both the
   daemon and this worker.  After the first keyframe each generation
   costs only a sparse delta chained on the previous file's CRC; the
   ring's chain-aware prune keeps every base a live delta still needs. *)
let spool_generation ctx job ck =
  let store = Store.create ~ring:4 (job_dir ctx job "sim") in
  match job.spool_link with
  | Some (base, base_crc) when job.spool_deltas < spool_keyframe_every -> (
    match Checkpoint.delta_of ~base ~base_crc ck with
    | d ->
      let _, crc = Store.save_delta store d in
      job.spool_link <- Some (ck, crc);
      job.spool_deltas <- job.spool_deltas + 1
    | exception Failure _ ->
      let _, crc = Store.save_keyframe store ck in
      job.spool_link <- Some (ck, crc);
      job.spool_deltas <- 0)
  | _ ->
    let _, crc = Store.save_keyframe store ck in
    job.spool_link <- Some (ck, crc);
    job.spool_deltas <- 0

let run_sim ctx job ~tick (sj : P.sim_job) =
  let config = config_of_opts sj.sj_opts in
  let plan, hit, secs = compiled_plan ctx config ~filename:sj.sj_filename ~text:sj.sj_design in
  if job.done_cycles = 0 && job.ck = None then begin
    job.cache_hit <- hit;
    job.compile_seconds <- secs
  end;
  let circuit = Compile.plan_circuit plan in
  let halt = Compile.plan_halt plan in
  let compiled = Compile.realize plan in
  Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
  let sim = compiled.Gsim.sim in
  (match job.ck with
   | Some ck ->
     Checkpoint.restore sim ck;
     sim.Sim.invalidate ()
   | None ->
     (* A job re-admitted after a daemon restart lost its in-memory
        checkpoint, but its spool ring survived: resume from the newest
        generation whose delta chain verifies, instead of cycle 0.  A
        torn last write (the killed daemon died mid-spool) just lands
        recovery on the previous generation. *)
     if job.recovered && job.done_cycles = 0 then begin
       let dir = Filename.concat ctx.spool (Printf.sprintf "sim-job-%03d" job.id) in
       if Sys.file_exists dir then
         match Store.latest ~lenient:true (Store.create dir) with
         | Some (ck, path) ->
           Checkpoint.restore sim ck;
           sim.Sim.invalidate ();
           job.done_cycles <- Checkpoint.cycle ck;
           ctx.log
             (Printf.sprintf "job %d: resumed from spooled %s at cycle %d" job.id
                (Filename.basename path) (Checkpoint.cycle ck))
         | None -> ()
         | exception (Failure _ | Sys_error _) -> ()
     end);
  (* Every sim job steps in [preempt_stride]-cycle windows and ticks at
     each boundary: the tick heartbeats to the supervisor, honours a
     cancellation, and lets the chaos harness strike.  Only batch jobs
     yield to higher-priority work, and only batch jobs spool — the
     per-stride generation is what a retry resumes from after its
     worker crashed, so a lost worker costs at most one stride of
     progress plus the backoff.  Interactive jobs are short and their
     client retries, so they skip the spool entirely. *)
  let stride = if ctx.preempt_stride > 0 then ctx.preempt_stride else max_int in
  let batch = job.priority > 0 && ctx.preempt_stride > 0 in
  let yielded = ref false in
  let between cycles =
    job.done_cycles <- cycles;
    tick ();
    if batch then begin
      let ck = Checkpoint.with_cycle (Checkpoint.capture sim) cycles in
      spool_generation ctx job ck;
      if Scheduler.higher_waiting ctx.sched ~than:job.priority then begin
        job.ck <- Some ck;
        job.preemptions <- job.preemptions + 1;
        Atomic.incr ctx.preemption_count;
        yielded := true
      end
    end;
    not !yielded
  in
  let r =
    run_sim_job ~stride ~between ~from:job.done_cycles ?halt config circuit sim sj
  in
  job.done_cycles <- r.P.sr_cycles;
  if !yielded then Yielded
  else begin
    remove_dir (Filename.concat ctx.spool (Printf.sprintf "sim-job-%03d" job.id));
    Done
      (P.Sim_done
         {
           r with
           sr_cache_hit = job.cache_hit;
           sr_compile_seconds = job.compile_seconds;
           sr_preemptions = job.preemptions;
         })
  end

(* --- fault campaign ------------------------------------------------------ *)

(* Golden traces are cached like plans: one directory per (circuit,
   config, horizon), so every shard of a campaign — and every repeat
   campaign on the same design — reuses one golden simulation.
   Campaign.run itself validates the cache and rebuilds it if the design
   or configuration changed under the same key. *)
let run_campaign ctx _job (cj : P.campaign_job) =
  let t0 = Unix.gettimeofday () in
  let warm = ref false in
  let golden_dir (source : Compile.source) config =
    let dir =
      Filename.concat
        (Filename.concat ctx.spool "golden")
        (Printf.sprintf "%s-%s-%d"
           (String.sub source.Compile.hash 0 16)
           (Digest.to_hex (Digest.string (Compile.fingerprint config)))
           cj.cj_horizon)
    in
    warm := Sys.file_exists dir && (try Sys.readdir dir <> [||] with Sys_error _ -> false);
    Atomic.incr (if !warm then ctx.golden_hits else ctx.golden_misses);
    dir
  in
  let db, _ = run_campaign_job ~golden_dir cj in
  let s = Fault_db.summary db in
  Done
    (P.Db_done
       {
         dr_kind = "fault";
         dr_text = Fault_db.to_string db;
         dr_summary =
           Printf.sprintf "%d fault(s) classified, coverage %.1f%%" (Fault_db.count db)
             (Fault_db.coverage_percent s);
         dr_cache_hit = !warm;
         dr_seconds = Unix.gettimeofday () -. t0;
       })

(* --- fuzz shard ---------------------------------------------------------- *)

let run_fuzz ctx job (fj : P.fuzz_job) =
  let t0 = Unix.gettimeofday () in
  let dir = job_dir ctx job "fuzz" in
  let result = Fuzz.run (fuzz_campaign ~dir fj) in
  let text = Corpus.to_string result.Fuzz.db in
  remove_dir dir;
  Done
    (P.Db_done
       {
         dr_kind = "fuzz";
         dr_text = text;
         dr_summary =
           Printf.sprintf "%d case(s) ran, %d failing" result.Fuzz.ran
             (List.length (Corpus.failures result.Fuzz.db));
         dr_cache_hit = false;
         dr_seconds = Unix.gettimeofday () -. t0;
       })

(* --- coverage collect ---------------------------------------------------- *)

let run_cov ctx job (vj : P.cov_job) =
  let t0 = Unix.gettimeofday () in
  let config = config_of_opts vj.vj_opts in
  let plan, hit, _ = compiled_plan ctx config ~filename:vj.vj_filename ~text:vj.vj_design in
  job.cache_hit <- hit;
  let compiled = Compile.realize plan in
  Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
  let db =
    collect_coverage ?halt:(Compile.plan_halt plan) compiled (Compile.plan_circuit plan) vj
  in
  let s = Cov_db.summary db in
  Done
    (P.Db_done
       {
         dr_kind = "coverage";
         dr_text = Cov_db.to_string db;
         dr_summary = Printf.sprintf "coverage %.1f%%" (Cov_db.total_percent s);
         dr_cache_hit = hit;
         dr_seconds = Unix.gettimeofday () -. t0;
       })

(* Golden-trace caches are the one spool artifact that outlives its job,
   so they are what a disk quota must police.  Evict whole cache
   directories oldest-first until back under budget; a campaign racing
   its own eviction merely rebuilds the trace (Campaign.run validates the
   cache before trusting it). *)
let enforce_golden_quota ctx ~mb =
  if mb > 0 then begin
    let root = Filename.concat ctx.spool "golden" in
    let size path =
      Array.fold_left
        (fun acc f ->
          try acc + (Unix.stat (Filename.concat path f)).Unix.st_size
          with Unix.Unix_error _ -> acc)
        0
        (try Sys.readdir path with Sys_error _ -> [||])
    in
    let entries =
      (try Array.to_list (Sys.readdir root) with Sys_error _ -> [])
      |> List.filter_map (fun d ->
             let path = Filename.concat root d in
             try
               if Sys.is_directory path then
                 Some ((Unix.stat path).Unix.st_mtime, path, size path)
               else None
             with Sys_error _ | Unix.Unix_error _ -> None)
    in
    let total = List.fold_left (fun a (_, _, b) -> a + b) 0 entries in
    let excess = ref (total - (mb * 1024 * 1024)) in
    List.iter
      (fun (_, path, bytes) ->
        if !excess > 0 then begin
          remove_dir path;
          excess := !excess - bytes;
          ctx.log
            (Printf.sprintf "spool quota: evicted golden cache %s (%d KiB)"
               (Filename.basename path) (bytes / 1024))
        end)
      (List.sort compare entries)
  end

(* --- dispatch ------------------------------------------------------------ *)

let discard_scratch ctx id =
  remove_dir (Filename.concat ctx.spool (Printf.sprintf "sim-job-%03d" id));
  remove_dir (Filename.concat ctx.spool (Printf.sprintf "fuzz-job-%03d" id))

let execute ?(beat = fun () -> ()) ctx job =
  let design = P.request_design job.request in
  job.digest <- Option.map (fun d -> Digest.to_hex (Digest.string d)) design;
  let poisoned =
    match design with Some d -> Chaos.poisoned ctx.chaos ~design:d | None -> false
  in
  (* One tick per preemption stride: heartbeat out, cancellation and
     chaos in.  The entry tick means even a job that dies before its
     first stride (bad design, poisoned plan) is supervised. *)
  let tick () =
    beat ();
    if Atomic.get job.cancelled then raise Abandon;
    (* The end-to-end deadline is enforced at every preemption stride:
       a running batch job that outlives its budget stops here instead
       of burning the worker to produce an answer nobody wants. *)
    if job.deadline > 0. && Unix.gettimeofday () > job.deadline then
      raise (Deadline job.done_cycles);
    job.ticks <- job.ticks + 1;
    match
      Chaos.at_eval ctx.chaos ~job:job.id ~attempt:job.attempt ~tick:job.ticks ~poisoned
    with
    | `Ok -> ()
    | `Crash -> raise Chaos.Crash
    | `Busy s ->
      (* Chaos overload: lose compute but stay supervised. *)
      Unix.sleepf s;
      beat ()
    | `Hang ->
      (* A real hang never returns; a simulated one spins silently (no
         heartbeat) until the supervisor cancels this attempt. *)
      while not (Atomic.get job.cancelled) do
        Unix.sleepf 0.002
      done;
      raise Abandon
  in
  try
    (* Quarantine is checked before the first tick: an Open breaker must
       refuse the design instantly, before a poisoned plan gets another
       chance to take the worker down with it. *)
    let quarantined =
      match job.digest with
      | None -> None
      | Some key -> (
        match Plan_cache.admit ctx.cache key with
        | `Proceed -> None
        | `Probe ->
          ctx.log
            (Printf.sprintf "job %d: quarantine probe for design %s" job.id
               (String.sub key 0 12));
          None
        | `Quarantined remaining -> Some remaining)
    in
    (match quarantined with None -> tick () | Some _ -> ());
    match quarantined with
    | Some remaining ->
      Done
        (P.error_resp ~code:P.Quarantined ~attempts:job.attempt
           (Printf.sprintf
              "design quarantined after repeated worker loss; next probe in %.0f s"
              (Float.max 1. remaining)))
    | None ->
      let outcome =
        match job.request with
        | P.Sim (_, sj) -> run_sim ctx job ~tick sj
        | P.Campaign (_, cj) -> run_campaign ctx job cj
        | P.Fuzz (_, fj) -> run_fuzz ctx job fj
        | P.Coverage (_, vj) -> run_cov ctx job vj
        | P.Status | P.Shutdown ->
          (* Handled by the connection layer; never scheduled. *)
          Done (P.error_resp ~code:P.Internal "internal: control request reached a worker")
      in
      (match outcome with
       | Done _ ->
         (* Completing at all — even with a job-level error — proves the
            design does not kill workers; close its breaker. *)
         Option.iter (Plan_cache.record_success ctx.cache) job.digest
       | Yielded | Abandoned -> ());
      outcome
  with
  | Abandon -> Abandoned
  | Deadline cycles ->
    (* Not worth retrying: the budget is spent no matter whose fault the
       slowness was.  The spool scratch is discarded — nobody resumes a
       job whose answer is already too late. *)
    discard_scratch ctx job.id;
    Done
      (P.error_resp ~code:P.Deadline_exceeded ~attempts:job.attempt
         (Printf.sprintf "deadline exceeded after %d cycle(s)" cycles))
  | Chaos.Crash as e ->
    (* Simulated worker death must escape like a real one would. *)
    raise e
  | Failure msg -> Done (P.error_resp ~attempts:job.attempt msg)
  | Invalid_argument msg ->
    Done (P.error_resp ~attempts:job.attempt ("invalid argument: " ^ msg))
  | Sys_error msg -> Done (P.error_resp ~attempts:job.attempt ("i/o error: " ^ msg))
  | e ->
    ctx.log (Printf.sprintf "job %d: unexpected exception %s" job.id (Printexc.to_string e));
    Done (P.error_resp ~code:P.Internal ~attempts:job.attempt
            ("internal error: " ^ Printexc.to_string e))
