module Store = Gsim_resilience.Store
module Compile = Gsim_core.Gsim.Compile
module P = Protocol

type config = {
  address : P.address;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  preempt_stride : int;
  spool : string option;
  log : out_channel;
  supervision : Supervisor.policy;
  chaos : Chaos.spec;
  budgets : Admission.budgets;
  high_water : float;
      (* batch-band depth, as a fraction of queue capacity, past which
         new batch work is shed with a retry-after hint; <= 0 disables *)
  max_backlog_seconds : float;
      (* estimated batch backlog (EWMA job seconds × queued / workers)
         past which new batch work is shed; <= 0 disables *)
  tenant_quota : int;  (* max queued jobs per tenant; 0 = unlimited *)
  spool_quota_mb : int;  (* golden-cache disk budget; 0 = unlimited *)
}

let default_config address =
  {
    address;
    workers = max 2 (Domain.recommended_domain_count () - 2);
    queue_capacity = 64;
    cache_capacity = 16;
    preempt_stride = 10_000;
    spool = None;
    log = stderr;
    supervision = Supervisor.default_policy;
    chaos = Chaos.none;
    budgets = Admission.unlimited;
    high_water = 0.9;
    max_backlog_seconds = 0.;
    tenant_quota = 0;
    spool_quota_mb = 0;
  }

(* Per-tenant counters, mutated under one lock by connection threads and
   workers (via [deliver]); snapshotted for Status. *)
type tstat = {
  mutable ts_sub : int;
  mutable ts_done : int;
  mutable ts_shed : int;
  mutable ts_exp : int;
  mutable ts_inflight : int;
}

(* One response slot per submitted job: the worker Domain fulfils it,
   the connection thread blocks on it and writes the response out. *)
module Waitbox = struct
  type t = { m : Mutex.t; c : Condition.t; mutable v : P.response option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let put b r =
    Mutex.protect b.m (fun () ->
        b.v <- Some r;
        Condition.signal b.c)

  let wait b =
    Mutex.protect b.m (fun () ->
        while b.v = None do
          Condition.wait b.c b.m
        done;
        Option.get b.v)
end

(* Idempotency-token registry: [Running] collects the waitboxes of
   every connection waiting on the job, [Finished] replays the cached
   response to late resubmissions. *)
type tok_state = Tok_running of Waitbox.t list ref | Tok_finished of P.response

let sockaddr_for_bind = function
  | P.Unix_sock path -> Unix.ADDR_UNIX path
  | P.Tcp (host, port) ->
    let addr =
      if host = "" || host = "*" then Unix.inet_addr_any
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (addr, port)

let sockaddr_for_connect = function
  | P.Unix_sock path -> Unix.ADDR_UNIX path
  | P.Tcp (host, port) ->
    let addr =
      if host = "" || host = "*" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (addr, port)

let socket_domain = function P.Unix_sock _ -> Unix.PF_UNIX | P.Tcp _ -> Unix.PF_INET

let serve cfg =
  let log_lock = Mutex.create () in
  let log line =
    let now = Unix.gettimeofday () in
    let tm = Unix.localtime now in
    let frac = int_of_float ((now -. Float.of_int (int_of_float now)) *. 1000.) in
    Mutex.protect log_lock (fun () ->
        Printf.fprintf cfg.log "[%02d:%02d:%02d.%03d] %s\n%!" tm.Unix.tm_hour
          tm.Unix.tm_min tm.Unix.tm_sec frac line)
  in
  let logf fmt = Printf.ksprintf log fmt in
  let spool =
    match cfg.spool with
    | Some dir -> dir
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsimd-%d" (Unix.getpid ()))
  in
  Store.ensure_dir spool;
  (* Batch requests are persisted here at admission and removed on
     completion, so a killed daemon's unfinished batch work is re-admitted
     by the next boot's scan (and resumes from its spool ring where one
     was written). *)
  let jobs_dir = Filename.concat spool "jobs" in
  Store.ensure_dir jobs_dir;
  let request_path id = Filename.concat jobs_dir (Printf.sprintf "job-%06d.gjb" id) in
  let sched = Scheduler.create ~capacity:cfg.queue_capacity ~tenant_quota:cfg.tenant_quota () in
  let cache = Plan_cache.create ~capacity:cfg.cache_capacity () in
  (* Admission estimates are frontend-only (parse, no pass pipeline) but
     still worth memoizing: a tenant hammering one design re-admits from
     this cache instead of re-parsing on every connection thread. *)
  let est_cache : Admission.estimate Plan_cache.t = Plan_cache.create ~capacity:64 () in
  let chaos = Chaos.create cfg.chaos in
  let ctx =
    {
      Worker.cache;
      sched;
      spool;
      preempt_stride = cfg.preempt_stride;
      log;
      chaos;
      preemption_count = Atomic.make 0;
      golden_hits = Atomic.make 0;
      golden_misses = Atomic.make 0;
    }
  in
  let pol = cfg.supervision in
  let sup = Supervisor.create pol in
  let started = Unix.gettimeofday () in
  let completed = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let retries = Atomic.make 0 in
  let gave_up = Atomic.make 0 in
  let restarts = Atomic.make 0 in
  let next_job = Atomic.make 0 in
  let draining = Atomic.make false in
  let shed = Atomic.make 0 in
  let over_budget = Atomic.make 0 in
  let deadline_expired = Atomic.make 0 in

  (* Per-tenant accounting. *)
  let tstats_lock = Mutex.create () in
  let tstats : (string, tstat) Hashtbl.t = Hashtbl.create 8 in
  let note tenant f =
    Mutex.protect tstats_lock (fun () ->
        let s =
          match Hashtbl.find_opt tstats tenant with
          | Some s -> s
          | None ->
            let s = { ts_sub = 0; ts_done = 0; ts_shed = 0; ts_exp = 0; ts_inflight = 0 } in
            Hashtbl.replace tstats tenant s;
            s
        in
        f s)
  in

  (* EWMA of completed-job wall time, the backlog estimator's numerator:
     backlog-seconds ≈ ewma × queued / workers.  Seeded pessimistically
     so a cold daemon does not under-shed. *)
  let ewma_lock = Mutex.create () in
  let ewma_job_seconds = ref 2.0 in
  let observe_job_seconds dt =
    Mutex.protect ewma_lock (fun () ->
        ewma_job_seconds := (0.8 *. !ewma_job_seconds) +. (0.2 *. dt))
  in
  let backlog_estimate () =
    let e = Mutex.protect ewma_lock (fun () -> !ewma_job_seconds) in
    e *. float_of_int (Scheduler.queued sched) /. float_of_int (max 1 cfg.workers)
  in
  let retry_after () = Float.min 60. (Float.max 1. (backlog_estimate ())) in
  let batch_gate = Mutex.create () in
  let overloaded () =
    (cfg.high_water > 0.
    && Scheduler.queued_at sched ~priority:1
       >= max 1 (int_of_float (cfg.high_water *. float_of_int cfg.queue_capacity)))
    || (cfg.max_backlog_seconds > 0. && backlog_estimate () > cfg.max_backlog_seconds)
  in

  (* Admission: estimate the resource footprint from a frontend-only
     parse and refuse over-budget designs before they queue.  A design
     the frontend rejects is admitted anyway — the worker owns the
     diagnostic, and estimation must never change failure semantics. *)
  let admission_violation req =
    if not (Admission.limited cfg.budgets) then None
    else
      match (P.request_design req, P.request_filename req) with
      | Some design, Some filename -> (
        let key = Digest.to_hex (Digest.string (filename ^ "\x00" ^ design)) in
        let est =
          match Plan_cache.find est_cache key with
          | Some e -> Some e
          | None -> (
            match Compile.source_of_string ~filename design with
            | src ->
              let e = Admission.estimate src.Compile.circuit in
              Plan_cache.add est_cache key e;
              Some e
            | exception _ -> None)
        in
        match est with
        | None -> None
        | Some e -> (
          match Admission.check cfg.budgets e with Ok () -> None | Error why -> Some why))
      | _ -> None
  in

  (* Retries waiting out their backoff before re-admission. *)
  let delayed_lock = Mutex.create () in
  let delayed : (float * Worker.job) list ref = ref [] in
  let delayed_count () = Mutex.protect delayed_lock (fun () -> List.length !delayed) in

  (* A lost job either goes back to the queue (after backoff with
     jitter) or, past its retry budget, fails with a structured error.
     Every loss also feeds the design's quarantine breaker. *)
  let recover ~kind (job : Worker.job) =
    (match job.Worker.digest with
     | Some key -> (
       match Plan_cache.record_failure cache key with
       | `Tripped ->
         logf "quarantine: design %s OPEN after repeated worker loss"
           (String.sub key 0 (min 12 (String.length key)))
       | `Counted -> ())
     | None -> ());
    let verb = match kind with `Crash -> "worker lost" | `Hang -> "hung" in
    if job.Worker.attempt > pol.Supervisor.max_retries then begin
      Atomic.incr gave_up;
      (try Sys.remove (request_path job.Worker.id) with Sys_error _ -> ());
      Worker.discard_scratch ctx job;
      let code = match kind with `Crash -> P.Worker_lost | `Hang -> P.Timeout in
      logf "job %d: giving up after %d attempt(s) (%s every time)" job.Worker.id
        job.Worker.attempt verb;
      job.Worker.reply
        (P.error_resp ~code ~attempts:job.Worker.attempt
           (Printf.sprintf "job failed after %d attempt(s): %s each time" job.Worker.attempt
              verb))
    end
    else begin
      Atomic.incr retries;
      let retry = Worker.retry_of job in
      let jitter =
        Chaos.hash01 ~seed:job.Worker.id ~site:"retry-jitter" [ job.Worker.attempt ]
      in
      let delay = Supervisor.backoff pol ~attempt:job.Worker.attempt ~jitter in
      let due = Unix.gettimeofday () +. delay in
      Mutex.protect delayed_lock (fun () -> delayed := (due, retry) :: !delayed);
      logf "job %d: %s at cycle %d on attempt %d/%d; retrying in %.0f ms" job.Worker.id verb
        job.Worker.done_cycles job.Worker.attempt
        (pol.Supervisor.max_retries + 1)
        (delay *. 1000.)
    end
  in

  (* Boot scan: re-admit batch jobs a previous daemon left behind.  The
     jobs queue before the worker pool starts; new job ids are allocated
     above every scanned id so a re-admitted job keeps exclusive use of
     its spool directory. *)
  let () =
    let entries = try Sys.readdir jobs_dir with Sys_error _ -> [||] in
    Array.sort compare entries;
    Array.iter
      (fun f ->
        match Scanf.sscanf f "job-%d.gjb%!" (fun i -> i) with
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
        | id ->
          (* Even an undecodable file retires its id: a stale spool ring
             under that number must never alias a fresh job. *)
          if id >= Atomic.get next_job then Atomic.set next_job (id + 1);
          let path = Filename.concat jobs_dir f in
          let req =
            match
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            with
            | s -> ( try Some (P.decode_request s) with P.Error _ -> None)
            | exception (Sys_error _ | End_of_file) -> None
          in
          (match req with
           | None ->
             logf "boot: dropping unreadable job file %s" f;
             (try Sys.remove path with Sys_error _ -> ())
           | Some ((P.Sim _ | P.Campaign _ | P.Fuzz _ | P.Coverage _) as req) ->
             let replied = Atomic.make false in
             let tenant =
               match P.request_tenant req with
               | Some t -> t
               | None -> Scheduler.default_tenant
             in
             (* Deadlines travel as relative budgets; a recovered job's
                budget restarts at re-admission — the original submitter
                is gone, so the old clock has nothing to anchor to. *)
             let rel = P.request_deadline req in
             let deadline = if rel > 0. then Unix.gettimeofday () +. rel else 0. in
             let job =
               Worker.make_job ~id ~priority:1 ~tenant ~deadline
                 ~reply:(fun resp ->
                   if not (Atomic.exchange replied true) then
                     match resp with
                     | P.Error_resp e ->
                       logf "recovered job %d failed: %s" id e.P.ei_message
                     | _ -> logf "recovered job %d completed" id)
                 req
             in
             job.Worker.recovered <- true;
             (match Scheduler.submit sched ~priority:1 ~tenant job with
              | Scheduler.Accepted -> logf "boot: re-admitted interrupted job %d (%s)" id f
              | Scheduler.Rejected_full | Scheduler.Rejected_quota ->
                logf "boot: queue full, leaving job %d for the next restart" id)
           | Some (P.Status | P.Shutdown) ->
             (try Sys.remove path with Sys_error _ -> ())))
      entries
  in

  (* Listening socket. *)
  let sock = Unix.socket (socket_domain cfg.address) Unix.SOCK_STREAM 0 in
  (match cfg.address with
   | P.Unix_sock path ->
     if Sys.file_exists path then Sys.remove path;  (* stale socket from a crash *)
     Unix.bind sock (Unix.ADDR_UNIX path);
     (* Even a SIGTERM exit removes the socket file. *)
     Store.track_tmp path
   | P.Tcp _ ->
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (sockaddr_for_bind cfg.address));
  Unix.listen sock 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());

  (* A drain can start on the main thread (signal), or on a connection
     thread (Shutdown request) — the self-connect poke wakes the main
     thread out of [accept] in the latter case.  Only the flag flips
     here; the scheduler drains later, once in-flight work (including
     supervision retries) has settled — so a worker finishing its final
     preemption yield can never race the shutdown. *)
  let poke_acceptor () =
    try
      let c = Unix.socket (socket_domain cfg.address) Unix.SOCK_STREAM 0 in
      (try Unix.connect c (sockaddr_for_connect cfg.address) with _ -> ());
      Unix.close c
    with _ -> ()
  in
  let begin_drain reason =
    if not (Atomic.exchange draining true) then logf "drain: %s" reason
  in
  let old_term =
    try Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> begin_drain "SIGTERM"))
    with Invalid_argument _ -> Sys.Signal_default
  in
  let old_int =
    try Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> begin_drain "SIGINT"))
    with Invalid_argument _ -> Sys.Signal_default
  in

  (* Worker pool.  Each Domain owns a supervisor slot; a Domain that
     dies mid-job (chaos or a genuinely crashing plan) flags the slot on
     its way out and the supervisor respawns a replacement.  [finished]
     tells drain which Domains are safe to join — a wedged Domain never
     sets it and is abandoned rather than waited on. *)
  let domains_lock = Mutex.create () in
  let domains : (unit Domain.t * bool Atomic.t) list ref = ref [] in
  let worker_seq = Atomic.make 0 in
  let rec spawn_worker () =
    let w = Atomic.fetch_and_add worker_seq 1 in
    let slot = Supervisor.register sup in
    let finished = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          (try worker_loop w slot with
           | Chaos.Crash ->
             Supervisor.crashed sup slot;
             logf "worker %d: CHAOS crash injected; Domain dying" w
           | e ->
             Supervisor.crashed sup slot;
             logf "worker %d: unexpected death: %s" w (Printexc.to_string e));
          Atomic.set finished true)
    in
    Mutex.protect domains_lock (fun () -> domains := (d, finished) :: !domains)
  and worker_loop w slot =
    let rec go () =
      match Scheduler.take sched with
      | None -> Supervisor.exited sup slot
      | Some job
        when job.Worker.deadline > 0. && Unix.gettimeofday () > job.Worker.deadline ->
        (* Expired while queued: shed it at dispatch, before it costs a
           worker anything.  The spool scratch and persisted request go
           with it — nobody will resume a job whose answer is late. *)
        logf "worker %d: job %d expired in the queue; shedding" w job.Worker.id;
        (try Sys.remove (request_path job.Worker.id) with Sys_error _ -> ());
        Worker.discard_scratch ctx job;
        job.Worker.reply
          (P.error_resp ~code:P.Deadline_exceeded ~attempts:job.Worker.attempt
             "deadline exceeded while queued");
        go ()
      | Some job ->
        let ticking = match job.Worker.request with P.Sim _ -> true | _ -> false in
        Supervisor.start sup slot ~ticking job;
        let resumed =
          match job.Worker.ck with
          | Some ck ->
            Printf.sprintf " (resume from cycle %d)" (Gsim_engine.Checkpoint.cycle ck)
          | None -> ""
        in
        let attempt =
          if job.Worker.attempt > 1 then Printf.sprintf " attempt %d" job.Worker.attempt
          else ""
        in
        logf "worker %d: job %d start%s%s" w job.Worker.id attempt resumed;
        let exec_t0 = Unix.gettimeofday () in
        let outcome =
          Worker.execute ~beat:(fun () -> Supervisor.beat slot) ctx job
        in
        Supervisor.finish sup slot;
        (match outcome with
         | Worker.Yielded ->
           logf "worker %d: job %d preempted at cycle %d" w job.Worker.id
             job.Worker.done_cycles;
           Scheduler.requeue sched ~priority:job.Worker.priority
             ~tenant:job.Worker.tenant job
         | Worker.Abandoned ->
           logf "worker %d: job %d attempt %d abandoned (supervisor cancelled it)" w
             job.Worker.id job.Worker.attempt
         | Worker.Done resp ->
           Atomic.incr completed;
           observe_job_seconds (Unix.gettimeofday () -. exec_t0);
           (* The job can no longer be interrupted: retire its persisted
              request (a no-op for interactive jobs, which have none). *)
           (try Sys.remove (request_path job.Worker.id) with Sys_error _ -> ());
           logf "worker %d: job %d done%s" w job.Worker.id
             (match resp with
              | P.Error_resp e -> ": error: " ^ e.P.ei_message
              | _ -> "");
           job.Worker.reply resp);
        go ()
    in
    go ()
  in
  for _ = 1 to cfg.workers do
    spawn_worker ()
  done;

  (* Golden-trace caches are the one spool artifact that outlives its
     job, so they are what a disk quota must police.  Evict whole cache
     directories oldest-first until back under budget; a campaign racing
     its own eviction merely rebuilds the trace (Campaign.run validates
     the cache before trusting it). *)
  let enforce_spool_quota () =
    if cfg.spool_quota_mb > 0 then begin
      let golden_root = Filename.concat spool "golden" in
      let entries =
        (try Array.to_list (Sys.readdir golden_root) with Sys_error _ -> [])
        |> List.filter_map (fun d ->
               let path = Filename.concat golden_root d in
               try
                 if not (Sys.is_directory path) then None
                 else begin
                   let files = try Sys.readdir path with Sys_error _ -> [||] in
                   let bytes =
                     Array.fold_left
                       (fun acc f ->
                         try acc + (Unix.stat (Filename.concat path f)).Unix.st_size
                         with Unix.Unix_error _ -> acc)
                       0 files
                   in
                   Some ((Unix.stat path).Unix.st_mtime, path, bytes)
                 end
               with Sys_error _ | Unix.Unix_error _ -> None)
      in
      let total = List.fold_left (fun a (_, _, b) -> a + b) 0 entries in
      let quota = cfg.spool_quota_mb * 1024 * 1024 in
      if total > quota then begin
        let excess = ref (total - quota) in
        List.iter
          (fun (_, path, bytes) ->
            if !excess > 0 then begin
              Array.iter
                (fun f -> try Sys.remove (Filename.concat path f) with Sys_error _ -> ())
                (try Sys.readdir path with Sys_error _ -> [||]);
              (try Unix.rmdir path with Unix.Unix_error _ -> ());
              excess := !excess - bytes;
              logf "spool quota: evicted golden cache %s (%d KiB)" (Filename.basename path)
                (bytes / 1024)
            end)
          (List.sort compare entries)
      end
    end
  in
  let sweep_countdown_ticks = ref 0 in

  (* Supervisor thread: reacts to scan losses, flushes due retries. *)
  let sup_stop = Atomic.make false in
  let supervisor_loop () =
    while not (Atomic.get sup_stop) do
      let now = Unix.gettimeofday () in
      List.iter
        (fun (l : _ Supervisor.loss) ->
          match l.Supervisor.kind with
          | `Hang -> (
            match l.Supervisor.job with
            | Some (j : Worker.job) ->
              logf
                "supervisor: job %d hung on worker slot %d (no heartbeat for %.1f s); \
                 cancelling"
                j.Worker.id l.Supervisor.slot_id pol.Supervisor.hang_timeout;
              Atomic.set j.Worker.cancelled true;
              recover ~kind:`Hang j
            | None -> ())
          | `Crash ->
            Atomic.incr restarts;
            spawn_worker ();
            (match l.Supervisor.job with
             | Some j ->
               logf "supervisor: worker slot %d died running job %d; respawned a replacement"
                 l.Supervisor.slot_id j.Worker.id;
               recover ~kind:`Crash j
             | None ->
               logf "supervisor: worker slot %d died idle; respawned a replacement"
                 l.Supervisor.slot_id)
          | `Wedge ->
            Atomic.incr restarts;
            spawn_worker ();
            logf
              "supervisor: worker slot %d ignored cancellation for %.1f s; abandoning the \
               Domain and respawning"
              l.Supervisor.slot_id pol.Supervisor.grace)
        (Supervisor.scan sup ~now);
      let due =
        Mutex.protect delayed_lock (fun () ->
            let d, l = List.partition (fun (t, _) -> t <= now) !delayed in
            delayed := l;
            d)
      in
      List.iter
        (fun (_, (j : Worker.job)) ->
          logf "job %d: re-admitted for attempt %d" j.Worker.id j.Worker.attempt;
          Scheduler.requeue sched ~priority:j.Worker.priority ~tenant:j.Worker.tenant j)
        due;
      incr sweep_countdown_ticks;
      if !sweep_countdown_ticks >= 100 then begin
        sweep_countdown_ticks := 0;
        enforce_spool_quota ()
      end;
      Unix.sleepf pol.Supervisor.poll
    done
  in
  let sup_thread = Thread.create supervisor_loop () in

  let status () =
    let cs = Plan_cache.stats cache in
    {
      P.st_workers = cfg.workers;
      st_queued = Scheduler.queued sched;
      st_running = Supervisor.busy sup;
      st_completed = Atomic.get completed;
      st_rejected = Atomic.get rejected;
      st_cache_entries = cs.Plan_cache.entries;
      st_cache_capacity = cs.Plan_cache.capacity;
      st_cache_hits = cs.Plan_cache.hits;
      st_cache_misses = cs.Plan_cache.misses;
      st_cache_evictions = cs.Plan_cache.evictions;
      st_golden_hits = Atomic.get ctx.Worker.golden_hits;
      st_golden_misses = Atomic.get ctx.Worker.golden_misses;
      st_preemptions = Atomic.get ctx.Worker.preemption_count;
      st_uptime = Unix.gettimeofday () -. started;
      st_draining = Atomic.get draining;
      st_retries = Atomic.get retries;
      st_hangs = Supervisor.hang_count sup;
      st_worker_crashes = Supervisor.crash_count sup;
      st_worker_restarts = Atomic.get restarts;
      st_gave_up = Atomic.get gave_up;
      st_quarantined = cs.Plan_cache.quarantined;
      st_quarantine_trips = cs.Plan_cache.quarantine_trips;
      st_chaos_injected = Chaos.total chaos;
      st_shed = Atomic.get shed;
      st_over_budget = Atomic.get over_budget;
      st_deadline_expired = Atomic.get deadline_expired;
      st_tenants =
        Mutex.protect tstats_lock (fun () ->
            Hashtbl.fold
              (fun name s acc ->
                {
                  P.tn_tenant = name;
                  tn_submitted = s.ts_sub;
                  tn_completed = s.ts_done;
                  tn_shed = s.ts_shed;
                  tn_expired = s.ts_exp;
                  tn_inflight = s.ts_inflight;
                }
                :: acc)
              tstats []
            |> List.sort (fun a b -> compare a.P.tn_tenant b.P.tn_tenant));
    }
  in

  (* Idempotency tokens: a bounded FIFO of finished responses so a
     client retrying a token whose job already completed replays the
     response instead of executing twice. *)
  let tokens_lock = Mutex.create () in
  let tokens : (string, tok_state) Hashtbl.t = Hashtbl.create 16 in
  let token_fifo : string Queue.t = Queue.create () in
  let token_cache_cap = 512 in
  let finish_token tok resp =
    let waiters =
      Mutex.protect tokens_lock (fun () ->
          let ws =
            match Hashtbl.find_opt tokens tok with Some (Tok_running ws) -> !ws | _ -> []
          in
          Hashtbl.replace tokens tok (Tok_finished resp);
          Queue.push tok token_fifo;
          while Queue.length token_fifo > token_cache_cap do
            let old = Queue.pop token_fifo in
            match Hashtbl.find_opt tokens old with
            | Some (Tok_finished _) -> Hashtbl.remove tokens old
            | _ -> ()
          done;
          ws)
    in
    List.iter (fun b -> Waitbox.put b resp) waiters
  in
  let refuse_token tok resp =
    (* A refusal must not be cached: the client's retry should get a
       fresh shot at the queue, not a replayed rejection. *)
    let waiters =
      Mutex.protect tokens_lock (fun () ->
          let ws =
            match Hashtbl.find_opt tokens tok with Some (Tok_running ws) -> !ws | _ -> []
          in
          Hashtbl.remove tokens tok;
          ws)
    in
    List.iter (fun b -> Waitbox.put b resp) waiters
  in

  (* Connection registry, so drain can unblock idle readers. *)
  let conns_lock = Mutex.create () in
  let conns : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 16 in
  let conn_threads = ref [] in
  let next_conn = ref 0 in

  let priority_level = function P.Interactive -> 0 | P.Batch -> 1 in
  let handle_conn conn_id fd () =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let respond r =
      (match Chaos.io_delay chaos with
       | Some s ->
         logf "conn %d: CHAOS stalling response %.0f ms" conn_id (s *. 1000.);
         Unix.sleepf s
       | None -> ());
      if Chaos.torn_response chaos then begin
        (* Die mid-write: half a frame, then a straight close.  The
           client sees exactly what a daemon crash looks like. *)
        logf "conn %d: CHAOS tearing response frame" conn_id;
        let frame = P.encode_response r in
        let cut = max 1 (String.length frame / 2) in
        (try
           output_string oc (String.sub frame 0 cut);
           flush oc
         with Sys_error _ -> ());
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      end
      else try P.write_response oc r with Sys_error _ | P.Error _ -> ()
    in
    let submit prio req =
      if Atomic.get draining then
        respond (P.error_resp ~code:P.Refused "server is draining; resubmit elsewhere")
      else begin
        let claim =
          match P.request_token req with
          | None -> `Run None
          | Some tok ->
            Mutex.protect tokens_lock (fun () ->
                match Hashtbl.find_opt tokens tok with
                | Some (Tok_finished r) -> `Replay r
                | Some (Tok_running ws) ->
                  let b = Waitbox.create () in
                  ws := b :: !ws;
                  `Attach b
                | None ->
                  Hashtbl.replace tokens tok (Tok_running (ref []));
                  `Run (Some tok))
        in
        match claim with
        | `Replay r ->
          logf "conn %d: replaying finished job for token (idempotent resubmission)"
            conn_id;
          respond r
        | `Attach b ->
          logf "conn %d: token already in flight; attaching to its job" conn_id;
          respond (Waitbox.wait b)
        | `Run token ->
          let tenant =
            match P.request_tenant req with
            | Some t -> t
            | None -> Printf.sprintf "conn-%d" conn_id
          in
          note tenant (fun s -> s.ts_sub <- s.ts_sub + 1);
          let refuse resp =
            Atomic.incr rejected;
            (match token with Some tok -> refuse_token tok resp | None -> ());
            respond resp
          in
          (* Engine options first (a peer naming a backend this build
             lacks is refused with the valid names), then admission: a
             resource bomb must be refused before it touches the queue,
             the spool or a worker. *)
          match Worker.config_error req with
          | Some why ->
            note tenant (fun s -> s.ts_shed <- s.ts_shed + 1);
            logf "conn %d: refusing job for %s: %s" conn_id tenant why;
            refuse (P.error_resp ~code:P.Protocol_violation why)
          | None ->
          match admission_violation req with
          | Some why ->
            Atomic.incr over_budget;
            note tenant (fun s -> s.ts_shed <- s.ts_shed + 1);
            logf "conn %d: refusing over-budget job for %s: %s" conn_id tenant why;
            refuse (P.error_resp ~code:P.Over_budget why)
          | None ->
            (* Brownout: past the high-water mark (or the backlog-seconds
               limit), shed new *batch* work with a retry-after hint and
               keep serving interactive traffic — graceful degradation
               beats collapse.  For batch work the check and the enqueue
               are one step under [batch_gate]: checked apart, concurrent
               submitters all see the band below its mark and overfill the
               queue, and interactive jobs are then refused queue-full. *)
            let gated f = if prio = P.Batch then Mutex.protect batch_gate f else f () in
            match
              gated (fun () ->
                  if prio = P.Batch && overloaded () then `Shed
                  else begin
                    let box = Waitbox.create () in
                    let id = Atomic.fetch_and_add next_job 1 in
                    let rel = P.request_deadline req in
                    let deadline = if rel > 0. then Unix.gettimeofday () +. rel else 0. in
                    (* Exactly one delivery per logical job, however many
                       attempts raced: the first responder wins, stale
                       attempts and the give-up path are silenced. *)
                    let replied = Atomic.make false in
                    let deliver resp =
                      if not (Atomic.exchange replied true) then begin
                        (match resp with
                         | P.Error_resp e when e.P.ei_code = P.Deadline_exceeded ->
                           Atomic.incr deadline_expired;
                           note tenant (fun s ->
                               s.ts_exp <- s.ts_exp + 1;
                               s.ts_inflight <- s.ts_inflight - 1)
                         | _ ->
                           note tenant (fun s ->
                               s.ts_done <- s.ts_done + 1;
                               s.ts_inflight <- s.ts_inflight - 1));
                        (match token with Some tok -> finish_token tok resp | None -> ());
                        Waitbox.put box resp
                      end
                    in
                    let job =
                      Worker.make_job ~id ~priority:(priority_level prio) ~tenant ~deadline
                        ~reply:deliver req
                    in
                    (* Persist batch requests before scheduling: from this
                       instant a daemon crash leaves enough on disk for the
                       next boot to finish the job.  Interactive jobs are
                       cheap and their client retries, so they are not
                       persisted. *)
                    if prio = P.Batch then (
                      try Store.write_atomic (request_path id) (P.encode_request req)
                      with Sys_error m ->
                        logf "conn %d: cannot persist job %d: %s" conn_id id m);
                    (* In-flight is counted before the scheduler sees the
                       job: a fast worker could otherwise deliver (and
                       decrement) before this thread increments. *)
                    note tenant (fun s -> s.ts_inflight <- s.ts_inflight + 1);
                    `Submitted
                      ( id,
                        box,
                        Scheduler.submit sched ~priority:job.Worker.priority ~tenant job )
                  end)
            with
            | `Shed ->
              Atomic.incr shed;
              note tenant (fun s -> s.ts_shed <- s.ts_shed + 1);
              let ra = retry_after () in
              logf "conn %d: brownout, shedding batch job for %s (retry in %.0f s)" conn_id
                tenant ra;
              refuse
                (P.error_resp ~code:P.Overloaded ~retry_after:ra
                   (Printf.sprintf
                      "overloaded: %d batch job(s) queued, est. backlog %.0f s; retry later"
                      (Scheduler.queued_at sched ~priority:1)
                      (backlog_estimate ())))
            | `Submitted (id, box, outcome) -> (
              match outcome with
              | Scheduler.Accepted ->
                logf "conn %d: job %d queued (%s, tenant %s)" conn_id id
                  (P.priority_to_string prio) tenant;
                respond (Waitbox.wait box)
              | Scheduler.Rejected_full ->
                note tenant (fun s ->
                    s.ts_inflight <- s.ts_inflight - 1;
                    s.ts_shed <- s.ts_shed + 1);
                (try Sys.remove (request_path id) with Sys_error _ -> ());
                refuse
                  (P.error_resp ~code:P.Queue_full ~retry_after:(retry_after ())
                     (Printf.sprintf "queue full (%d job(s) queued); retry later"
                        (Scheduler.queued sched)))
              | Scheduler.Rejected_quota ->
                Atomic.incr shed;
                note tenant (fun s ->
                    s.ts_inflight <- s.ts_inflight - 1;
                    s.ts_shed <- s.ts_shed + 1);
                (try Sys.remove (request_path id) with Sys_error _ -> ());
                refuse
                  (P.error_resp ~code:P.Overloaded ~retry_after:(retry_after ())
                     (Printf.sprintf
                        "tenant %s has %d job(s) queued (quota %d); retry later" tenant
                        (Scheduler.queued_for sched tenant)
                        cfg.tenant_quota)))
      end
    in
    let rec loop () =
      match P.read_request ic with
      | None -> ()
      | exception P.Error msg ->
        logf "conn %d: protocol error: %s" conn_id msg;
        respond (P.error_resp ~code:P.Protocol_violation ("protocol: " ^ msg))
      | exception Sys_error _ -> ()
      | Some P.Status ->
        respond (P.Status_ok (status ()));
        loop ()
      | Some P.Shutdown ->
        respond P.Shutting_down;
        begin_drain "shutdown request";
        poke_acceptor ()
      | Some (P.Sim (prio, _) as req)
      | Some (P.Campaign (prio, _) as req)
      | Some (P.Fuzz (prio, _) as req)
      | Some (P.Coverage (prio, _) as req) ->
        submit prio req;
        loop ()
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect conns_lock (fun () -> Hashtbl.remove conns conn_id);
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      loop
  in

  logf "gsimd listening on %s (%d worker(s), queue %d, plan cache %d, stride %d)"
    (P.address_to_string cfg.address)
    cfg.workers cfg.queue_capacity cfg.cache_capacity cfg.preempt_stride;
  if Admission.limited cfg.budgets then
    logf "admission budgets: %s" (Admission.budgets_to_string cfg.budgets);
  if cfg.tenant_quota > 0 || cfg.high_water > 0. || cfg.max_backlog_seconds > 0. then
    logf "overload policy: high-water %.0f%%, backlog limit %s, tenant quota %s"
      (cfg.high_water *. 100.)
      (if cfg.max_backlog_seconds > 0. then Printf.sprintf "%.0f s" cfg.max_backlog_seconds
       else "off")
      (if cfg.tenant_quota > 0 then string_of_int cfg.tenant_quota else "off");
  if cfg.spool_quota_mb > 0 then logf "spool quota: %d MiB (golden caches)" cfg.spool_quota_mb;
  if Chaos.enabled cfg.chaos then
    logf "chaos enabled: %s" (Chaos.spec_to_string cfg.chaos);

  (* Accept loop — exits when a drain begins. *)
  let rec accept_loop () =
    if not (Atomic.get draining) then begin
      match Unix.accept sock with
      | fd, _ ->
        if Atomic.get draining then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          let id = Mutex.protect conns_lock (fun () ->
              incr next_conn;
              Hashtbl.replace conns !next_conn fd;
              !next_conn)
          in
          let t = Thread.create (handle_conn id fd) () in
          conn_threads := t :: !conn_threads
        end;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
        when Atomic.get draining -> ()
    end
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());

  (* Settle before stopping the pool: drain must wait on worker *acks*
     (busy supervisor slots), not queue emptiness — a worker finishing
     its final preemption yield holds its job in a slot while the queue
     is momentarily empty, and supervision retries sit in [delayed]
     where the queue cannot see them either.  Submissions are already
     refused, so this sum is monotone. *)
  let backlog = Scheduler.queued sched + Supervisor.busy sup + delayed_count () in
  if backlog > 0 then logf "draining %d in-flight job(s)" backlog;
  let rec settle () =
    if Scheduler.queued sched + Supervisor.busy sup + delayed_count () > 0 then begin
      Unix.sleepf 0.01;
      settle ()
    end
  in
  settle ();
  Scheduler.drain sched;

  (* Join the workers that acknowledge the drain; a wedged Domain never
     will (Domains cannot be killed), so it is abandoned to die with the
     process rather than hang the shutdown.  The supervisor keeps
     running until after the joins: it is what cancels a chaos-hung
     worker and lets it ack at all. *)
  let join_deadline =
    Unix.gettimeofday () +. Float.max 5. (pol.Supervisor.hang_timeout +. pol.Supervisor.grace)
  in
  let abandoned = ref 0 in
  List.iter
    (fun (d, fin) ->
      let rec wait_join () =
        if Atomic.get fin then Domain.join d
        else if Unix.gettimeofday () > join_deadline then incr abandoned
        else begin
          Unix.sleepf 0.005;
          wait_join ()
        end
      in
      wait_join ())
    (Mutex.protect domains_lock (fun () -> !domains));
  if !abandoned > 0 then
    logf "drain: abandoned %d wedged worker Domain(s); they die with the process"
      !abandoned;
  Atomic.set sup_stop true;
  Thread.join sup_thread;

  (* All responses are now in their waitboxes; unblock idle connection
     readers and wait for the writers to finish delivering. *)
  Mutex.protect conns_lock (fun () ->
      Hashtbl.iter
        (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        conns);
  List.iter Thread.join !conn_threads;

  (match cfg.address with
   | P.Unix_sock path ->
     (try Sys.remove path with Sys_error _ -> ());
     Store.untrack_tmp path
   | P.Tcp _ -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  (if Chaos.enabled cfg.chaos then
     let cc = Chaos.counters chaos in
     logf
       "chaos: injected %d crash(es), %d hang(s), %d torn frame(s), %d stalled write(s), %d \
        busy stall(s)"
       cc.Chaos.crashes cc.Chaos.hangs cc.Chaos.torn cc.Chaos.slowed cc.Chaos.busied);
  let cs = Plan_cache.stats cache in
  logf
    "supervision: %d retry(ies), %d hang(s), %d worker crash(es), %d wedge(s), %d \
     restart(s), %d gave up; quarantine: %d open, %d trip(s)"
    (Atomic.get retries) (Supervisor.hang_count sup) (Supervisor.crash_count sup)
    (Supervisor.wedge_count sup) (Atomic.get restarts) (Atomic.get gave_up)
    cs.Plan_cache.quarantined cs.Plan_cache.quarantine_trips;
  logf
    "drained: %d job(s) completed, %d rejected (%d shed, %d over budget), %d expired, %d \
     preemption(s); bye"
    (Atomic.get completed) (Atomic.get rejected) (Atomic.get shed) (Atomic.get over_budget)
    (Atomic.get deadline_expired)
    (Atomic.get ctx.Worker.preemption_count)
