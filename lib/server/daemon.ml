module Store = Gsim_resilience.Store
module P = Protocol
module L = Lifecycle

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

(* [~any]: a TCP wildcard host binds every interface rather than
   connecting to loopback. *)
let sockaddr ~any = function
  | P.Unix_sock path -> Unix.ADDR_UNIX path
  | P.Tcp (host, port) ->
    let addr =
      if host = "" || host = "*" then
        if any then Unix.inet_addr_any else Unix.inet_addr_loopback
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
  let restarts = Atomic.make 0 in

  (* The job lifecycle: every decision is a {!Lifecycle.step} of [core],
     taken under [lock], the daemon's one policy lock.  The event is
     built inside the lock so the queue depths it carries are current,
     and the scheduler's verdict on an enqueue is stepped in the same
     hold — a brownout check and its enqueue are one atomic step.  The
     lock covers the cheap effects (enqueue, requeue, unlinking a request
     file, so [status] never sees a finished job whose file is still
     there); replies, log lines and scratch removal run after it is
     released. *)
  let lock = Mutex.create () in
  let core =
    ref
      (L.create
         {
           L.workers = cfg.workers;
           queue_capacity = cfg.queue_capacity;
           high_water = cfg.high_water;
           max_backlog_seconds = cfg.max_backlog_seconds;
           tenant_quota = cfg.tenant_quota;
           policy = pol;
         })
  in
  let rec step deferred ev =
    let st, acts = L.step !core ev in
    core := st;
    List.iter
      (function
        | L.Enqueue e ->
          let job =
            Worker.make_job ~id:e.id ~priority:e.priority ~tenant:e.tenant ~deadline:e.deadline
              e.req
          in
          job.Worker.recovered <- e.recovered;
          (if e.persist then
             try Store.write_atomic (request_path e.id) (P.encode_request e.req)
             with Sys_error m ->
               deferred := L.Log (Printf.sprintf "cannot persist job %d: %s" e.id m) :: !deferred);
          let verdict = Scheduler.submit sched ~priority:e.priority ~tenant:e.tenant job in
          step deferred
            (L.Queued
               { id = e.id; verdict; queued = Scheduler.queued sched;
                 tenant_queued = Scheduler.queued_for sched e.tenant })
        | L.Requeue (j : Worker.job) ->
          Scheduler.requeue sched ~priority:j.Worker.priority ~tenant:j.Worker.tenant j
        | L.Retire id -> ( try Sys.remove (request_path id) with Sys_error _ -> ())
        | (L.Reply _ | L.Log _ | L.Discard _ | L.Run _) as a -> deferred := a :: !deferred)
      acts
  in
  let fire mk =
    let deferred = ref [] in
    Mutex.protect lock (fun () -> step deferred (mk ()));
    let acts = List.rev !deferred in
    List.iter
      (function
        | L.Reply (reply, r) -> reply r
        | L.Log l -> log l
        | L.Discard id -> Worker.discard_scratch ctx id
        | L.Enqueue _ | L.Requeue _ | L.Retire _ | L.Run _ -> ())
      acts;
    acts
  in
  let snapshot () = Mutex.protect lock (fun () -> !core) in

  (* A lost attempt feeds the design's quarantine breaker; the core
     decides between a delayed retry and giving up. *)
  let recover ~kind (job : Worker.job) =
    (match job.Worker.digest with
     | Some key -> (
       match Plan_cache.record_failure cache key with
       | `Tripped ->
         logf "quarantine: design %s OPEN after repeated worker loss"
           (String.sub key 0 (min 12 (String.length key)))
       | `Counted -> ())
     | None -> ());
    ignore
      (fire (fun () ->
           L.Lost
             { id = job.Worker.id; attempt = job.Worker.attempt; kind;
               cycle = job.Worker.done_cycles; retry = Worker.retry_of job;
               now = Unix.gettimeofday () }))
  in

  (* Boot scan: re-admit batch jobs a previous daemon left behind, before
     the worker pool starts.  Their answers go to the log: the submitting
     client died with the old daemon. *)
  let () =
    let entries = try Sys.readdir jobs_dir with Sys_error _ -> [||] in
    Array.sort compare entries;
    Array.iter
      (fun f ->
        match Scanf.sscanf f "job-%d.gjb%!" (fun i -> i) with
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
        | id ->
          let req =
            match In_channel.with_open_bin (Filename.concat jobs_dir f) In_channel.input_all with
            | s -> ( try Some (P.decode_request s) with P.Error _ -> None)
            | exception Sys_error _ -> None
          in
          let reply = function
            | P.Error_resp e -> logf "recovered job %d failed: %s" id e.P.ei_message
            | _ -> logf "recovered job %d completed" id
          in
          let now = Unix.gettimeofday () in
          ignore (fire (fun () -> L.Boot { id; file = f; req; waiter = reply; now })))
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
     Unix.bind sock (sockaddr ~any:true cfg.address));
  Unix.listen sock 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());

  (* A drain starts on a connection thread (Shutdown request, whose
     self-connect poke wakes the main thread out of [accept]) or from a
     signal.  A signal handler may run on a thread that holds [lock], so
     it only posts the reason; the accept loop steps the drain.  The
     scheduler drains later, once every live job has ended. *)
  let poke_acceptor () =
    try
      let c = Unix.socket (socket_domain cfg.address) Unix.SOCK_STREAM 0 in
      (try Unix.connect c (sockaddr ~any:false cfg.address) with _ -> ());
      Unix.close c
    with _ -> ()
  in
  let begin_drain reason = ignore (fire (fun () -> L.Drain reason)) in
  let signalled = Atomic.make None in
  let on_signal name =
    try Sys.signal name (Sys.Signal_handle (fun _ ->
        Atomic.set signalled (Some (if name = Sys.sigterm then "SIGTERM" else "SIGINT"))))
    with Invalid_argument _ -> Sys.Signal_default
  in
  let old_term = on_signal Sys.sigterm in
  let old_int = on_signal Sys.sigint in

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
    match Scheduler.take sched with
    | None -> Supervisor.exited sup slot
    | Some job ->
      let id = job.Worker.id and attempt = job.Worker.attempt in
      if
        List.exists
          (function L.Run _ -> true | _ -> false)
          (fire (fun () -> L.Dispatch { worker = w; id; attempt; now = Unix.gettimeofday () }))
      then begin
        let ticking = match job.Worker.request with P.Sim _ -> true | _ -> false in
        Supervisor.start sup slot ~ticking job;
        logf "worker %d: job %d start%s%s" w id
          (if attempt > 1 then Printf.sprintf " attempt %d" attempt else "")
          (match job.Worker.ck with
           | Some ck -> Printf.sprintf " (resume from cycle %d)" (Gsim_engine.Checkpoint.cycle ck)
           | None -> "");
        let t0 = Unix.gettimeofday () in
        let outcome = Worker.execute ~beat:(fun () -> Supervisor.beat slot) ctx job in
        Supervisor.finish sup slot;
        match outcome with
        | Worker.Yielded ->
          logf "worker %d: job %d preempted at cycle %d" w id job.Worker.done_cycles;
          Scheduler.requeue sched ~priority:job.Worker.priority ~tenant:job.Worker.tenant job
        | Worker.Abandoned ->
          logf "worker %d: job %d attempt %d abandoned (supervisor cancelled it)" w id attempt
        | Worker.Done resp ->
          logf "worker %d: job %d done%s" w id
            (match resp with P.Error_resp e -> ": error: " ^ e.P.ei_message | _ -> "");
          let seconds = Unix.gettimeofday () -. t0 in
          ignore (fire (fun () -> L.Complete { id; attempt; resp; seconds }))
      end;
      worker_loop w slot
  in
  for _ = 1 to cfg.workers do
    spawn_worker ()
  done;

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
      ignore (fire (fun () -> L.Tick now));
      incr sweep_countdown_ticks;
      if !sweep_countdown_ticks >= 100 then begin
        sweep_countdown_ticks := 0;
        Worker.enforce_golden_quota ctx ~mb:cfg.spool_quota_mb
      end;
      Unix.sleepf pol.Supervisor.poll
    done
  in
  let sup_thread = Thread.create supervisor_loop () in

  let status () =
    let st = snapshot () in
    let n = L.counts st in
    let cs = Plan_cache.stats cache in
    {
      P.st_workers = cfg.workers;
      st_queued = Scheduler.queued sched;
      st_running = Supervisor.busy sup;
      st_completed = n.L.completed;
      st_rejected = n.L.rejected;
      st_cache_entries = cs.Plan_cache.entries;
      st_cache_capacity = cs.Plan_cache.capacity;
      st_cache_hits = cs.Plan_cache.hits;
      st_cache_misses = cs.Plan_cache.misses;
      st_cache_evictions = cs.Plan_cache.evictions;
      st_golden_hits = Atomic.get ctx.Worker.golden_hits;
      st_golden_misses = Atomic.get ctx.Worker.golden_misses;
      st_preemptions = Atomic.get ctx.Worker.preemption_count;
      st_uptime = Unix.gettimeofday () -. started;
      st_draining = L.draining st;
      st_retries = n.L.retries;
      st_hangs = Supervisor.hang_count sup;
      st_worker_crashes = Supervisor.crash_count sup;
      st_worker_restarts = Atomic.get restarts;
      st_gave_up = n.L.gave_up;
      st_quarantined = cs.Plan_cache.quarantined;
      st_quarantine_trips = cs.Plan_cache.quarantine_trips;
      st_chaos_injected = Chaos.total chaos;
      st_shed = n.L.shed;
      st_over_budget = n.L.over_budget;
      st_deadline_expired = n.L.deadline_expired;
      st_tenants = L.tenant_stats st;
    }
  in

  (* Connection registry, so drain can unblock idle readers. *)
  let conns_lock = Mutex.create () in
  let conns : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 16 in
  let conn_threads = ref [] in
  let next_conn = ref 0 in

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
    (* Whatever the core decides — refuse, replay a token, attach to a
       running job, or queue a new one — its terminal transition replies
       through [waiter] exactly once, and this thread waits for it. *)
    let submit prio req =
      let admission =
        match Worker.config_error req with
        | Some why -> L.Invalid why
        | None -> (
          match Admission.check_request cfg.budgets est_cache req with
          | Some why -> L.Over_budget why
          | None -> L.Admit)
      in
      let answer = ref None and ready = Semaphore.Binary.make false in
      let waiter r =
        answer := Some r;
        Semaphore.Binary.release ready
      in
      ignore
        (fire (fun () ->
             L.Submit
               { conn = conn_id; prio; req; admission; waiter;
                 now = Unix.gettimeofday (); queued = Scheduler.queued sched;
                 batch_queued = Scheduler.queued_at sched ~priority:1 }));
      Semaphore.Binary.acquire ready;
      respond (Option.get !answer)
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
  let draining () =
    Option.iter begin_drain (Atomic.exchange signalled None);
    L.draining (snapshot ())
  in
  let rec accept_loop () =
    if not (draining ()) then begin
      match Unix.accept sock with
      | fd, _ ->
        if draining () then (try Unix.close fd with Unix.Unix_error _ -> ())
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
        when draining () -> ()
    end
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());

  (* Settle before stopping the pool.  Every admitted job stays live in
     the core until its terminal transition — queued, running (even
     mid-yield, when the queue is momentarily empty), or waiting out a
     retry backoff — and submissions are already refused, so waiting for
     the live table to empty drops nothing. *)
  let live = L.live (snapshot ()) in
  if live > 0 then logf "draining %d in-flight job(s)" live;
  while not (L.settled (snapshot ())) do
    Unix.sleepf 0.01
  done;
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
  let n = L.counts (snapshot ()) in
  logf
    "supervision: %d retry(ies), %d hang(s), %d worker crash(es), %d wedge(s), %d \
     restart(s), %d gave up; quarantine: %d open, %d trip(s)"
    n.L.retries (Supervisor.hang_count sup) (Supervisor.crash_count sup)
    (Supervisor.wedge_count sup) (Atomic.get restarts) n.L.gave_up
    cs.Plan_cache.quarantined cs.Plan_cache.quarantine_trips;
  logf
    "drained: %d job(s) completed, %d rejected (%d shed, %d over budget), %d expired, %d \
     preemption(s); bye"
    n.L.completed n.L.rejected n.L.shed n.L.over_budget n.L.deadline_expired
    (Atomic.get ctx.Worker.preemption_count)
