(** Job execution on a worker Domain.

    A {!job} is mutable resume state plus the request: a long simulation
    runs in [preempt_stride]-cycle windows and, when {!Scheduler}
    reports strictly-higher-priority work waiting, captures a
    checkpoint (persisted through the crash-safe {!Gsim_resilience.Store}
    ring in the job's spool directory), records its progress, and
    returns {!Yielded} so the daemon can requeue it — any worker can
    pick it up again and the final state is identical to an
    uninterrupted run (registers, inputs and memories restore exactly;
    combinational values are re-derived on the next step).

    The spool ring is a delta chain: the job's first yield writes a full
    keyframe, later yields append sparse deltas linked by (base cycle,
    base file CRC), and a fresh keyframe re-anchors the chain every few
    deltas.  A job whose [recovered] flag is set (re-admitted from a
    persisted request after a daemon restart) and that has no in-memory
    checkpoint resumes from the newest chain generation that verifies —
    a write torn by the crash just drops recovery back one generation.

    Interactive jobs (priority 0) and campaign/fuzz/coverage jobs never
    yield — campaigns already shard at the request level, which is the
    preemption mechanism for batch analysis traffic.

    Supervision rides on the same stride boundaries: every sim window
    ends in a tick that heartbeats to the daemon's {!Supervisor},
    checks the job's cancel flag, gives the {!Chaos} harness its
    injection point — and, for batch jobs, spools a generation so that
    a worker lost mid-job costs the retry at most one stride of
    progress.  A cancelled attempt returns {!Abandoned}; a chaos crash
    escapes {!execute} entirely, killing the worker Domain the way a
    real crash would. *)

(** {1 Job bodies}

    One body per job kind turns its {!Protocol} record into a result.
    {!execute} runs them inside the daemon and the [gsim] CLI runs the
    same ones in-process, so a job gives the same answer wherever its
    record runs; each caller adds only what is its own (plan cache,
    stride ticks and spooling here; VCD, checkpoints and resume in the
    CLI). *)

val config_of_opts : Protocol.engine_opts -> Gsim_core.Gsim.config
(** {!Gsim_core.Gsim.config_of_names} over the wire options; raises
    [Failure] on an unknown name. *)

val run_sim_job :
  ?stride:int ->
  ?between:(int -> bool) ->
  ?from:int ->
  ?halt:int ->
  Gsim_core.Gsim.config ->
  Gsim_ir.Circuit.t ->
  Gsim_engine.Sim.t ->
  Protocol.sim_job ->
  Protocol.sim_result
(** Pokes the job's inputs (resolved against the circuit), then steps
    from cycle [from] (default 0) toward [sj_cycles] in [stride]-cycle
    windows, stopping after a cycle that raises [halt].  [between c]
    runs at every window boundary short of the end with the cycles done
    so far; [false] pauses the run there.  The result carries the
    configuration's name, the cycles reached and every output of the
    circuit; the plan-cache and preemption fields are left zero. *)

val run_campaign_job :
  ?start:(design:string -> horizon:int -> Gsim_fault.Db.t) ->
  ?on_record:(string -> Gsim_fault.Db.record -> unit) ->
  ?progress:(int -> int -> unit) ->
  ?stop_after:int ->
  ?golden_dir:(Gsim_core.Gsim.Compile.source -> Gsim_core.Gsim.config -> string) ->
  Protocol.campaign_job ->
  Gsim_fault.Db.t * int
(** Builds the fault list ({!Gsim_fault.Fault.select}) and runs
    {!Gsim_fault.Campaign.run} with the job's pokes driven every cycle.
    [start] gives the database to resume (its faults are skipped and it
    is merged into the result; default: an empty one); [progress done
    total] counts its faults as done; [golden_dir] names where the golden
    model persists.  Returns the merged database and the fault-list
    length. *)

val fuzz_campaign : dir:string -> Protocol.fuzz_job -> Gsim_verify.Fuzz.campaign
(** The job's {!Gsim_verify.Fuzz.campaign} writing into [dir]; fields the
    job does not carry keep {!Gsim_verify.Fuzz.default_campaign}. *)

val collect_coverage :
  ?halt:int ->
  Gsim_core.Gsim.compiled ->
  Gsim_ir.Circuit.t ->
  Protocol.cov_job ->
  Gsim_coverage.Db.t
(** Attaches a coverage collector, pokes the job's inputs and runs up to
    [vj_cycles] cycles or until [halt]. *)

(** {1 Daemon jobs} *)

type job = {
  id : int;
  priority : int;  (** scheduler level, 0 = interactive *)
  tenant : string;  (** fairness bucket; {!Scheduler.default_tenant} if unset *)
  deadline : float;
      (** absolute Unix time the answer stops mattering; 0. = none.
          Checked when the job is dispatched and at every stride tick —
          an expired job fails with [Deadline_exceeded] instead of
          burning a worker *)
  request : Protocol.request;
  mutable attempt : int;  (** 1-based; bumped by {!retry_of} *)
  cancelled : bool Atomic.t;
      (** set by the supervisor when this attempt is presumed hung;
          polled at every tick *)
  mutable ticks : int;  (** stride boundaries crossed — chaos coordinates *)
  mutable digest : string option;
      (** design-text digest, the quarantine breaker's key; set by
          {!execute} before any work runs *)
  mutable done_cycles : int;
  mutable ck : Gsim_engine.Checkpoint.t option;
  mutable recovered : bool;
      (** re-admitted from the daemon's persisted-request spool; enables
          resume from the job's on-disk ring when [ck] is [None] *)
  mutable spool_link : (Gsim_engine.Checkpoint.t * int) option;
      (** newest spooled generation: its state and its file CRC — the
          base link for the next delta *)
  mutable spool_deltas : int;  (** deltas since the last spooled keyframe *)
  mutable preemptions : int;
  mutable cache_hit : bool;
  mutable compile_seconds : float;
}

val config_error : Protocol.request -> string option
(** Why a job's engine options (or fuzz setup names) name no valid
    configuration — e.g. an unknown backend; the message lists the
    accepted names.  [None] for valid jobs and control requests. *)

val make_job :
  id:int ->
  priority:int ->
  ?tenant:string ->
  ?deadline:float ->
  Protocol.request ->
  job

val retry_of : job -> job
(** A fresh attempt under the same id, [attempt + 1], flagged
    [recovered] so it resumes from the job's on-disk spool ring.  The
    stale attempt (possibly still running on a wedged worker) shares no
    mutable state with it. *)

type context = {
  cache : Gsim_core.Gsim.Compile.plan Plan_cache.t;
  sched : job Scheduler.t;
  spool : string;  (** per-job checkpoint/fuzz/golden scratch root *)
  preempt_stride : int;  (** cycles between preemption checks; <= 0 disables *)
  log : string -> unit;
  chaos : Chaos.t;  (** {!Chaos.off} outside chaos runs *)
  preemption_count : int Atomic.t;
  golden_hits : int Atomic.t;
  golden_misses : int Atomic.t;
}

type outcome = Done of Protocol.response | Yielded | Abandoned

val execute : ?beat:(unit -> unit) -> context -> job -> outcome
(** [beat] is called at every stride tick (the worker's heartbeat).
    Failures become [Done (Error_resp _)]; a supervisor-cancelled
    attempt returns [Abandoned]; only {!Chaos.Crash} escapes, on
    purpose — it simulates the Domain dying. *)

val discard_scratch : context -> int -> unit
(** Remove the spool ring and fuzz scratch of the job with this id
    (give-up and expiry cleanup). *)

val enforce_golden_quota : context -> mb:int -> unit
(** Evict golden-trace caches oldest-first until they fit in [mb] MiB;
    [mb <= 0] disables the quota. *)
