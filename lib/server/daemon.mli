(** gsimd — the multi-tenant simulation daemon.

    One process: the calling thread owns the listening socket and
    accepts connections, each connection gets a lightweight systhread
    speaking {!Protocol} frames, and jobs run on a pool of worker
    Domains fed by a bounded priority {!Scheduler} and sharing one
    compiled-plan {!Plan_cache}.

    {2 Core and shell}

    Every decision about a job — admission, token dedup, brownout,
    dispatch, completion, retry or give-up, drain — is a step of the
    pure {!Lifecycle} core; {!serve} is the shell around it.  It owns
    the sockets, threads, worker Domains, {!Scheduler}, {!Supervisor}
    and {!Plan_cache}, builds each event from what its threads observe,
    and steps it under one lock, the daemon's only policy lock.  Under
    it the shell performs just the cheap effects (enqueue, requeue,
    unlinking a request file); replies and log lines go out after it is
    released, and it is never held across parsing, compilation, waiting
    for an answer or a socket write.  Each job ends through exactly one
    terminal transition, so [Status] is a snapshot of the core whose
    per-tenant rows always add up.

    {2 Fault isolation}

    Workers are supervised: each Domain heartbeats through a
    {!Supervisor} slot at every preemption-stride boundary, and a
    supervisor thread detects crashed Domains (respawned, job
    recovered), hung jobs (cancelled via their cancel flag, job
    recovered) and wedged Domains that ignore cancellation (abandoned,
    replacement spawned).  A recovered job retries with exponential
    backoff and deterministic jitter up to [supervision.max_retries]
    times, resuming from its per-stride spool ring so a lost worker
    costs at most one stride of progress; past the budget its client
    gets a structured {!Protocol.Error_resp} carrying [Timeout] or
    [Worker_lost].  Designs that repeatedly kill workers trip the
    {!Plan_cache} quarantine breaker and are refused with [Quarantined]
    until a cooldown probe succeeds.  Submissions carrying an
    idempotency token are deduplicated: a retry of an in-flight job
    attaches to it, a retry of a finished one replays the response.

    The {!Chaos} harness (off by default) injects worker crashes,
    hangs, compute stalls, stalled writes and torn response frames under
    a seed, for tests, CI smoke and benchmarks.

    {2 Overload protection}

    Four independent guards keep the daemon answering under pressure:

    - {e Admission}: when [budgets] is limited, every job's design is
      parsed (frontend only, memoized by digest) and its {!Admission}
      estimate checked before it touches the queue; an over-budget
      design is refused with [Over_budget] naming the violated limit.
      A design the frontend rejects is admitted so the worker produces
      the real diagnostic.
    - {e Fairness}: jobs carry a tenant id (client-supplied, defaulting
      to a per-connection id) and each priority band dequeues
      deficit-round-robin across tenants; [tenant_quota] bounds one
      tenant's queued jobs ([Overloaded] + retry-after past it).
      Per-tenant counters are reported in [Status].
    - {e Deadlines}: a client-supplied relative deadline becomes an
      absolute one at admission; an expired job is shed at dispatch and
      a running one stops at the next stride tick, both with
      [Deadline_exceeded].
    - {e Brownout}: past [high_water] × capacity queued batch jobs (or
      past [max_backlog_seconds] of estimated backlog — EWMA job
      seconds × queued / workers), new {e batch} work is shed with
      [Overloaded] and a retry-after hint while interactive traffic
      keeps flowing.  [spool_quota_mb] bounds golden-trace disk with
      oldest-first eviction.

    {2 Shutdown}

    Shutdown is a graceful drain, triggered by SIGTERM, SIGINT, or a
    [Shutdown] request: new submissions are refused, then the daemon
    waits until no job is live in the core — a job stays live from
    admission to its terminal transition, queued, running, mid-yield or
    waiting out a retry backoff — before the scheduler drains, so none
    can be dropped by the race between its requeue and the drain
    broadcast.
    Worker Domains are joined only once they acknowledge; a wedged
    Domain is abandoned rather than allowed to hang the shutdown.  A
    Unix listening socket is registered with
    {!Gsim_resilience.Store.track_tmp} so even a hard exit removes it.

    Batch jobs survive an ungraceful exit: each batch request is
    persisted ([<spool>/jobs/job-<id>.gjb], atomic write) at admission
    and removed on completion, and {!serve} begins by scanning that
    directory, re-admitting every leftover job at batch priority and
    allocating new ids above the scanned ones.  A re-admitted sim job
    resumes from its preemption spool ring's delta chain instead of
    cycle 0 when the killed daemon had spooled one; its response goes to
    the log, since the submitting client died with the old daemon. *)

type config = {
  address : Protocol.address;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;  (** compiled-plan LRU entries; 0 disables *)
  preempt_stride : int;  (** cycles between a batch sim job's preemption checks *)
  spool : string option;  (** scratch root; default under the temp dir *)
  log : out_channel;
  supervision : Supervisor.policy;
  chaos : Chaos.spec;  (** {!Chaos.none} outside chaos runs *)
  budgets : Admission.budgets;  (** {!Admission.unlimited} disables admission checks *)
  high_water : float;
      (** brownout: batch-band depth as a fraction of [queue_capacity]
          past which new batch work is shed; [<= 0.] disables *)
  max_backlog_seconds : float;
      (** brownout: estimated backlog seconds past which new batch work
          is shed; [<= 0.] disables *)
  tenant_quota : int;  (** max queued jobs per tenant; [0] = unlimited *)
  spool_quota_mb : int;  (** golden-trace disk budget; [0] = unlimited *)
}

val default_config : Protocol.address -> config
(** Workers [max 2 (domains-2)], queue 64, cache 16, stride 10_000,
    log on stderr, {!Supervisor.default_policy}, no chaos, unlimited
    budgets, high-water 0.9, no backlog limit, no tenant quota, no
    spool quota. *)

val serve : config -> unit
(** Blocks until drained.  Raises [Unix.Unix_error] if the socket
    cannot be bound. *)
