(** gsimd's job lifecycle as a pure state machine.

    Every decision the daemon makes about a job — admit or refuse,
    deduplicate by idempotency token, shed batch work under brownout,
    expire at dispatch, retry or give up after a worker loss, re-admit
    a delayed retry, drain — is a transition of one immutable state
    record.  {!step} takes the state and an event and returns the next
    state plus the effects to perform; it reads no clock, takes no
    lock and touches no queue, socket or file.  Time, queue depths and
    the admission verdict arrive as event data.  The daemon shell
    ({!Daemon}) executes the actions under its one lock and feeds the
    events its threads observe.

    {2 One terminal transition}

    A job is {e live} from admission until exactly one terminal
    transition: completed (a worker answered, errors included), refused
    (never queued: invalid options, over budget, brownout, queue full or
    tenant quota), expired (its deadline passed, in the queue or while
    running) or gave up (worker loss past the retry budget).  The
    transition replies to every waiter once, retires the persisted
    request, and caches the response under the job's token — except a
    refusal, which forgets the token so a retry gets a fresh shot.
    Whatever arrives later for the id — a stale attempt finishing, a
    second loss report, an orphaned retry reaching dispatch — is
    ignored.  So, per tenant and at every step,

    [submitted = completed + refused + expired + gave_up + inflight]

    where [inflight] counts the tenant's live jobs.  The type parameters
    are the shell's: ['w] is a reply sink, ['j] a retry's job record. *)

type config = {
  workers : int;
  queue_capacity : int;
  high_water : float;  (** see {!Daemon.config} *)
  max_backlog_seconds : float;
  tenant_quota : int;  (** only quoted in refusal messages *)
  policy : Supervisor.policy;  (** retry budget and backoff *)
}

(** Admission outcome the shell computes before taking its lock (it
    may parse the design). *)
type admission = Admit | Invalid of string | Over_budget of string

type ('w, 'j) event =
  | Submit of {
      conn : int;
      prio : Protocol.priority;
      req : Protocol.request;
      admission : admission;
      waiter : 'w;  (** receives exactly one reply *)
      now : float;
      queued : int;  (** scheduler depth, both bands *)
      batch_queued : int;  (** batch-band depth *)
    }
  | Boot of { id : int; file : string; req : Protocol.request option; waiter : 'w; now : float }
      (** a persisted request found by the boot scan; [None] if unreadable *)
  | Queued of { id : int; verdict : Scheduler.verdict; queued : int; tenant_queued : int }
      (** the scheduler's answer to an {!Enqueue} *)
  | Dispatch of { worker : int; id : int; attempt : int; now : float }
  | Complete of { id : int; attempt : int; resp : Protocol.response; seconds : float }
  | Lost of {
      id : int;
      attempt : int;
      kind : [ `Crash | `Hang ];
      cycle : int;  (** progress at the loss, for the log *)
      retry : 'j;  (** the next attempt *)
      now : float;
    }  (** the attempt's worker died or hung *)
  | Tick of float  (** re-admit the retries whose backoff is over *)
  | Drain of string  (** refuse new work from now on *)

type ('w, 'j) action =
  | Reply of 'w * Protocol.response
  | Enqueue of {
      id : int;
      priority : int;  (** scheduler band, 0 = interactive *)
      tenant : string;
      deadline : float;
      req : Protocol.request;
      persist : bool;  (** write the request file before queueing *)
      recovered : bool;  (** resume from the job's spool ring *)
    }  (** answer with {!Queued} *)
  | Requeue of 'j
  | Run of int  (** the dispatched attempt is current: execute it *)
  | Retire of int  (** remove the job's persisted request file *)
  | Discard of int  (** remove the job's spool scratch *)
  | Log of string

type ('w, 'j) t

val create : config -> ('w, 'j) t

val step : ('w, 'j) t -> ('w, 'j) event -> ('w, 'j) t * ('w, 'j) action list

(** {1 Snapshot} *)

type counts = {
  completed : int;  (** worker answers, including run-time deadline expiries *)
  rejected : int;  (** refusals *)
  retries : int;
  gave_up : int;
  shed : int;  (** brownout and tenant-quota refusals *)
  over_budget : int;
  deadline_expired : int;
}

type tenant = {
  submitted : int;
  t_completed : int;
  refused : int;
  expired : int;
  t_gave_up : int;
  inflight : int;
}

val counts : ('w, 'j) t -> counts

val tenants : ('w, 'j) t -> (string * tenant) list
(** Sorted by name. *)

val tenant_stats : ('w, 'j) t -> Protocol.tenant_stat list
(** The wire rows: [tn_completed] is completed + gave up, [tn_shed] is
    every refusal. *)

val draining : ('w, 'j) t -> bool
val live : ('w, 'j) t -> int
val delayed : ('w, 'j) t -> int
val ewma_seconds : ('w, 'j) t -> float

val settled : ('w, 'j) t -> bool
(** Draining and no live job (so no delayed retry either): the shell
    may stop the scheduler. *)
