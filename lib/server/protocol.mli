(** gsimd wire protocol.

    Every message travels as one versioned, length-prefixed frame:

    {v
      offset  size  field
      0       4     magic "gsim"
      4       1     protocol version (currently 1)
      5       1     message kind tag
      6       4     payload length, big-endian
      10      n     payload
    v}

    The payload is a flat sequence of binary-safe fields, each encoded as
    [name ' ' byte-length '\n' bytes '\n'] — repeating a name makes a
    list.  Unknown field names are ignored on decode, so fields can be
    added without a version bump; changing the meaning of an existing
    field requires one, and a peer speaking a different version is
    rejected at the frame header.

    All decode errors raise {!Error}. *)

exception Error of string

val version : int
val magic : string
val header_size : int

val max_payload : int
(** Frames larger than this are rejected on both ends (16 MiB). *)

(** {1 Addresses} *)

type address = Unix_sock of string | Tcp of string * int

val address_of_string : string -> address
(** ["host:port"] (with a numeric port and no ['/']) is TCP; anything
    else is a Unix-domain socket path. *)

val address_to_string : address -> string

(** {1 Messages} *)

type priority = Interactive | Batch

val priority_of_string : string -> priority
val priority_to_string : priority -> string

type engine_opts = {
  eo_engine : string;        (** preset name, e.g. ["gsim"] *)
  eo_backend : string;       (** ["auto"], ["native"] or ["closures"] *)
  eo_level : string option;  (** optimization-level override *)
  eo_max_supernode : int;
  eo_threads : int;
}

val default_engine_opts : engine_opts

type sim_job = {
  sj_filename : string;  (** selects the frontend by extension *)
  sj_design : string;    (** full design text *)
  sj_opts : engine_opts;
  sj_cycles : int;
  sj_pokes : string list;  (** ["name=value"] *)
  sj_token : string option;
      (** client-chosen idempotency token: resubmitting the same token
          attaches to the in-flight job (or replays its cached
          response) instead of executing twice *)
  sj_tenant : string option;
      (** fairness/accounting identity; [None] defaults per-connection *)
  sj_deadline : float;
      (** end-to-end budget in seconds from admission; [0.] = none *)
}

type campaign_job = {
  cj_filename : string;
  cj_design : string;
  cj_opts : engine_opts;
  cj_horizon : int;
  cj_budget : int;
  cj_faults : string list;  (** explicit fault keys *)
  cj_random : int;          (** extra random faults to draw *)
  cj_seed : int;
  cj_duration : int;
  cj_models : string option;  (** comma-separated model subset *)
  cj_pokes : string list;
  cj_token : string option;
  cj_tenant : string option;
  cj_deadline : float;
}

type fuzz_job = {
  fj_seed : int;
  fj_cases : int;
  fj_from : int;  (** first case index of this shard *)
  fj_cycles : int;
  fj_setups : string option;  (** comma-separated subset, e.g. ["gsim+closures"] *)
  fj_token : string option;
  fj_tenant : string option;
  fj_deadline : float;
}

type cov_job = {
  vj_filename : string;
  vj_design : string;
  vj_opts : engine_opts;
  vj_cycles : int;
  vj_pokes : string list;
  vj_token : string option;
  vj_tenant : string option;
  vj_deadline : float;
}

type request =
  | Sim of priority * sim_job
  | Campaign of priority * campaign_job
  | Fuzz of priority * fuzz_job
  | Coverage of priority * cov_job
  | Status
  | Shutdown

val request_token : request -> string option
val with_token : string -> request -> request
(** A no-op on [Status]/[Shutdown] (control requests never retry-dedup). *)

val request_design : request -> string option
(** The raw design text a job carries, if any — what the quarantine
    breaker and the chaos poison marker key on. *)

val request_filename : request -> string option
(** The filename a design-carrying job names (frontend selection). *)

val request_tenant : request -> string option
val request_deadline : request -> float
(** The job's relative deadline budget in seconds; [0.] when none. *)

type sim_result = {
  sr_engine : string;
  sr_cycles : int;
  sr_halted : bool;
  sr_outputs : (string * string) list;  (** output name, formatted value *)
  sr_cache_hit : bool;         (** passes+partition served from the plan cache *)
  sr_compile_seconds : float;
  sr_preemptions : int;
}

type db_result = {
  dr_kind : string;     (** ["fault"] / ["fuzz"] / ["coverage"] *)
  dr_text : string;     (** the database in its native text format *)
  dr_summary : string;  (** one human-readable line *)
  dr_cache_hit : bool;  (** plan and/or golden-trace reuse *)
  dr_seconds : float;   (** server-side execution time *)
}

(** Per-tenant accounting row carried by {!Status}.  Every submission
    that is not a token replay or attach ends up in exactly one of the
    last four counters, so a row {!tenant_conserves}. *)
type tenant_stat = {
  tn_tenant : string;
  tn_submitted : int;
  tn_completed : int;
      (** answered by a worker, job-level errors included, or failed
          after exhausting its retries *)
  tn_shed : int;
      (** refused without running: invalid engine options, over budget,
          brownout, queue full or tenant quota *)
  tn_expired : int;   (** deadline-exceeded before or during execution *)
  tn_inflight : int;  (** queued, running or waiting out a retry backoff *)
}

val tenant_conserves : tenant_stat -> bool
(** [submitted = completed + shed + expired + inflight]. *)

type status = {
  st_workers : int;
  st_queued : int;
  st_running : int;
  st_completed : int;
  st_rejected : int;
  st_cache_entries : int;
  st_cache_capacity : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
  st_golden_hits : int;
  st_golden_misses : int;
  st_preemptions : int;
  st_uptime : float;
  st_draining : bool;
  st_retries : int;          (** job attempts re-admitted after a worker loss *)
  st_hangs : int;            (** hung workers detected by the supervisor *)
  st_worker_crashes : int;   (** worker Domains that died mid-job *)
  st_worker_restarts : int;  (** replacement Domains spawned *)
  st_gave_up : int;          (** jobs failed after exhausting their retry budget *)
  st_quarantined : int;      (** designs currently quarantined (breaker open/probing) *)
  st_quarantine_trips : int;
  st_chaos_injected : int;   (** total faults the chaos harness injected *)
  st_shed : int;             (** jobs refused by brownout or a tenant quota *)
  st_over_budget : int;      (** jobs refused at admission cost estimation *)
  st_deadline_expired : int; (** jobs expired by their end-to-end deadline *)
  st_tenants : tenant_stat list;
}

(** Structured failure codes, wire-carried so a client can tell a
    retryable condition ([Timeout], [Worker_lost], [Queue_full]) from a
    permanent one ([Quarantined], [Protocol_violation]) without parsing
    the message text.  Codes unknown to a peer decode as [Generic]. *)
type error_code =
  | Generic
  | Refused       (** draining: resubmit to another daemon *)
  | Queue_full
  | Timeout       (** the job hung and exhausted its retries *)
  | Worker_lost   (** the worker died and retries were exhausted *)
  | Quarantined   (** the design's circuit breaker is open *)
  | Protocol_violation
  | Internal
  | Over_budget   (** refused at admission: a resource budget was exceeded *)
  | Deadline_exceeded  (** the job's end-to-end deadline passed *)
  | Overloaded    (** shed by brownout or a per-tenant quota; retry later *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code

type error_info = {
  ei_code : error_code;
  ei_message : string;
  ei_attempts : int;
  ei_retry_after : float;
      (** server's backoff hint in seconds ([0.] = none); {!Client.call_robust}
          honours it before resubmitting *)
}

type response =
  | Sim_done of sim_result
  | Db_done of db_result
  | Status_ok of status
  | Shutting_down
  | Error_resp of error_info

val error_resp :
  ?code:error_code -> ?attempts:int -> ?retry_after:float -> string -> response
(** [Generic], one attempt, no retry hint by default. *)

(** {1 Frames} *)

val frame_to_string : kind:int -> string -> string
(** Raises {!Error} if the payload exceeds {!max_payload}. *)

val frame_of_string : string -> int * string
(** Parses exactly one whole frame; raises {!Error} on truncation, bad
    magic, an unsupported version or an out-of-range length. *)

val parse_header : string -> int * int
(** [(kind, payload_length)] from exactly {!header_size} bytes — for
    callers doing their own deadline-aware socket reads ({!Client}). *)

val response_of_frame : int -> string -> response
(** Decode a response from its kind tag and payload bytes. *)

val encode_request : request -> string
(** The complete frame bytes. *)

val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

(** {1 Channel I/O} *)

val read_request : in_channel -> request option
(** [None] on clean EOF at a frame boundary; {!Error} mid-frame. *)

val write_request : out_channel -> request -> unit
val read_response : in_channel -> response option
val write_response : out_channel -> response -> unit
