(** Crash-safe persistent fuzz corpus ([fuzz.db]).

    Append-only text, same discipline as the fault-campaign database:
    the header and already-known records are written once, each finished
    case is appended as one flushed line, and a killed campaign leaves at
    worst a torn final line that a lenient reload skips ([--resume] then
    re-runs that case).  Shards fuzzing disjoint case ranges of the same
    seed can be combined with {!merge}. *)

type finding = {
  f_subject : string;       (** setup name, e.g. ["gsim+closures"] *)
  f_kind : string;          (** ["mismatch"] / ["crash"] / ["hang"] *)
  f_culprit : string;       (** {!Bisect.culprit_token} *)
  f_nodes : int;            (** shrunk circuit size *)
  f_cycles : int;           (** shrunk stimulus length *)
  f_repro : string option;  (** repro filename; [None] when deduplicated *)
}

type entry = Ok | Fail of finding

type t = { mutable seed : int; cases : (int, entry) Hashtbl.t }

val create : ?seed:int -> unit -> t
val bucket_of : finding -> string

val add : t -> int -> entry -> unit
(** Idempotent; raises [Failure] on a conflicting duplicate. *)

val mem : t -> int -> bool
val find : t -> int -> entry option
val count : t -> int
val iter : t -> (int -> entry -> unit) -> unit
val failures : t -> (int * finding) list

type bucket_stats = {
  b_bucket : string;
  b_count : int;
  b_min_nodes : int;
  b_min_cycles : int;
  b_repro : string option;
}

val buckets : t -> bucket_stats list

val merge : t -> t -> t
(** Raises [Failure] on seed mismatch or conflicting case records. *)

val to_string : t -> string
val of_string : ?lenient:bool -> string -> t
val equal : t -> t -> bool
val save : string -> t -> unit
val load : ?lenient:bool -> string -> t

val init_file : string -> t -> unit
val append_record : string -> int -> entry -> unit
