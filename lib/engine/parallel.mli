(** Multi-threaded full-cycle engine (Verilator [--threads] model).

    Evaluated nodes are grouped by combinational level; each level is split
    across worker domains and separated from the next by a barrier, the
    level-synchronous schedule Verilator's mtask partitioner approximates.
    Registers and memories commit sequentially on the coordinating domain.

    Worker domains persist across cycles; call {!destroy} (idempotent) when
    done, otherwise the domains are joined at exit of the process. *)

module Bits = Gsim_bits.Bits
open Gsim_ir

(** Sense-reversing centralized barrier over [total] participants,
    shared with {!Repcut}.  Each participant keeps its own sense flag and
    flips it before every [wait]; latecomers spin briefly and then block
    on a condition variable. *)
module Barrier : sig
  type t

  val create : int -> t
  val wait : t -> bool -> unit
end

type t

val create :
  ?backend:Eval.backend -> ?digest:(unit -> Digest.t) -> ?forcible:int list -> threads:int ->
  Circuit.t -> t
(** [backend] defaults to {!Eval.default} ([`Auto]); [digest] is passed
    to {!Eval.select};
    [threads >= 1]; one means no worker domains (sequential).
    [forcible] declares fault-injection targets (see
    {!Full_cycle.create}). *)

val poke : t -> int -> Bits.t -> unit
val peek : t -> int -> Bits.t

val force : t -> ?mask:Bits.t -> int -> Bits.t -> unit
(** Pin the masked bits of a node until {!release}; only between steps.
    Non-input targets must appear in [create]'s [forcible] list. *)

val release : t -> int -> unit
val step : t -> unit
val load_mem : t -> int -> Bits.t array -> unit
val counters : t -> Counters.t
val destroy : t -> unit
val level_count : t -> int

val runtime : t -> Runtime.t
(** The shared value arena (dirty-memory tracking, checkpoint capture). *)

val sim : t -> Sim.t
(** The wrapper's [step] drives all domains. *)
