(** Full-cycle engine (Verilator's model).

    Every expression-carrying node is evaluated every cycle in a fixed
    topological order; registers then latch and memory writes commit.
    No activity tracking: [A_exam] and [A_succ] are zero, the activity
    factor is 1. *)

module Bits = Gsim_bits.Bits
open Gsim_ir

type t

val create :
  ?backend:Eval.backend -> ?digest:(unit -> Digest.t) -> ?forcible:int list -> Circuit.t -> t
(** [backend] defaults to {!Eval.default} ([`Auto]); [digest] is passed
    to {!Eval.select}.  [forcible]
    declares fault-injection targets: those nodes evaluate through
    guarded closures (never inside native runs) so {!force} overrides
    are visible to every consumer. *)

val poke : t -> int -> Bits.t -> unit
val peek : t -> int -> Bits.t

val force : t -> ?mask:Bits.t -> int -> Bits.t -> unit
(** Pin the masked bits of a node until {!release}.  Non-input targets
    must appear in [create]'s [forcible] list. *)

val release : t -> int -> unit
val step : t -> unit
val load_mem : t -> int -> Bits.t array -> unit
val counters : t -> Counters.t
val runtime : t -> Runtime.t

val sim : t -> Sim.t
