(** Engine-independent simulator handle.

    Every engine wraps itself in this record so that testbenches, example
    programs and the benchmark harness can drive any simulator — including
    the {!Gsim_ir.Reference} interpreter — through one interface. *)

module Bits = Gsim_bits.Bits
open Gsim_ir

type t = {
  sim_name : string;
  circuit : Circuit.t;
  poke : int -> Bits.t -> unit;
  peek : int -> Bits.t;
  peek_int : int -> int;
      (** Low 62 bits of a node's value; engines over a {!Runtime} read
          the arena directly and allocate nothing. *)
  step : unit -> unit;
  load_mem : int -> Bits.t array -> unit;
  read_mem : int -> int -> Bits.t;
  write_mem : int -> int -> Bits.t -> unit;
      (** [write_mem mem addr v] overwrites one memory word (a sparse
          fork); follow with {!field-invalidate} on activity engines. *)
  take_dirty_mem : unit -> (int * int array) list;
      (** Drain the memory write barrier: [(memory index, sorted word
          indices)] for every word stored since the previous drain, by
          {!field-step}, {!field-load_mem} or {!field-write_mem}.  The
          first call switches the barrier on and returns [[]]; while it
          is on, the memories equal their contents at that call plus the
          words drained since. *)
  write_reg : int -> Bits.t -> unit;
      (** Force a register's current value (by read-node id) — checkpoint
          restore; follow with {!field-invalidate} on activity engines. *)
  force : ?mask:Bits.t -> int -> Bits.t -> unit;
      (** Pin the masked bits of a node to a value until {!field-release}
          (fault injection); wakes the node's consumers on activity
          engines.  Non-input targets must have been declared forcible at
          engine build time ([Gsim.instantiate ~forcible], or the
          engine's [create ~forcible]); raises [Invalid_argument]
          otherwise.  Default mask: all ones. *)
  release : int -> unit;
      (** Remove a force override.  The node recomputes on the next step
          (registers re-latch); an input keeps the last forced value
          until re-poked. *)
  invalidate : unit -> unit;
      (** Mark all state suspect: activity engines re-evaluate everything
          on the next step.  No-op for full-cycle engines. *)
  counters : unit -> Counters.t;
}

val run : t -> int -> unit
(** [run t n] steps [n] cycles. *)

val peek_int : t -> int -> int
(** Low 62 bits of a node's value as an int ({!field-peek_int}). *)

val parse_pokes : Circuit.t -> string list -> (int * Bits.t) list
(** Resolve ["name=value"] input assignments against the circuit;
    raises [Failure] on an unknown name or a malformed spec. *)

val run_to_halt : ?halt:int -> t -> int -> int * bool
(** [run_to_halt ?halt t n] steps up to [n] cycles and stops after the
    first cycle that leaves the one-bit [halt] node nonzero.  Returns the
    cycles stepped and whether the halt fired. *)

val outputs : t -> Circuit.t -> (string * string) list
(** Every output of [circuit] with its current value, formatted by
    {!Bits.pp}. *)

val poke_int : t -> int -> int -> unit
(** Poke an input by int; the value is truncated to the node's width. *)

val of_reference : Reference.t -> t
(** Wrap the reference interpreter. *)

val trace :
  t -> observe:int list -> stimulus:(int * Bits.t) list array -> Bits.t list array
(** [trace t ~observe ~stimulus] applies [stimulus.(i)] before cycle [i],
    steps, and records the values of [observe] after each cycle.  Used to
    compare engines for bit-identical behaviour. *)

val equal_traces : Bits.t list array -> Bits.t list array -> bool
