(** Reference interpreter.

    A direct, slow execution of the circuit semantics: every cycle, all
    expression-carrying nodes are evaluated in topological order, then
    registers latch and memory writes commit.  Every engine in
    [gsim_engine] must produce bit-identical traces to this interpreter;
    the test suite enforces it.

    The circuit must not be mutated after [create]. *)

module Bits = Gsim_bits.Bits

type t

val create : Circuit.t -> t

val circuit : t -> Circuit.t

val poke : t -> int -> Bits.t -> unit
(** Set an input node's value.  Raises [Invalid_argument] if the node is
    not an input or the width differs. *)

val peek : t -> int -> Bits.t
(** Current value of any node.  Combinational values are those of the last
    {!eval_comb}/{!step}. *)

val eval_comb : t -> unit
(** Settle all combinational values for the current inputs and state
    without advancing the clock. *)

val step : t -> unit
(** One clock cycle: evaluate, then latch registers (applying slow-path
    resets) and commit memory writes. *)

val run : t -> int -> unit
(** [run t n] steps [n] cycles. *)

val load_mem : t -> int -> Bits.t array -> unit
(** Initialize the contents of memory [i] (for program loading); lengths
    beyond the depth are rejected. *)

val read_mem : t -> int -> int -> Bits.t
(** [read_mem t mem addr]. *)

val write_mem_word : t -> int -> int -> Bits.t -> unit
(** [write_mem_word t mem addr v] overwrites one memory word. *)

val take_dirty_mem : t -> (int * int array) list
(** Drain the memory write barrier: [(memory index, sorted word
    indices)] for every word stored (by {!step}, {!load_mem} or
    {!write_mem_word}) since the previous drain.  The first call
    switches the barrier on and returns [[]]. *)

val force_register : t -> int -> Bits.t -> unit
(** Overwrite a register's current value (by read-node id); checkpoint
    restore. *)

val force : t -> ?mask:Bits.t -> int -> Bits.t -> bool
(** Pin the masked bits of any node to the given value until {!release}
    (fault injection).  The override survives evaluation, latching and
    pokes; returns whether the stored value changed. *)

val release : t -> int -> bool
(** Remove a {!force} override; the stored value keeps the forced bits
    until the node is next evaluated / latched / poked.  Returns whether
    an override was active. *)

val cycle_count : t -> int
