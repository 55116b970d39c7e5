(** C emission for the ahead-of-time native backend.

    Unlike {!Emit} (a self-contained C++ artifact with its own state
    struct), this emitter targets the running simulator's own memory: one
    C function per expression node, operating directly on the value
    arenas of {!module:Gsim_engine.Runtime}.  Narrow (<= 62-bit)
    subexpressions evaluate as [uint64_t] with the exact packed-int
    semantics of the interpreters, loaded from and stored to the narrow
    arena — an OCaml [int array] whose slots hold tagged immediates
    (value [v] stored as the machine word [2v+1]).  Wider subexpressions
    evaluate as little-endian 64-bit limb arrays matching
    {!Gsim_bits.Bits} value for value, loaded by direct indexed reads
    from the runtime's flat mirror arena (a [Bytes.t] of raw limbs laid
    out by {!wide_offsets}) and stored back to both the mirror and the
    boxed [Bits.t] slot's limb words.  Each function evaluates its
    node's expression tree, retags and stores the result, and returns
    whether the stored value changed (0/1).

    The generated translation unit is freestanding (only [<stdint.h>])
    and exports three symbols:

    - [long gsim_abi_version] — must equal {!abi_version};
    - [long gsim_node_count] — the circuit's [max_id];
    - [long (*gsim_table[])(long *, long *, long *)] — per-node-id
      function pointers taking the narrow arena, the wide flat mirror
      and the wide boxed arena, [NULL] for nodes that keep their closure
      evaluators.

    The native backend ({!module:Gsim_engine.Native}) compiles this
    source with [cc -O2 -shared -fPIC] and binds the table via [dlopen]. *)

open Gsim_ir

val abi_version : int
(** Folded into the on-disk cache digest; bump on any change to the
    emitted shape or the symbol contract. *)

val wide_offsets : Circuit.t -> int array * int
(** [wide_offsets c] is the flat-mirror layout for [c]'s wide (> 62-bit)
    nodes: per-id offsets in 64-bit-limb units ([-1] for narrow or
    absent ids) assigned in increasing id order, and the arena's total
    limb count.  The single source of truth shared by generated code
    and [Runtime.create]. *)

val compilable : Circuit.t -> Circuit.node -> bool
(** A [Logic]/[Reg_next] node whose result and every subexpression have
    width in [1, 2048].  Memory reads keep their closure evaluators. *)

type result = {
  source : string;         (** the complete C translation unit *)
  compiled_nodes : int;    (** nodes given native functions *)
  total_nodes : int;       (** nodes in evaluation order *)
}

val emit : Circuit.t -> result
