(** The one Expr-to-C lowering, and the native backend's unit.

    {!emit_expr} lowers an expression to A-normal C over two arenas: the
    narrow arena [a] of [long] slots holding tagged values (value [v] as
    the word [2v+1], an OCaml immediate), evaluated as [uint64_t] with
    the interpreters' packed-int semantics; and the flat arena [wf] of
    raw little-endian 64-bit limbs laid out by {!wide_offsets}, for
    values wider than 62 bits, matching {!Gsim_bits.Bits} value for
    value.  Its two users each write their own store:

    - {!emit}, the native backend's unit: one C function per expression
      node over the running simulator's arenas
      ({!module:Gsim_engine.Runtime}), which also mirrors a changed wide
      value into its boxed [Bits.t] slot.  It exports
      [long gsim_abi_version] (= {!abi_version}), [long gsim_node_count]
      ([max_id]) and [long (*gsim_table[])(long *, long *, long *)]:
      per node id, a function taking the narrow, flat and boxed arenas
      that stores the node's value and returns whether it changed, or
      [NULL] for nodes that keep their closures.
      {!module:Gsim_engine.Native} compiles it with
      [cc -O2 -shared -fPIC] and binds the table via [dlopen];
    - {!Emit}: the standalone simulation unit of [gsim emit]. *)

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

val wide_max : int  (** 2048: the widest subexpression {!compilable} admits *)

val nl : int -> int  (** 64-bit limbs of a value of this width (at least 1) *)

(** A lowered value: [N e], narrow, as a [uint64_t] C expression; [W t],
    wider than 62 bits, as the name of a limb-array temporary. *)
type rep = N of string | W of string

val emit_expr : Buffer.t -> param:(int -> string) -> woff:int array -> Expr.t -> rep
(** [emit_expr b ~param ~woff e] appends the statements computing [e]
    (within {!compilable}'s widths) to [b] — one [t<n>] temporary per
    operator, so each lowered expression needs a block of its own — and
    returns the result.  [param v] renders an integer operand (node id,
    [woff] offset or packed narrow constant) as a C expression. *)

val value_helpers : string
(** The [<stdint.h>] include and the [static inline] helpers
    {!emit_expr}'s output calls: the native preamble without its header
    comment and boxed-arena store. *)

type result = {
  source : string;         (** the complete C translation unit *)
  compiled_nodes : int;    (** nodes given native functions *)
  total_nodes : int;       (** nodes in evaluation order *)
}

val emit : Circuit.t -> result
