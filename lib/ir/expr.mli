(** Expressions evaluated inside a single IR node.

    An expression is a tree whose leaves are constants and references to
    other nodes ([Var]).  Every expression carries a bit width fixed at
    construction time, following FIRRTL primop width rules.  All values are
    bit patterns; signed interpretation is explicit in the dedicated signed
    operators. *)

type unop =
  | Not                    (** bitwise complement, same width *)
  | Neg                    (** two's-complement negation, width + 1 *)
  | Reduce_and             (** 1-bit AND reduction *)
  | Reduce_or
  | Reduce_xor
  | Shl_const of int       (** static shift left, width + n *)
  | Shr_const of int       (** static logical shift right, width [max 1 (w - n)] *)
  | Extract of int * int   (** [Extract (hi, lo)], width hi - lo + 1 *)
  | Pad_unsigned of int    (** zero-extend/truncate to the given width *)
  | Pad_signed of int      (** sign-extend/truncate to the given width *)

type binop =
  | Add                    (** width max + 1, modular *)
  | Sub                    (** width max + 1, two's-complement wrap *)
  | Mul                    (** width w1 + w2 *)
  | Div                    (** unsigned, width w1; x/0 = 0 *)
  | Div_signed             (** width w1 + 1, truncating; x/0 = 0 *)
  | Rem                    (** unsigned, width min w1 w2; x%0 = x (truncated) *)
  | Rem_signed             (** width min w1 w2, sign of dividend *)
  | And                    (** width max, zero-extended operands *)
  | Or
  | Xor
  | Cat                    (** first operand in the high bits, width w1 + w2 *)
  | Eq | Neq | Lt | Leq | Gt | Geq            (** unsigned, 1-bit result *)
  | Lt_signed | Leq_signed | Gt_signed | Geq_signed
  | Dshl                   (** dynamic shift left, keeps operand width *)
  | Dshr                   (** dynamic logical shift right, keeps width *)
  | Dshr_signed            (** dynamic arithmetic shift right, keeps width *)

type t = private { desc : desc; width : int }

and desc =
  | Const of Gsim_bits.Bits.t
  | Var of int             (** reference to the value of another node *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t       (** selector (any width, nonzero = true), then, else *)

(** {1 Constructors} *)

val const : Gsim_bits.Bits.t -> t
val of_int : width:int -> int -> t
val var : width:int -> int -> t
val unop : unop -> t -> t
val binop : binop -> t -> t -> t
val mux : t -> t -> t -> t
(** [mux sel a b]; [a] and [b] must have equal widths.
    Raises [Invalid_argument] on width violations. *)

val width : t -> int

(** {1 Width rules} *)

val unop_width : unop -> int -> int
val binop_width : binop -> int -> int -> int

(** {1 Evaluation} *)

val eval : (int -> Gsim_bits.Bits.t) -> t -> Gsim_bits.Bits.t
(** [eval env e] evaluates [e], reading node values through [env].  This is
    the reference semantics; the engines must agree with it. *)

val eval_unop : unop -> Gsim_bits.Bits.t -> Gsim_bits.Bits.t
val eval_binop : binop -> Gsim_bits.Bits.t -> Gsim_bits.Bits.t -> Gsim_bits.Bits.t

(** {1 Analysis} *)

val vars : t -> int list
(** Distinct node references, ascending. *)

val iter_vars : (int -> unit) -> t -> unit
(** Visits every [Var] occurrence (with repetitions). *)

val map_vars : (width:int -> int -> t) -> t -> t
(** [map_vars f e] replaces each [Var v] of width [w] by [f ~width:w v].
    The replacement must have width [w]. *)

val size : t -> int
(** Number of operator applications (constants and vars are free). *)

val cost : t -> int
(** Estimated evaluation cost in abstract operator units (wide operations
    and division cost more), the currency of the paper's inline/extract and
    activation cost models. *)

val depends_on : t -> int -> bool

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, consistent with {!equal}: equal expressions hash
    equal.  Suitable for [Hashtbl.Make]. *)

val hash_node : t -> int -> int -> int -> int
(** [hash_node e h1 h2 h3] is [hash e] given the hashes of [e]'s operands
    in order ([0] for absent ones), for passes that hash every
    subexpression bottom-up in one traversal instead of rehashing each
    subtree. *)

val pp : Format.formatter -> t -> unit

val pp_unop : Format.formatter -> unop -> unit
val pp_binop : Format.formatter -> binop -> unit
