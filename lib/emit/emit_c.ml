module Bits = Gsim_bits.Bits
open Gsim_ir

(* The ABI version is folded into the cache digest by the native backend:
   bump it whenever the emitted shape, helper semantics, or the exported
   symbol contract changes, and stale cached objects stop matching.
   v2: wide (> 62-bit) values compile too, and every generated function
   takes the wide arena as a second parameter.
   v3: one load per distinct variable in a node's expression, and
   [Extract (hi, 0)] lowers to a plain mask. *)
let abi_version = 3

(* Per-subexpression width cap for wide emission: bounds the generated
   functions' stack temporaries and the helpers' fixed scratch arrays.
   Real datapaths sit far below it; anything wider keeps its closure. *)
let wide_max = 2048

(* Every subexpression width lies in [1, wide_max]. *)
let rec expr_supported c (e : Expr.t) =
  let w = Expr.width e in
  w >= 1 && w <= wide_max
  && (match e.Expr.desc with
      | Expr.Const _ -> true
      | Expr.Var v -> (Circuit.node c v).Circuit.width = w
      | Expr.Unop (_, a) -> expr_supported c a
      | Expr.Binop (_, a, b) -> expr_supported c a && expr_supported c b
      | Expr.Mux (s, a, b) ->
        expr_supported c s && expr_supported c a && expr_supported c b)

let compilable c (nd : Circuit.node) =
  match (nd.Circuit.kind, nd.Circuit.expr) with
  | (Circuit.Logic | Circuit.Reg_next _), Some e -> expr_supported c e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expression emission                                                 *)
(* ------------------------------------------------------------------ *)

(* The narrow arena is the runtime's [int array] seen from C: each slot
   holds an OCaml immediate, i.e. the packed value [v] stored as the
   machine word [2v+1].  Generated code untags on load ([>> 1]; values
   are nonnegative so the sign bit is clear) and retags on store
   ([<< 1 | 1]).  Wide values live natively in the runtime's flat
   mirror arena — raw little-endian 64-bit limbs at per-node offsets
   from [wide_offsets] — and in the boxed [Bits.t] arena, whose tagged
   31-bit limb words a store rewrites (in place) whenever the value
   changes, so every OCaml-side reader stays current.  The OCaml side
   never replaces a native node's vector, and every OCaml consumer
   copies on store/peek, so in-place mutation is invisible.

   Expressions are lowered to A-normal form — one [t<n>] temporary per
   operator, one load per distinct variable — so nested operands are
   never duplicated and code size stays linear in expression size.

   Structurally identical nodes share one function body.  Slot ids and
   narrow constants are emitted as [K[i]] references into a per-node
   constant table, so a node's body text depends only on its shape
   (operators and widths); each node then becomes a tiny thunk passing
   its own table to the shared shape function.  Real designs repeat the
   same few datapath shapes across lanes and stages, so this collapses
   the generated text — and, more importantly, the instruction-cache
   footprint of a full sweep — by an order of magnitude. *)

let bpf = Printf.bprintf

(* Limb count of a wide temporary in the native representation — raw
   little-endian 64-bit limbs, unlike [Bits.t]'s tagged 31-bit limbs;
   >= 1 so zero-length C arrays never appear. *)
let nl w = max 1 ((w + 63) / 64)

(* Flat-mirror layout for wide values: every wide node (width > 62) gets
   a contiguous region of raw 64-bit limbs in the runtime's flat mirror
   arena, assigned in increasing node-id order.  Returns the per-id
   offset array in limb units (-1 for narrow or absent ids) and the
   total limb count.  Both the emitter and [Runtime.create] derive the
   layout from this one function, so the offsets baked into generated
   code always match the arena the runtime passes in. *)
let wide_offsets c =
  let n = Circuit.max_id c in
  let off = Array.make (max n 1) (-1) in
  let total = ref 0 in
  for id = 0 to n - 1 do
    match Circuit.node_opt c id with
    | Some nd when not (Bits.fits_int nd.Circuit.width) ->
      off.(id) <- !total;
      total := !total + nl nd.Circuit.width
    | _ -> ()
  done;
  (off, !total)

(* An emitted subexpression: [N] narrow — a C uint64_t expression (temp
   name or literal) holding the packed value; [W] wide — the name of a
   normalized limb-array temporary.  Invariant: [W] exactly when the
   subexpression is wider than 62 bits, mirroring the I/B split of
   [Runtime.compile]. *)
type rep = N of string | W of string

(* [param v] records [v] in the node's constant table and returns the C
   expression reading it back ([K[i]]). *)
let emit_expr b ~param ~woff (e : Expr.t) =
  let fresh =
    let n = ref 0 in
    fun () ->
      let t = Printf.sprintf "t%d" !n in
      incr n;
      t
  in
  let bind rhs =
    let t = fresh () in
    bpf b "  uint64_t %s = %s;\n" t rhs;
    t
  in
  let bind_w w =
    let t = fresh () in
    bpf b "  uint64_t %s[%d];\n" t (nl w);
    t
  in
  let mask w = Printf.sprintf "GSIM_MASK(%d)" w in
  (* Operand coercion into the wide representation ([Runtime.as_bits]):
     a narrow value splits into limbs at bit 31. *)
  let to_wide r w =
    match r with
    | W t -> t
    | N x ->
      let t = bind_w w in
      bpf b "  gsim_wofu64(%s, %d, %d, %s);\n" t (nl w) w x;
      t
  in
  (* Result coercion out of a wide op ([Bits.to_packed] at the I/B
     boundary): a wide temp of width <= 62 reads back as a scalar. *)
  let finish w t =
    if Bits.fits_int w then
      N (bind (Printf.sprintf "gsim_wtou64(%s, %d)" t (nl w)))
    else W t
  in
  (* Clamped dynamic shift amount ([Bits.shift_amount]): anything with a
     set bit at position >= 30 becomes a sentinel larger than any
     representable width. *)
  let shift_amt r w2 =
    match r with
    | W t -> bind (Printf.sprintf "gsim_wshamt(%s, %d, %d)" t (nl w2) w2)
    | N x ->
      if w2 <= 30 then x
      else bind (Printf.sprintf "(%s >> 30) ? (UINT64_C(1) << 40) : (%s & %s)" x x (mask 30))
  in
  (* A variable read twice shares its load.  The shared temporary shows
     in the body text, so [x op x] and [x op y] never share a shape. *)
  let loads = Hashtbl.create 8 in
  let rec go (e : Expr.t) : rep =
    let w = Expr.width e in
    match e.Expr.desc with
    | Expr.Const bits ->
      if Bits.fits_int w then N (Printf.sprintf "((uint64_t)%s)" (param (Bits.to_packed bits)))
      else begin
        (* Wide constants stay literal: they are part of the shape, and
           distinct-valued wide constants simply make distinct shapes
           (they are rare). *)
        let t = fresh () in
        let limbs =
          List.init (nl w) (fun i -> Printf.sprintf "UINT64_C(%Lu)" (Bits.limb64 bits i))
        in
        bpf b "  static const uint64_t %s[%d] = {%s};\n" t (nl w)
          (String.concat ", " limbs);
        W t
      end
    | Expr.Var v -> (
      match Hashtbl.find_opt loads v with
      | Some r -> r
      | None ->
        let r =
          if Bits.fits_int w then N (bind (Printf.sprintf "(uint64_t)(a[%s] >> 1)" (param v)))
          else begin
            let t = bind_w w in
            bpf b "  gsim_wload(%s, %d, wf, %s);\n" t (nl w) (param woff.(v));
            W t
          end
        in
        Hashtbl.add loads v r;
        r)
    | Expr.Unop (op, a) ->
      let wa = Expr.width a in
      let ra = go a in
      (match ra with
       | N x when Bits.fits_int w ->
         (* Narrow operand, narrow result: the packed-int interpreters'
            semantics verbatim. *)
         N
           (match op with
            | Expr.Not -> bind (Printf.sprintf "~%s & %s" x (mask wa))
            | Expr.Neg -> bind (Printf.sprintf "(UINT64_C(0) - %s) & %s" x (mask (wa + 1)))
            | Expr.Reduce_and -> bind (Printf.sprintf "%s == %s" x (mask wa))
            | Expr.Reduce_or -> bind (Printf.sprintf "%s != 0" x)
            | Expr.Reduce_xor ->
              bind (Printf.sprintf "(uint64_t)__builtin_parityll(%s)" x)
            | Expr.Shl_const n -> bind (Printf.sprintf "%s << %d" x n)
            | Expr.Shr_const n -> bind (Printf.sprintf "%s >> %d" x n)
            | Expr.Extract (hi, 0) -> bind (Printf.sprintf "%s & %s" x (mask (hi + 1)))
            | Expr.Extract (hi, lo) ->
              bind (Printf.sprintf "(%s >> %d) & %s" x lo (mask (hi - lo + 1)))
            | Expr.Pad_unsigned n ->
              if n >= wa then x else bind (Printf.sprintf "%s & %s" x (mask n))
            | Expr.Pad_signed n ->
              if n >= wa then
                bind (Printf.sprintf "(uint64_t)gsim_sx(%s, %d) & %s" x wa (mask n))
              else bind (Printf.sprintf "%s & %s" x (mask n)))
       | _ ->
         (* Wide path: [Expr.eval_unop] over [Bits], limb for limb. *)
         let xa = to_wide ra wa in
         let an = nl wa in
         (match op with
          | Expr.Not ->
            let t = bind_w w in
            bpf b "  gsim_wnot(%s, %d, %d, %s, %d);\n" t (nl w) w xa an;
            finish w t
          | Expr.Neg ->
            (* neg = (2^w - v) mod 2^w at w = wa + 1. *)
            let t = bind_w w in
            bpf b "  gsim_wnegt(%s, %d, %d, %s, %d);\n" t (nl w) w xa an;
            finish w t
          | Expr.Reduce_and ->
            N (bind (Printf.sprintf "(uint64_t)gsim_wisones(%s, %d, %d)" xa an wa))
          | Expr.Reduce_or ->
            N (bind (Printf.sprintf "(uint64_t)!gsim_wiszero(%s, %d)" xa an))
          | Expr.Reduce_xor ->
            N (bind (Printf.sprintf "(uint64_t)(gsim_wpopcount(%s, %d) & 1)" xa an))
          | Expr.Shl_const n ->
            let t = bind_w w in
            bpf b "  gsim_wzero(%s, %d);\n" t (nl w);
            bpf b "  gsim_worshift(%s, %d, %s, %d, %d);\n" t (nl w) xa an n;
            finish w t
          | Expr.Shr_const n ->
            if n >= wa then N "UINT64_C(0)"
            else begin
              let t = bind_w w in
              bpf b "  gsim_wextract(%s, %d, %d, %s, %d, %d);\n" t (nl w) w xa an n;
              finish w t
            end
          | Expr.Extract (_, lo) ->
            let t = bind_w w in
            bpf b "  gsim_wextract(%s, %d, %d, %s, %d, %d);\n" t (nl w) w xa an lo;
            finish w t
          | Expr.Pad_unsigned _ ->
            let t = bind_w w in
            bpf b "  gsim_wresize(%s, %d, %d, %s, %d);\n" t (nl w) w xa an;
            finish w t
          | Expr.Pad_signed n ->
            let t = bind_w w in
            if n >= wa then
              bpf b "  gsim_wsext(%s, %d, %d, %s, %d, %d);\n" t (nl w) w xa an wa
            else bpf b "  gsim_wresize(%s, %d, %d, %s, %d);\n" t (nl w) w xa an;
            finish w t))
    | Expr.Binop (op, a, b') ->
      let w1 = Expr.width a and w2 = Expr.width b' in
      let ra = go a in
      let rb = go b' in
      let sx e' we = Printf.sprintf "gsim_sx(%s, %d)" e' we in
      (match (ra, rb) with
       | N x, N y when Bits.fits_int w ->
         N
           (match op with
            | Expr.Add -> bind (Printf.sprintf "(%s + %s) & %s" x y (mask w))
            | Expr.Sub -> bind (Printf.sprintf "(%s - %s) & %s" x y (mask w))
            | Expr.Mul -> bind (Printf.sprintf "%s * %s" x y)
            | Expr.Div -> bind (Printf.sprintf "gsim_divu(%s, %s)" x y)
            | Expr.Div_signed ->
              bind (Printf.sprintf "gsim_divs(%s, %s) & %s" (sx x w1) (sx y w2) (mask w))
            | Expr.Rem -> bind (Printf.sprintf "gsim_remu(%s, %s) & %s" x y (mask w))
            | Expr.Rem_signed ->
              bind (Printf.sprintf "gsim_rems(%s, %s) & %s" (sx x w1) (sx y w2) (mask w))
            | Expr.And -> bind (Printf.sprintf "%s & %s" x y)
            | Expr.Or -> bind (Printf.sprintf "%s | %s" x y)
            | Expr.Xor -> bind (Printf.sprintf "%s ^ %s" x y)
            | Expr.Cat -> bind (Printf.sprintf "(%s << %d) | %s" x w2 y)
            | Expr.Eq -> bind (Printf.sprintf "%s == %s" x y)
            | Expr.Neq -> bind (Printf.sprintf "%s != %s" x y)
            | Expr.Lt -> bind (Printf.sprintf "%s < %s" x y)
            | Expr.Leq -> bind (Printf.sprintf "%s <= %s" x y)
            | Expr.Gt -> bind (Printf.sprintf "%s > %s" x y)
            | Expr.Geq -> bind (Printf.sprintf "%s >= %s" x y)
            | Expr.Lt_signed -> bind (Printf.sprintf "%s < %s" (sx x w1) (sx y w2))
            | Expr.Leq_signed -> bind (Printf.sprintf "%s <= %s" (sx x w1) (sx y w2))
            | Expr.Gt_signed -> bind (Printf.sprintf "%s > %s" (sx x w1) (sx y w2))
            | Expr.Geq_signed -> bind (Printf.sprintf "%s >= %s" (sx x w1) (sx y w2))
            | Expr.Dshl ->
              bind (Printf.sprintf "%s >= %d ? 0 : (%s << %s) & %s" y w1 x y (mask w1))
            | Expr.Dshr -> bind (Printf.sprintf "%s >= %d ? 0 : %s >> %s" y w1 x y)
            | Expr.Dshr_signed ->
              bind
                (Printf.sprintf
                   "%s >= %d ? ((%s >> %d) ? %s : 0) : (uint64_t)(%s >> %s) & %s"
                   y w1 x (w1 - 1) (mask w1) (sx x w1) y (mask w1)))
       | _ -> (
         (* Wide path: [Expr.eval_binop] over [Bits], limb for limb.
            Dynamic shifts take the clamped amount straight from the
            amount's own representation; everything else coerces both
            operands to limbs first. *)
         match op with
         | Expr.Dshl | Expr.Dshr | Expr.Dshr_signed ->
           let xa = to_wide ra w1 in
           let amt = shift_amt rb w2 in
           let fn =
             match op with
             | Expr.Dshl -> "gsim_wdshl"
             | Expr.Dshr -> "gsim_wdshr"
             | _ -> "gsim_wdshrs"
           in
           let t = bind_w w in
           bpf b "  %s(%s, %d, %d, %s, %d, %s);\n" fn t (nl w) w xa (nl w1) amt;
           finish w t
         | _ ->
           let x = to_wide ra w1 in
           let y = to_wide rb w2 in
           let n1 = nl w1 and n2 = nl w2 in
           let rn = nl w in
           let cmp op_c =
             N (bind (Printf.sprintf "(uint64_t)(gsim_wcmp(%s, %d, %s, %d) %s 0)" x n1 y n2 op_c))
           in
           let cmps op_c =
             N
               (bind
                  (Printf.sprintf "(uint64_t)(gsim_wcmps(%s, %d, %d, %s, %d, %d) %s 0)"
                     x n1 w1 y n2 w2 op_c))
           in
           (match op with
            | Expr.Add ->
              let t = bind_w w in
              bpf b "  gsim_wadd(%s, %d, %s, %d, %s, %d);\n" t rn x n1 y n2;
              bpf b "  gsim_wnorm(%s, %d, %d);\n" t rn w;
              finish w t
            | Expr.Sub ->
              let t = bind_w w in
              bpf b "  gsim_wsub(%s, %d, %d, %s, %d, %s, %d);\n" t rn w x n1 y n2;
              finish w t
            | Expr.Mul ->
              let t = bind_w w in
              bpf b "  gsim_wmul(%s, %d, %d, %s, %d, %s, %d);\n" t rn w x n1 y n2;
              finish w t
            | Expr.Div ->
              (* w = w1; the remainder scratch is dead. *)
              let t = bind_w w in
              let r = bind_w w in
              bpf b "  gsim_wdivmod(%s, %s, %d, %s, %d, %s, %d, %d);\n" t r w1 x n1 y n2 w2;
              finish w t
            | Expr.Rem ->
              (* divmod's remainder has width w1; resize to min w1 w2. *)
              let q = bind_w w1 in
              let r = bind_w w1 in
              bpf b "  gsim_wdivmod(%s, %s, %d, %s, %d, %s, %d, %d);\n" q r w1 x n1 y n2 w2;
              let t = bind_w w in
              bpf b "  gsim_wresize(%s, %d, %d, %s, %d);\n" t rn w r n1;
              finish w t
            | Expr.Div_signed ->
              let t = bind_w w in
              bpf b "  gsim_wdivs(%s, %d, %d, %s, %d, %d, %s, %d, %d);\n" t rn w x n1 w1 y
                n2 w2;
              finish w t
            | Expr.Rem_signed ->
              let t = bind_w w in
              bpf b "  gsim_wrems(%s, %d, %d, %s, %d, %d, %s, %d, %d);\n" t rn w x n1 w1 y
                n2 w2;
              finish w t
            | Expr.And | Expr.Or | Expr.Xor ->
              let fn =
                match op with
                | Expr.And -> "gsim_wand"
                | Expr.Or -> "gsim_wor"
                | _ -> "gsim_wxor"
              in
              let t = bind_w w in
              bpf b "  %s(%s, %d, %s, %d, %s, %d);\n" fn t rn x n1 y n2;
              finish w t
            | Expr.Cat ->
              let t = bind_w w in
              bpf b "  gsim_wcat(%s, %d, %s, %d, %s, %d, %d);\n" t rn x n1 y n2 w2;
              finish w t
            | Expr.Eq -> cmp "=="
            | Expr.Neq -> cmp "!="
            | Expr.Lt -> cmp "<"
            | Expr.Leq -> cmp "<="
            | Expr.Gt -> cmp ">"
            | Expr.Geq -> cmp ">="
            | Expr.Lt_signed -> cmps "<"
            | Expr.Leq_signed -> cmps "<="
            | Expr.Gt_signed -> cmps ">"
            | Expr.Geq_signed -> cmps ">="
            | Expr.Dshl | Expr.Dshr | Expr.Dshr_signed -> assert false)))
    | Expr.Mux (s, a, b') ->
      (* Both arms are pure, so eager evaluation plus a select is
         bit-identical to the interpreters' lazy arms. *)
      let ws = Expr.width s in
      let rs = go s in
      let sel =
        match rs with
        | N x -> x
        | W t -> bind (Printf.sprintf "(uint64_t)!gsim_wiszero(%s, %d)" t (nl ws))
      in
      let ra = go a in
      let rb = go b' in
      (match (ra, rb) with
       | N x, N y -> N (bind (Printf.sprintf "%s ? %s : %s" sel x y))
       | _ ->
         let x = to_wide ra w and y = to_wide rb w in
         let t = bind_w w in
         bpf b "  gsim_wmux(%s, %d, %s, %s, %s);\n" t (nl w) sel x y;
         finish w t)
  in
  go e

let fn_name id = Printf.sprintf "gsim_n%d" id

(* Interned shape bodies: body text -> shared function name. *)
type shapes = {
  tbl : (string, string) Hashtbl.t;
  mutable next_shape : int;
}

let emit_node b shapes ~woff (nd : Circuit.node) =
  let id = nd.Circuit.id in
  let e =
    match nd.Circuit.expr with
    | Some e -> e
    | None -> invalid_arg "Emit_c.emit_node: missing expression"
  in
  let body = Buffer.create 256 in
  let params = ref [] in
  let nparams = ref 0 in
  let param v =
    params := v :: !params;
    let i = !nparams in
    incr nparams;
    Printf.sprintf "K[%d]" i
  in
  (match emit_expr body ~param ~woff e with
   | N r ->
     bpf body "  long w = (long)((%s << 1) | 1);\n" r;
     bpf body "  long *p = a + %s;\n" (param id);
     Buffer.add_string body "  if (w == *p) return 0;\n  *p = w;\n  return 1;\n"
   | W t ->
     bpf body "  return gsim_wstore(wf, %s, wd, %s, %s, %d, %d);\n" (param woff.(id))
       (param id) t (nl nd.Circuit.width) nd.Circuit.width);
  let key = Buffer.contents body in
  let shape =
    match Hashtbl.find_opt shapes.tbl key with
    | Some s -> s
    | None ->
      let s = Printf.sprintf "gsim_s%d" shapes.next_shape in
      shapes.next_shape <- shapes.next_shape + 1;
      Hashtbl.add shapes.tbl key s;
      bpf b "static long %s(long *a, long *wf, long *wd, const long *K) {\n" s;
      Buffer.add_string b "  (void)a; (void)wf; (void)wd; (void)K;\n";
      Buffer.add_buffer b body;
      Buffer.add_string b "}\n\n";
      s
  in
  bpf b "/* %s : %d bits */\n" nd.Circuit.name nd.Circuit.width;
  bpf b "static long %s(long *a, long *wf, long *wd) {\n" (fn_name id);
  bpf b "  static const long K[] = {%s};\n"
    (String.concat "," (List.rev_map string_of_int !params));
  bpf b "  return %s(a, wf, wd, K);\n" shape;
  Buffer.add_string b "}\n\n"

(* The native preamble, in order; {!Emit} shares [value_helpers], the
   parts that do not concern the boxed [Bits.t] arena. *)
let native_header =
  {|/* Generated by gsim's native backend.  Do not edit.
 *
 * ABI v2: each function takes the simulator's three value arenas
 * (a = narrow, wf = wide flat mirror, wd = wide boxed).  The narrow
 * arena is an OCaml [int array]: every slot holds a tagged immediate,
 * i.e. the packed value v stored as the machine word 2v+1.  The flat
 * mirror is an OCaml [Bytes.t] of raw little-endian 64-bit limbs (no
 * tag bits — the GC never scans bytes): every wide node owns a
 * contiguous region at a compile-time offset, so wide loads are direct
 * indexed reads with no pointer chasing and no untagging.  The boxed
 * arena is an OCaml [Bits.t array]: every slot points to a record
 * whose second field is the tagged 31-bit limb array.  A function
 * evaluates one node, stores the result into the node's narrow slot or
 * into its wide region (mirror first, then — only on change — the
 * boxed limb words, keeping the two views identical), and returns
 * whether the stored value changed.
 *
 * Narrow semantics mirror lib/engine/runtime.ml's packed-int
 * interpreters exactly; wide semantics match lib/bits/bits.ml value
 * for value (including every normalization point) on a 64-bit limb
 * representation.
 */
|}

let scalar_helpers =
  {|#include <stdint.h>

#define GSIM_MASK(w) ((UINT64_C(1) << (w)) - 1)

static inline int64_t gsim_sx(uint64_t x, int w) {
  return (int64_t)(x << (64 - w)) >> (64 - w);
}
static inline uint64_t gsim_divu(uint64_t x, uint64_t y) {
  return y == 0 ? 0 : x / y;
}
static inline uint64_t gsim_remu(uint64_t x, uint64_t y) {
  return y == 0 ? x : x % y;
}
static inline uint64_t gsim_divs(int64_t x, int64_t y) {
  return y == 0 ? 0 : (uint64_t)(x / y);
}
static inline uint64_t gsim_rems(int64_t x, int64_t y) {
  return y == 0 ? (uint64_t)x : (uint64_t)(x % y);
}

|}

let boxed_note =
  {|/* ---- wide values: raw little-endian 64-bit limbs.
 *
 * This is the native representation only: the flat mirror arena and
 * every in-function temporary hold full 64-bit limbs with no tag bits.
 * The boxed [Bits.t] world keeps its tagged 31-bit limbs; gsim_wstore
 * translates on the way out (and Bits.limb64 on the way in). */

#define GSIM_LIMB31_MASK UINT64_C(0x7FFFFFFF)
|}

let limb_helpers =
  {|#define GSIM_NLIMBS(w) (((w) + 63) / 64)
/* Subexpression widths are capped at 2048 bits by the emitter's gate;
   helper intermediates go one bit further (divmod remainders). */
#define GSIM_WSCRATCH (GSIM_NLIMBS(2049) + 1)

static inline uint64_t gsim_wtopmask(int w) {
  int r = w % 64;
  return r == 0 ? ~UINT64_C(0) : ((UINT64_C(1) << r) - 1);
}
static inline void gsim_wnorm(uint64_t *v, int n, int w) {
  v[n - 1] &= gsim_wtopmask(w);
}
static inline uint64_t gsim_wlimb(const uint64_t *a, int na, int i) {
  return i < na ? a[i] : 0;
}
static inline void gsim_wzero(uint64_t *r, int n) {
  for (int i = 0; i < n; i++) r[i] = 0;
}
/* resize_unsigned: zero-extend or truncate (and normalize) to w bits. */
static inline void gsim_wresize(uint64_t *r, int n, int w,
                                const uint64_t *a, int na) {
  for (int i = 0; i < n; i++) r[i] = gsim_wlimb(a, na, i);
  gsim_wnorm(r, n, w);
}
static inline int gsim_wmsb(const uint64_t *a, int na, int w) {
  return (int)((gsim_wlimb(a, na, (w - 1) >> 6) >> ((w - 1) & 63)) & 1);
}
/* sign_extend from wa to w >= wa bits. */
static inline void gsim_wsext(uint64_t *r, int n, int w,
                              const uint64_t *a, int na, int wa) {
  if (!gsim_wmsb(a, na, wa)) { gsim_wresize(r, n, w, a, na); return; }
  for (int i = 0; i < n; i++) r[i] = ~UINT64_C(0);
  for (int i = 0; i < na; i++) r[i] = a[i];
  r[na - 1] = a[na - 1] | ~gsim_wtopmask(wa);
  gsim_wnorm(r, n, w);
}
static inline void gsim_wnot(uint64_t *r, int n, int w,
                             const uint64_t *a, int na) {
  for (int i = 0; i < n; i++) r[i] = ~gsim_wlimb(a, na, i);
  gsim_wnorm(r, n, w);
}
static inline void gsim_wand(uint64_t *r, int n, const uint64_t *a, int na,
                             const uint64_t *b, int nb) {
  for (int i = 0; i < n; i++) r[i] = gsim_wlimb(a, na, i) & gsim_wlimb(b, nb, i);
}
static inline void gsim_wor(uint64_t *r, int n, const uint64_t *a, int na,
                            const uint64_t *b, int nb) {
  for (int i = 0; i < n; i++) r[i] = gsim_wlimb(a, na, i) | gsim_wlimb(b, nb, i);
}
static inline void gsim_wxor(uint64_t *r, int n, const uint64_t *a, int na,
                             const uint64_t *b, int nb) {
  for (int i = 0; i < n; i++) r[i] = gsim_wlimb(a, na, i) ^ gsim_wlimb(b, nb, i);
}
/* r = a + b over n limbs (operands read as zero beyond their length);
   the caller normalizes to the result width.  Carry detection: the
   first add wraps iff the sum is below an operand; adding a 0/1 carry
   wraps iff the result is below the carry-free sum. */
static inline void gsim_wadd(uint64_t *r, int n, const uint64_t *a, int na,
                             const uint64_t *b, int nb) {
  uint64_t carry = 0;
  for (int i = 0; i < n; i++) {
    uint64_t x = gsim_wlimb(a, na, i);
    uint64_t s = x + gsim_wlimb(b, nb, i);
    uint64_t c1 = s < x;
    uint64_t s2 = s + carry;
    carry = c1 | (s2 < s);
    r[i] = s2;
  }
}
/* r = (a - b) mod 2^w (a + ~b + 1 over zero-extended operands). */
static inline void gsim_wsub(uint64_t *r, int n, int w, const uint64_t *a,
                             int na, const uint64_t *b, int nb) {
  uint64_t carry = 1;
  for (int i = 0; i < n; i++) {
    uint64_t x = gsim_wlimb(a, na, i);
    uint64_t s = x + ~gsim_wlimb(b, nb, i);
    uint64_t c1 = s < x;
    uint64_t s2 = s + carry;
    carry = c1 | (s2 < s);
    r[i] = s2;
  }
  gsim_wnorm(r, n, w);
}
/* r = (-a) mod 2^w: two's complement truncated to w bits.  In-place
   safe (r may alias a). */
static inline void gsim_wnegt(uint64_t *r, int n, int w, const uint64_t *a, int na) {
  uint64_t carry = 1;
  for (int i = 0; i < n; i++) {
    uint64_t x = ~gsim_wlimb(a, na, i);
    uint64_t s = x + carry;
    carry = s < x;
    r[i] = s;
  }
  gsim_wnorm(r, n, w);
}
/* Schoolbook multiply; unsigned __int128 holds the 64x64 partial
   products (the backend requires gcc/clang anyway — see the other
   builtins). */
static inline void gsim_wmul(uint64_t *r, int n, int w, const uint64_t *a,
                             int na, const uint64_t *b, int nb) {
  gsim_wzero(r, n);
  for (int i = 0; i < na; i++) {
    uint64_t ai = a[i];
    if (ai == 0) continue;
    uint64_t carry = 0;
    for (int j = 0; j < nb; j++) {
      int k = i + j;
      if (k < n) {
        unsigned __int128 x = (unsigned __int128)ai * b[j] + r[k] + carry;
        r[k] = (uint64_t)x;
        carry = (uint64_t)(x >> 64);
      }
    }
    for (int k = i + nb; carry != 0 && k < n; k++) {
      uint64_t x = r[k] + carry;
      carry = x < carry;
      r[k] = x;
    }
  }
  gsim_wnorm(r, n, w);
}
static inline int gsim_wcmp(const uint64_t *a, int na, const uint64_t *b, int nb) {
  int n = na > nb ? na : nb;
  for (int i = n - 1; i >= 0; i--) {
    uint64_t la = gsim_wlimb(a, na, i), lb = gsim_wlimb(b, nb, i);
    if (la != lb) return la < lb ? -1 : 1;
  }
  return 0;
}
static inline int gsim_wiszero(const uint64_t *a, int na) {
  for (int i = 0; i < na; i++)
    if (a[i] != 0) return 0;
  return 1;
}
static inline int gsim_wisones(const uint64_t *a, int na, int w) {
  for (int i = 0; i < na - 1; i++)
    if (a[i] != ~UINT64_C(0)) return 0;
  return a[na - 1] == gsim_wtopmask(w);
}
static inline int gsim_wpopcount(const uint64_t *a, int na) {
  int c = 0;
  for (int i = 0; i < na; i++) c += __builtin_popcountll(a[i]);
  return c;
}
/* compare_signed: sign cases first, both-negative compares
   sign-extended to the max width. */
static inline int gsim_wcmps(const uint64_t *a, int na, int wa,
                             const uint64_t *b, int nb, int wb) {
  int sa = gsim_wmsb(a, na, wa), sb = gsim_wmsb(b, nb, wb);
  if (sa != sb) return sa ? -1 : 1;
  if (!sa) return gsim_wcmp(a, na, b, nb);
  int wm = wa > wb ? wa : wb, nm = GSIM_NLIMBS(wm);
  uint64_t ea[GSIM_WSCRATCH], eb[GSIM_WSCRATCH];
  gsim_wsext(ea, nm, wm, a, na, wa);
  gsim_wsext(eb, nm, wm, b, nb, wb);
  return gsim_wcmp(ea, nm, eb, nm);
}
/* r = bits [lo .. lo+w-1] of a, normalized (n = GSIM_NLIMBS(w)). */
static inline void gsim_wextract(uint64_t *r, int n, int w,
                                 const uint64_t *a, int na, int lo) {
  int off = lo & 63, base = lo >> 6;
  for (int k = 0; k < n; k++) {
    uint64_t low = gsim_wlimb(a, na, base + k) >> off;
    uint64_t high = off == 0 ? 0 : gsim_wlimb(a, na, base + k + 1) << (64 - off);
    r[k] = low | high;
  }
  gsim_wnorm(r, n, w);
}
/* OR a << shift into r (r pre-initialized; mirrors Bits.or_shifted). */
static inline void gsim_worshift(uint64_t *r, int n, const uint64_t *a,
                                 int na, int shift) {
  int base = shift >> 6, off = shift & 63;
  for (int k = 0; k < na; k++) {
    uint64_t x = a[k];
    if (x == 0) continue;
    int i = base + k;
    if (i < n) r[i] |= x << off;
    if (off > 0 && i + 1 < n) r[i + 1] |= x >> (64 - off);
  }
}
/* concat: r = hi << wlo | lo over n = GSIM_NLIMBS(whi + wlo) limbs. */
static inline void gsim_wcat(uint64_t *r, int n, const uint64_t *hi, int nh,
                             const uint64_t *lo, int nlo, int wlo) {
  for (int i = 0; i < n; i++) r[i] = i < nlo ? lo[i] : 0;
  gsim_worshift(r, n, hi, nh, wlo);
}
/* unsafe_of_packed: a packed (<= 62-bit) value is one limb. */
static inline void gsim_wofu64(uint64_t *r, int n, int w, uint64_t x) {
  gsim_wzero(r, n);
  r[0] = x;
  gsim_wnorm(r, n, w);
}
/* to_packed: limb 0 (exact for widths <= 62). */
static inline uint64_t gsim_wtou64(const uint64_t *a, int na) {
  return gsim_wlimb(a, na, 0);
}
/* shift_amount: clamped dynamic shift amount; any set bit at position
   >= 30 yields a sentinel larger than every representable width. */
static inline uint64_t gsim_wshamt(const uint64_t *a, int na, int w) {
  if (w <= 30) return gsim_wtou64(a, na);
  for (int i = 1; i < na; i++)
    if (a[i] != 0) return UINT64_C(1) << 40;
  if (a[0] >> 30) return UINT64_C(1) << 40;
  return a[0] & ((UINT64_C(1) << 30) - 1);
}
/* Long division, mirroring Bits.divmod bit for bit: quotient over wa
   bits into q, remainder resized to wa bits into r (both GSIM_NLIMBS(wa)
   limbs).  Division by zero: q = 0, r = a. */
static inline void gsim_wdivmod(uint64_t *q, uint64_t *r, int wa,
                                const uint64_t *a, int na,
                                const uint64_t *b, int nb, int wb) {
  int nq = GSIM_NLIMBS(wa);
  gsim_wzero(q, nq);
  if (gsim_wiszero(b, nb)) { gsim_wresize(r, nq, wa, a, na); return; }
  int wr = wb + 1, nr = GSIM_NLIMBS(wr);
  uint64_t rr[GSIM_WSCRATCH];
  gsim_wzero(rr, nr);
  for (int i = wa - 1; i >= 0; i--) {
    /* rr = (rr << 1 | bit i of a) mod 2^wr */
    uint64_t carry = (gsim_wlimb(a, na, i >> 6) >> (i & 63)) & 1;
    for (int k = 0; k < nr; k++) {
      uint64_t x = rr[k];
      rr[k] = (x << 1) | carry;
      carry = x >> 63;
    }
    gsim_wnorm(rr, nr, wr);
    if (gsim_wcmp(rr, nr, b, nb) >= 0) {
      gsim_wsub(rr, nr, wr, rr, nr, b, nb);
      q[i >> 6] |= UINT64_C(1) << (i & 63);
    }
  }
  gsim_wresize(r, nq, wa, rr, nr);
}
/* div_signed: signed magnitudes, unsigned divide, zero-extend the
   quotient to w = wa + 1 bits, negate when the signs differ. */
static inline void gsim_wdivs(uint64_t *r, int n, int w,
                              const uint64_t *a, int na, int wa,
                              const uint64_t *b, int nb, int wb) {
  if (gsim_wiszero(b, nb)) { gsim_wzero(r, n); return; }
  uint64_t ma[GSIM_WSCRATCH], mb[GSIM_WSCRATCH], q[GSIM_WSCRATCH], rr[GSIM_WSCRATCH];
  int sa = gsim_wmsb(a, na, wa), sb = gsim_wmsb(b, nb, wb);
  if (sa) gsim_wnegt(ma, na, wa, a, na); else gsim_wresize(ma, na, wa, a, na);
  if (sb) gsim_wnegt(mb, nb, wb, b, nb); else gsim_wresize(mb, nb, wb, b, nb);
  gsim_wdivmod(q, rr, wa, ma, na, mb, nb, wb);
  gsim_wresize(r, n, w, q, na);
  if (sa != sb) gsim_wnegt(r, n, w, r, n);
}
/* rem_signed to w = min(wa, wb) bits: remainder of the magnitudes at
   width w + 1, negated when the dividend is negative, truncated to w.
   Division by zero: the dividend truncated to w (resize_signed with
   w <= wa). */
static inline void gsim_wrems(uint64_t *r, int n, int w,
                              const uint64_t *a, int na, int wa,
                              const uint64_t *b, int nb, int wb) {
  if (gsim_wiszero(b, nb)) { gsim_wresize(r, n, w, a, na); return; }
  uint64_t ma[GSIM_WSCRATCH], mb[GSIM_WSCRATCH], q[GSIM_WSCRATCH], rr[GSIM_WSCRATCH];
  int sa = gsim_wmsb(a, na, wa), sb = gsim_wmsb(b, nb, wb);
  if (sa) gsim_wnegt(ma, na, wa, a, na); else gsim_wresize(ma, na, wa, a, na);
  if (sb) gsim_wnegt(mb, nb, wb, b, nb); else gsim_wresize(mb, nb, wb, b, nb);
  gsim_wdivmod(q, rr, wa, ma, na, mb, nb, wb);
  int w1p = w + 1, n1p = GSIM_NLIMBS(w1p);
  uint64_t t2[GSIM_WSCRATCH];
  gsim_wresize(t2, n1p, w1p, rr, na);
  if (sa) gsim_wnegt(t2, n1p, w1p, t2, n1p);
  gsim_wresize(r, n, w, t2, n1p);
}
/* dshl (width-keeping): (a << sh) mod 2^w; sh >= w shifts everything
   out. */
static inline void gsim_wdshl(uint64_t *r, int n, int w, const uint64_t *a,
                              int na, uint64_t sh) {
  gsim_wzero(r, n);
  if (sh >= (uint64_t)w) return;
  gsim_worshift(r, n, a, na, (int)sh);
  gsim_wnorm(r, n, w);
}
/* dshr: zero_extend(a[w-1 : sh]) back to w bits. */
static inline void gsim_wdshr(uint64_t *r, int n, int w, const uint64_t *a,
                              int na, uint64_t sh) {
  if (sh >= (uint64_t)w) { gsim_wzero(r, n); return; }
  int we = w - (int)sh, ne = GSIM_NLIMBS(we);
  gsim_wextract(r, ne, we, a, na, (int)sh);
  for (int i = ne; i < n; i++) r[i] = 0;
}
/* dshr_signed: sign_extend(a[w-1 : sh]) back to w bits; a full shift
   replicates the sign bit. */
static inline void gsim_wdshrs(uint64_t *r, int n, int w, const uint64_t *a,
                               int na, uint64_t sh) {
  if (sh >= (uint64_t)w) {
    if (gsim_wmsb(a, na, w)) {
      for (int i = 0; i < n; i++) r[i] = ~UINT64_C(0);
      gsim_wnorm(r, n, w);
    } else gsim_wzero(r, n);
    return;
  }
  int we = w - (int)sh, ne = GSIM_NLIMBS(we);
  uint64_t ex[GSIM_WSCRATCH];
  gsim_wextract(ex, ne, we, a, na, (int)sh);
  gsim_wsext(r, n, w, ex, ne, we);
}
static inline void gsim_wmux(uint64_t *r, int n, uint64_t c,
                             const uint64_t *a, const uint64_t *b) {
  for (int i = 0; i < n; i++) r[i] = c ? a[i] : b[i];
}
/* Read a wide value's raw 64-bit limbs out of the flat mirror: a
   direct indexed copy at the node's compile-time offset. */
static inline void gsim_wload(uint64_t *r, int n, const long *wf, long off) {
  const uint64_t *p = (const uint64_t *)wf + off;
  for (int i = 0; i < n; i++) r[i] = p[i];
}
|}

let boxed_store =
  {|/* Compare-store v against the flat mirror; on change also rewrite the
   boxed slot's tagged 31-bit limb words (wd[id] points to a Bits.t
   record; field 1 is the limb array) so the OCaml-side view stays
   identical. */
static inline long gsim_wstore(long *wf, long off, long *wd, long id,
                               const uint64_t *v, int n, int w) {
  uint64_t *p = (uint64_t *)wf + off;
  long ch = 0;
  for (int i = 0; i < n; i++)
    if (p[i] != v[i]) { p[i] = v[i]; ch = 1; }
  if (ch) {
    long *q = (long *)((long *)wd[id])[1];
    int n31 = (w + 30) / 31;
    for (int k = 0; k < n31; k++) {
      int pbit = 31 * k, j = pbit >> 6, sh = pbit & 63;
      uint64_t lo = v[j] >> sh;
      uint64_t hi = (sh > 33 && j + 1 < n) ? v[j + 1] << (64 - sh) : 0;
      q[k] = (long)(((((lo | hi) & GSIM_LIMB31_MASK) << 1) | 1));
    }
  }
  return ch;
}

|}

let value_helpers = scalar_helpers ^ limb_helpers

type result = {
  source : string;
  compiled_nodes : int;
  total_nodes : int;
}

let emit c =
  let order = Circuit.eval_order c in
  let n = Circuit.max_id c in
  let b = Buffer.create (4096 + (Array.length order * 160)) in
  List.iter (Buffer.add_string b)
    [ native_header; scalar_helpers; boxed_note; limb_helpers; boxed_store ];
  let emitted = Array.make n false in
  let count = ref 0 in
  let shapes = { tbl = Hashtbl.create 64; next_shape = 0 } in
  let woff, _ = wide_offsets c in
  Array.iter
    (fun id ->
      let nd = Circuit.node c id in
      if compilable c nd then begin
        emitted.(id) <- true;
        incr count;
        emit_node b shapes ~woff nd
      end)
    order;
  bpf b "long gsim_abi_version = %d;\n" abi_version;
  bpf b "long gsim_node_count = %d;\n\n" n;
  bpf b "long (*gsim_table[%d])(long *, long *, long *) = {\n" (max n 1);
  for id = 0 to n - 1 do
    if emitted.(id) then bpf b "  %s,\n" (fn_name id) else bpf b "  0,\n"
  done;
  if n = 0 then Buffer.add_string b "  0,\n";
  Buffer.add_string b "};\n";
  { source = Buffer.contents b; compiled_nodes = !count; total_nodes = Array.length order }
