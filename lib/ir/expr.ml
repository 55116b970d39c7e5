module Bits = Gsim_bits.Bits

type unop =
  | Not
  | Neg
  | Reduce_and
  | Reduce_or
  | Reduce_xor
  | Shl_const of int
  | Shr_const of int
  | Extract of int * int
  | Pad_unsigned of int
  | Pad_signed of int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Div_signed
  | Rem
  | Rem_signed
  | And
  | Or
  | Xor
  | Cat
  | Eq | Neq | Lt | Leq | Gt | Geq
  | Lt_signed | Leq_signed | Gt_signed | Geq_signed
  | Dshl
  | Dshr
  | Dshr_signed

type t = { desc : desc; width : int }

and desc =
  | Const of Bits.t
  | Var of int
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t

let width e = e.width

let unop_width op w =
  match op with
  | Not -> w
  | Neg -> w + 1
  | Reduce_and | Reduce_or | Reduce_xor -> 1
  | Shl_const n -> w + n
  | Shr_const n -> max 1 (w - n)
  | Extract (hi, lo) -> hi - lo + 1
  | Pad_unsigned n | Pad_signed n -> n

let binop_width op w1 w2 =
  match op with
  | Add | Sub -> max w1 w2 + 1
  | Mul -> w1 + w2
  | Div -> w1
  | Div_signed -> w1 + 1
  | Rem | Rem_signed -> min w1 w2
  | And | Or | Xor -> max w1 w2
  | Cat -> w1 + w2
  | Eq | Neq | Lt | Leq | Gt | Geq
  | Lt_signed | Leq_signed | Gt_signed | Geq_signed -> 1
  | Dshl | Dshr | Dshr_signed -> w1

let const b = { desc = Const b; width = Bits.width b }

let of_int ~width n = const (Bits.of_int ~width n)

let var ~width id =
  if width < 1 then invalid_arg "Expr.var: width must be >= 1";
  { desc = Var id; width }

let unop op e =
  (match op with
   | Extract (hi, lo) ->
     if not (0 <= lo && lo <= hi && hi < e.width) then
       invalid_arg
         (Printf.sprintf "Expr.unop: extract [%d:%d] out of range for width %d" hi lo e.width)
   | Shl_const n | Shr_const n ->
     if n < 0 then invalid_arg "Expr.unop: negative shift"
   | Pad_unsigned n | Pad_signed n ->
     if n < 1 then invalid_arg "Expr.unop: pad to width < 1"
   | Not | Neg | Reduce_and | Reduce_or | Reduce_xor -> ());
  { desc = Unop (op, e); width = unop_width op e.width }

let binop op a b = { desc = Binop (op, a, b); width = binop_width op a.width b.width }

let mux sel a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Expr.mux: branch widths differ (%d vs %d)" a.width b.width);
  { desc = Mux (sel, a, b); width = a.width }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let eval_unop op v =
  match op with
  | Not -> Bits.lognot v
  | Neg -> Bits.neg v
  | Reduce_and -> Bits.reduce_and v
  | Reduce_or -> Bits.reduce_or v
  | Reduce_xor -> Bits.reduce_xor v
  | Shl_const n -> Bits.shift_left v n
  | Shr_const n -> Bits.shift_right v n
  | Extract (hi, lo) -> Bits.extract v ~hi ~lo
  | Pad_unsigned n -> Bits.resize_unsigned v ~width:n
  | Pad_signed n -> Bits.resize_signed v ~width:n

let eval_binop op a b =
  let ext2 f =
    let w = max (Bits.width a) (Bits.width b) in
    f (Bits.resize_unsigned a ~width:w) (Bits.resize_unsigned b ~width:w)
  in
  match op with
  | Add -> Bits.add a b
  | Sub -> Bits.sub a b
  | Mul -> Bits.mul a b
  | Div -> Bits.div a b
  | Div_signed -> Bits.div_signed a b
  | Rem -> Bits.rem a b
  | Rem_signed -> Bits.rem_signed a b
  | And -> ext2 Bits.logand
  | Or -> ext2 Bits.logor
  | Xor -> ext2 Bits.logxor
  | Cat -> Bits.concat a b
  | Eq -> Bits.eq a b
  | Neq -> Bits.neq a b
  | Lt -> Bits.lt a b
  | Leq -> Bits.leq a b
  | Gt -> Bits.gt a b
  | Geq -> Bits.geq a b
  | Lt_signed -> Bits.lt_signed a b
  | Leq_signed -> Bits.leq_signed a b
  | Gt_signed -> Bits.gt_signed a b
  | Geq_signed -> Bits.geq_signed a b
  | Dshl -> Bits.dshl_keep a b
  | Dshr -> Bits.dshr a b
  | Dshr_signed -> Bits.dshr_signed a b

let rec eval env e =
  match e.desc with
  | Const b -> b
  | Var id ->
    let v = env id in
    assert (Bits.width v = e.width);
    v
  | Unop (op, a) -> eval_unop op (eval env a)
  | Binop (op, a, b) -> eval_binop op (eval env a) (eval env b)
  | Mux (sel, a, b) -> if Bits.is_zero (eval env sel) then eval env b else eval env a

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let rec iter_vars f e =
  match e.desc with
  | Const _ -> ()
  | Var v -> f v
  | Unop (_, a) -> iter_vars f a
  | Binop (_, a, b) -> iter_vars f a; iter_vars f b
  | Mux (s, a, b) -> iter_vars f s; iter_vars f a; iter_vars f b

let vars e =
  let acc = ref [] in
  iter_vars (fun v -> if not (List.mem v !acc) then acc := v :: !acc) e;
  List.sort compare !acc

let rec map_vars f e =
  match e.desc with
  | Const _ -> e
  | Var v ->
    let e' = f ~width:e.width v in
    if e'.width <> e.width then
      invalid_arg
        (Printf.sprintf "Expr.map_vars: replacement width %d <> %d" e'.width e.width);
    e'
  | Unop (op, a) ->
    let a' = map_vars f a in
    if a' == a then e else unop op a'
  | Binop (op, a, b) ->
    let a' = map_vars f a and b' = map_vars f b in
    if a' == a && b' == b then e else binop op a' b'
  | Mux (s, a, b) ->
    let s' = map_vars f s and a' = map_vars f a and b' = map_vars f b in
    if s' == s && a' == a && b' == b then e else mux s' a' b'

let rec size e =
  match e.desc with
  | Const _ | Var _ -> 0
  | Unop (_, a) -> 1 + size a
  | Binop (_, a, b) -> 1 + size a + size b
  | Mux (s, a, b) -> 1 + size s + size a + size b

(* Cost in abstract operator units.  A native-word operation costs 1; an
   operation on values wider than a machine word costs one unit per limb;
   division costs a full long-division loop. *)
let op_cost ~width base =
  let words = max 1 ((width + 61) / 62) in
  base * words

let rec cost e =
  match e.desc with
  | Const _ | Var _ -> 0
  | Unop (op, a) ->
    let base = match op with Reduce_and | Reduce_or | Reduce_xor -> 1 | _ -> 1 in
    op_cost ~width:(max e.width a.width) base + cost a
  | Binop (op, a, b) ->
    let base =
      match op with
      | Div | Div_signed | Rem | Rem_signed -> 16
      | Mul -> 3
      | _ -> 1
    in
    op_cost ~width:(max e.width (max a.width b.width)) base + cost a + cost b
  | Mux (s, a, b) -> 1 + cost s + cost a + cost b

let rec depends_on e v =
  match e.desc with
  | Const _ -> false
  | Var v' -> v = v'
  | Unop (_, a) -> depends_on a v
  | Binop (_, a, b) -> depends_on a v || depends_on b v
  | Mux (s, a, b) -> depends_on s v || depends_on a v || depends_on b v

let rec equal a b =
  a.width = b.width
  &&
  match (a.desc, b.desc) with
  | Const x, Const y -> Bits.equal x y
  | Var x, Var y -> x = y
  | Unop (o1, x), Unop (o2, y) -> o1 = o2 && equal x y
  | Binop (o1, x1, y1), Binop (o2, x2, y2) -> o1 = o2 && equal x1 x2 && equal y1 y2
  | Mux (s1, x1, y1), Mux (s2, x2, y2) -> equal s1 s2 && equal x1 x2 && equal y1 y2
  | (Const _ | Var _ | Unop _ | Binop _ | Mux _), _ -> false

(* One level of [hash]: the node's constructor, operator and width mixed
   with the hashes of its operands ([h1], [h2], [h3] in order, 0 where
   absent).  [Hashtbl.hash] over an int tuple mixes every field, so
   expressions that differ only in a nearby node id or width still land
   in different buckets. *)
let hash_node e h1 h2 h3 =
  match e.desc with
  | Const b -> Hashtbl.hash (0, e.width, Bits.hash b)
  | Var v -> Hashtbl.hash (1, e.width, v)
  | Unop (op, _) -> Hashtbl.hash (2, e.width, Hashtbl.hash op, h1)
  | Binop (op, _, _) -> Hashtbl.hash (3, e.width, Hashtbl.hash op, h1, h2)
  | Mux _ -> Hashtbl.hash (4, e.width, h1, h2, h3)

let rec hash e =
  match e.desc with
  | Const _ | Var _ -> hash_node e 0 0 0
  | Unop (_, a) -> hash_node e (hash a) 0 0
  | Binop (_, a, b) -> hash_node e (hash a) (hash b) 0
  | Mux (s, a, b) -> hash_node e (hash s) (hash a) (hash b)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_unop fmt op =
  match op with
  | Not -> Format.pp_print_string fmt "not"
  | Neg -> Format.pp_print_string fmt "neg"
  | Reduce_and -> Format.pp_print_string fmt "andr"
  | Reduce_or -> Format.pp_print_string fmt "orr"
  | Reduce_xor -> Format.pp_print_string fmt "xorr"
  | Shl_const n -> Format.fprintf fmt "shl[%d]" n
  | Shr_const n -> Format.fprintf fmt "shr[%d]" n
  | Extract (hi, lo) -> Format.fprintf fmt "bits[%d:%d]" hi lo
  | Pad_unsigned n -> Format.fprintf fmt "pad[%d]" n
  | Pad_signed n -> Format.fprintf fmt "pads[%d]" n

let pp_binop fmt op =
  let s =
    match op with
    | Add -> "add" | Sub -> "sub" | Mul -> "mul"
    | Div -> "div" | Div_signed -> "divs"
    | Rem -> "rem" | Rem_signed -> "rems"
    | And -> "and" | Or -> "or" | Xor -> "xor"
    | Cat -> "cat"
    | Eq -> "eq" | Neq -> "neq"
    | Lt -> "lt" | Leq -> "leq" | Gt -> "gt" | Geq -> "geq"
    | Lt_signed -> "lts" | Leq_signed -> "leqs"
    | Gt_signed -> "gts" | Geq_signed -> "geqs"
    | Dshl -> "dshl" | Dshr -> "dshr" | Dshr_signed -> "dshrs"
  in
  Format.pp_print_string fmt s

let rec pp fmt e =
  match e.desc with
  | Const b -> Bits.pp fmt b
  | Var v -> Format.fprintf fmt "n%d" v
  | Unop (op, a) -> Format.fprintf fmt "@[<hov 1>%a(%a)@]" pp_unop op pp a
  | Binop (op, a, b) -> Format.fprintf fmt "@[<hov 1>%a(%a,@ %a)@]" pp_binop op pp a pp b
  | Mux (s, a, b) -> Format.fprintf fmt "@[<hov 1>mux(%a,@ %a,@ %a)@]" pp s pp a pp b
