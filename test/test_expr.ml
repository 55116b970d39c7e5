(* Expr: width rules, evaluation, analysis helpers. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Rand_circuit = Gsim_ir.Rand_circuit
module Designs = Gsim_designs.Designs

let b ~w n = Bits.of_int ~width:w n
let c ~w n = Expr.const (b ~w n)

let env_of_list assoc id = List.assoc id assoc

let eval_int ?(env = fun _ -> assert false) e = Bits.to_int (Expr.eval env e)

let test_width_rules () =
  let x = Expr.var ~width:8 0 and y = Expr.var ~width:12 1 in
  let checkw msg w e = Alcotest.(check int) msg w (Expr.width e) in
  checkw "add" 13 (Expr.binop Expr.Add x y);
  checkw "sub" 13 (Expr.binop Expr.Sub x y);
  checkw "mul" 20 (Expr.binop Expr.Mul x y);
  checkw "div" 8 (Expr.binop Expr.Div x y);
  checkw "div_signed" 9 (Expr.binop Expr.Div_signed x y);
  checkw "rem" 8 (Expr.binop Expr.Rem x y);
  checkw "and" 12 (Expr.binop Expr.And x y);
  checkw "cat" 20 (Expr.binop Expr.Cat x y);
  checkw "eq" 1 (Expr.binop Expr.Eq x y);
  checkw "dshl keeps" 8 (Expr.binop Expr.Dshl x y);
  checkw "not" 8 (Expr.unop Expr.Not x);
  checkw "neg" 9 (Expr.unop Expr.Neg x);
  checkw "andr" 1 (Expr.unop Expr.Reduce_and x);
  checkw "shl" 11 (Expr.unop (Expr.Shl_const 3) x);
  checkw "shr" 5 (Expr.unop (Expr.Shr_const 3) x);
  checkw "shr floor" 1 (Expr.unop (Expr.Shr_const 30) x);
  checkw "extract" 4 (Expr.unop (Expr.Extract (6, 3)) x);
  checkw "pad" 16 (Expr.unop (Expr.Pad_unsigned 16) x);
  checkw "mux" 8 (Expr.mux y x x)

let test_constructor_checks () =
  let x = Expr.var ~width:8 0 in
  Alcotest.check_raises "extract out of range"
    (Invalid_argument "Expr.unop: extract [9:0] out of range for width 8") (fun () ->
      ignore (Expr.unop (Expr.Extract (9, 0)) x));
  Alcotest.check_raises "mux width mismatch"
    (Invalid_argument "Expr.mux: branch widths differ (8 vs 9)") (fun () ->
      ignore (Expr.mux x x (Expr.var ~width:9 1)))

let test_eval () =
  let e =
    Expr.mux
      (Expr.binop Expr.Eq (Expr.var ~width:4 0) (c ~w:4 3))
      (Expr.binop Expr.Add (Expr.var ~width:8 1) (c ~w:8 1))
      (c ~w:9 0)
  in
  let env = env_of_list [ (0, b ~w:4 3); (1, b ~w:8 41) ] in
  Alcotest.(check int) "mux taken" 42 (eval_int ~env e);
  let env = env_of_list [ (0, b ~w:4 2); (1, b ~w:8 41) ] in
  Alcotest.(check int) "mux not taken" 0 (eval_int ~env e)

let test_eval_onehot_pattern () =
  (* C = (1 << A) & B, the pattern the simplifier rewrites; reference
     semantics first. *)
  let a = Expr.var ~width:3 0 and bvar = Expr.var ~width:8 1 in
  let shifted = Expr.binop Expr.Dshl (Expr.unop (Expr.Pad_unsigned 8) (c ~w:1 1)) a in
  let e = Expr.binop Expr.And shifted bvar in
  let env = env_of_list [ (0, b ~w:3 5); (1, b ~w:8 0xFF) ] in
  Alcotest.(check int) "onehot select" 0x20 (eval_int ~env e)

let test_vars_and_subst () =
  let e =
    Expr.binop Expr.Add
      (Expr.binop Expr.Xor (Expr.var ~width:8 3) (Expr.var ~width:8 7))
      (Expr.var ~width:8 3)
  in
  Alcotest.(check (list int)) "vars dedup sorted" [ 3; 7 ] (Expr.vars e);
  Alcotest.(check bool) "depends_on" true (Expr.depends_on e 7);
  Alcotest.(check bool) "not depends_on" false (Expr.depends_on e 4);
  let e' = Expr.map_vars (fun ~width v -> Expr.var ~width (v + 100)) e in
  Alcotest.(check (list int)) "vars after subst" [ 103; 107 ] (Expr.vars e');
  Alcotest.check_raises "subst wrong width"
    (Invalid_argument "Expr.map_vars: replacement width 9 <> 8") (fun () ->
      ignore (Expr.map_vars (fun ~width:_ _ -> Expr.var ~width:9 0) e))

let test_size_cost () =
  let x = Expr.var ~width:8 0 in
  Alcotest.(check int) "var is free" 0 (Expr.size x);
  let e = Expr.binop Expr.Add x (Expr.unop Expr.Not x) in
  Alcotest.(check int) "size counts ops" 2 (Expr.size e);
  let wide = Expr.binop Expr.Add (Expr.var ~width:200 0) (Expr.var ~width:200 1) in
  Alcotest.(check bool) "wide ops cost more" true (Expr.cost wide > Expr.cost e);
  let divide = Expr.binop Expr.Div x x in
  Alcotest.(check bool) "division costs more" true (Expr.cost divide > Expr.cost e)

let test_equal () =
  let x () = Expr.binop Expr.Add (Expr.var ~width:8 0) (c ~w:8 1) in
  Alcotest.(check bool) "structural equal" true (Expr.equal (x ()) (x ()));
  Alcotest.(check bool) "different const" false
    (Expr.equal (x ()) (Expr.binop Expr.Add (Expr.var ~width:8 0) (c ~w:8 2)))

(* Differential: eval of every binop against Bits on random narrow values. *)
let all_binops =
  [
    Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Div_signed; Expr.Rem; Expr.Rem_signed;
    Expr.And; Expr.Or; Expr.Xor; Expr.Cat; Expr.Eq; Expr.Neq; Expr.Lt; Expr.Leq;
    Expr.Gt; Expr.Geq; Expr.Lt_signed; Expr.Leq_signed; Expr.Gt_signed; Expr.Geq_signed;
    Expr.Dshl; Expr.Dshr; Expr.Dshr_signed;
  ]

let prop_eval_matches_bits =
  QCheck.Test.make ~name:"eval matches Bits semantics" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         let* w1 = int_range 1 16 in
         let* w2 = int_range 1 16 in
         let* a = int_bound ((1 lsl w1) - 1) in
         let* bv = int_bound ((1 lsl w2) - 1) in
         let* opi = int_bound (List.length all_binops - 1) in
         return (w1, a, w2, bv, opi)))
    (fun (w1, a, w2, bv, opi) ->
      let op = List.nth all_binops opi in
      let x = b ~w:w1 a and y = b ~w:w2 bv in
      let e = Expr.binop op (Expr.var ~width:w1 0) (Expr.var ~width:w2 1) in
      let env = env_of_list [ (0, x); (1, y) ] in
      Bits.equal (Expr.eval env e) (Expr.eval_binop op x y))

(* A structurally equal copy of [e] sharing no node with it. *)
let rec rebuild (e : Expr.t) =
  match e.Expr.desc with
  | Expr.Const v -> Expr.const (Bits.copy v)
  | Expr.Var v -> Expr.var ~width:e.Expr.width v
  | Expr.Unop (op, a) -> Expr.unop op (rebuild a)
  | Expr.Binop (op, a, b) -> Expr.binop op (rebuild a) (rebuild b)
  | Expr.Mux (s, a, b) -> Expr.mux (rebuild s) (rebuild a) (rebuild b)

let rec iter_subexprs f (e : Expr.t) =
  f e;
  match e.Expr.desc with
  | Expr.Const _ | Expr.Var _ -> ()
  | Expr.Unop (_, a) -> iter_subexprs f a
  | Expr.Binop (_, a, b) -> iter_subexprs f a; iter_subexprs f b
  | Expr.Mux (s, a, b) -> iter_subexprs f s; iter_subexprs f a; iter_subexprs f b

let iter_circuit_subexprs c f =
  Circuit.iter_nodes c (fun n ->
      match n.Circuit.expr with Some e -> iter_subexprs f e | None -> ())

let test_hash_consistent () =
  let st = Random.State.make [| 2025 |] in
  let checked = ref 0 in
  for _ = 1 to 20 do
    let c = Rand_circuit.generate st Rand_circuit.default_config in
    iter_circuit_subexprs c (fun e ->
        let e' = rebuild e in
        Alcotest.(check bool) "rebuilt is equal" true (Expr.equal e e');
        Alcotest.(check int) "equal => same hash" (Expr.hash e) (Expr.hash e');
        incr checked)
  done;
  Alcotest.(check bool) "exercised" true (!checked > 1000);
  (* Fields that [equal] separates also move the hash. *)
  let x = Expr.var ~width:8 0 in
  let distinct =
    [
      x; Expr.var ~width:9 0; Expr.var ~width:8 1; c ~w:8 0; c ~w:8 1;
      Expr.unop Expr.Not x; Expr.unop (Expr.Extract (3, 0)) x; Expr.unop (Expr.Extract (4, 1)) x;
      Expr.binop Expr.Add x x; Expr.binop Expr.Sub x x; Expr.mux x x x;
    ]
  in
  let hashes = List.sort_uniq compare (List.map Expr.hash distinct) in
  Alcotest.(check int) "distinct expressions, distinct hashes" (List.length distinct)
    (List.length hashes)

(* The CSE pass keys a table on every subexpression of up to 24
   operators; over Rocket's, the buckets must stay short. *)
module Tbl = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Expr.hash
end)

let test_hash_spread () =
  let core = Designs.rocket_like.Designs.build () in
  let tbl = Tbl.create 1024 in
  iter_circuit_subexprs core.Gsim_designs.Stu_core.circuit (fun e ->
      if Expr.size e <= 24 then Tbl.replace tbl e ());
  let st = Tbl.stats tbl in
  Alcotest.(check bool) (Printf.sprintf "many keys (%d)" st.Hashtbl.num_bindings) true
    (st.Hashtbl.num_bindings > 5000);
  Alcotest.(check bool)
    (Printf.sprintf "longest bucket %d" st.Hashtbl.max_bucket_length)
    true (st.Hashtbl.max_bucket_length <= 12)

let () =
  Alcotest.run "expr"
    [
      ( "unit",
        [
          Alcotest.test_case "width rules" `Quick test_width_rules;
          Alcotest.test_case "constructor checks" `Quick test_constructor_checks;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "one-hot pattern" `Quick test_eval_onehot_pattern;
          Alcotest.test_case "vars/subst" `Quick test_vars_and_subst;
          Alcotest.test_case "size/cost" `Quick test_size_cost;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "hash consistent with equal" `Quick test_hash_consistent;
          Alcotest.test_case "hash spread" `Quick test_hash_spread;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_eval_matches_bits ]);
    ]
