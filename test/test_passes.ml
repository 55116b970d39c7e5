(* Optimization passes: each pass and each pipeline level must preserve
   simulation traces exactly; individual passes must perform the rewrites
   the paper describes. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Reference = Gsim_ir.Reference
module Rand_circuit = Gsim_ir.Rand_circuit
module Partition = Gsim_partition.Partition
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
module Activity = Gsim_engine.Activity
module Pass = Gsim_passes.Pass
module Alias = Gsim_passes.Alias
module Dce = Gsim_passes.Dce
module Simplify = Gsim_passes.Simplify
module Inline = Gsim_passes.Inline
module Reset_opt = Gsim_passes.Reset_opt
module Bitsplit = Gsim_passes.Bitsplit
module Pipeline = Gsim_passes.Pipeline
module Ir_text = Gsim_ir.Ir_text
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core

let b ~w n = Bits.of_int ~width:w n

(* ------------------------------------------------------------------ *)
(* Unit tests per pass                                                 *)
(* ------------------------------------------------------------------ *)

let test_alias_elimination () =
  let c = Circuit.create () in
  let x = Circuit.add_input c ~name:"x" ~width:8 in
  let a1 = Circuit.add_logic c ~name:"a1" (Expr.var ~width:8 x.Circuit.id) in
  let a2 = Circuit.add_logic c ~name:"a2" (Expr.var ~width:8 a1.Circuit.id) in
  let out =
    Circuit.add_logic c ~name:"out" (Expr.unop Expr.Not (Expr.var ~width:8 a2.Circuit.id))
  in
  Circuit.mark_output c out.Circuit.id;
  let n = Alias.pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check int) "two aliases removed" 2 n;
  Alcotest.(check int) "nodes remaining" 2 (Circuit.node_count c);
  (match (Circuit.node c out.Circuit.id).Circuit.expr with
   | Some e -> Alcotest.(check (list int)) "chain collapsed" [ x.Circuit.id ] (Expr.vars e)
   | None -> Alcotest.fail "missing expr")

(* A port-referenced alias whose chain ends in an unprotected constant
   (w_en = a, a = b, b = const) must survive as a node: deleting it left
   the write port dangling, and the next dce raised on the missing id. *)
let test_alias_port_to_constant () =
  let c = Circuit.create () in
  let addr = Circuit.add_input c ~name:"addr" ~width:4 in
  let data = Circuit.add_input c ~name:"data" ~width:8 in
  let bnode = Circuit.add_logic c ~name:"b" (Expr.of_int ~width:1 1) in
  let anode = Circuit.add_logic c ~name:"a" (Expr.var ~width:1 bnode.Circuit.id) in
  let mem = Circuit.add_memory c ~name:"m" ~width:8 ~depth:16 in
  let rdata = Circuit.add_read_port c ~mem ~name:"rdata" ~addr:addr.Circuit.id () in
  Circuit.add_write_port c ~mem ~addr:addr.Circuit.id ~data:data.Circuit.id
    ~en:anode.Circuit.id;
  Circuit.mark_output c rdata.Circuit.id;
  let original = Circuit.copy c in
  ignore (Pipeline.optimize ~level:Pipeline.O3 c);
  Circuit.validate c;
  Alcotest.(check bool) "write port kept" true
    ((Circuit.memory c mem).Circuit.write_ports <> []);
  let stimulus =
    Array.init 6 (fun i -> [ (addr.Circuit.id, b ~w:4 (i mod 3)); (data.Circuit.id, b ~w:8 (i + 5)) ])
  in
  let observe = [ rdata.Circuit.id ] in
  let trace c = Sim.trace (Sim.of_reference (Reference.create c)) ~observe ~stimulus in
  Alcotest.(check bool) "same trace after O3" true
    (Sim.equal_traces (trace original) (trace c))

let test_dce_unused_register () =
  (* A self-updating register nobody reads must disappear (paper Fig. 2,
     "unused registers"). *)
  let c = Circuit.create () in
  let x = Circuit.add_input c ~name:"x" ~width:4 in
  let dead = Circuit.add_register c ~name:"dead" ~width:4 ~init:(Bits.zero 4) () in
  Circuit.set_next c dead
    (Expr.unop (Expr.Extract (3, 0))
       (Expr.binop Expr.Add (Expr.var ~width:4 dead.Circuit.read) (Expr.of_int ~width:4 1)));
  let live = Circuit.add_register c ~name:"live" ~width:4 ~init:(Bits.zero 4) () in
  Circuit.set_next c live (Expr.var ~width:4 x.Circuit.id);
  Circuit.mark_output c live.Circuit.read;
  let _ = Dce.pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check int) "dead register gone" 1 (List.length (Circuit.registers c));
  Alcotest.(check bool) "live register kept" true
    (List.exists (fun r -> r.Circuit.reg_name = "live") (Circuit.registers c))

let test_dce_keeps_memory_machinery () =
  let c = Circuit.create () in
  let addr = Circuit.add_input c ~name:"addr" ~width:4 in
  let data = Circuit.add_input c ~name:"data" ~width:8 in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let mem = Circuit.add_memory c ~name:"m" ~width:8 ~depth:16 in
  let rdata = Circuit.add_read_port c ~mem ~name:"rdata" ~addr:addr.Circuit.id () in
  Circuit.add_write_port c ~mem ~addr:addr.Circuit.id ~data:data.Circuit.id ~en:en.Circuit.id;
  Circuit.mark_output c rdata.Circuit.id;
  let _ = Dce.pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check bool) "write port kept" true
    ((Circuit.memory c mem).Circuit.write_ports <> [])

let test_dce_drops_unread_memory_writes () =
  let c = Circuit.create () in
  let addr = Circuit.add_input c ~name:"addr" ~width:4 in
  let data = Circuit.add_input c ~name:"data" ~width:8 in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let mem = Circuit.add_memory c ~name:"m" ~width:8 ~depth:16 in
  Circuit.add_write_port c ~mem ~addr:addr.Circuit.id ~data:data.Circuit.id ~en:en.Circuit.id;
  let keep = Circuit.add_logic c ~name:"keep" (Expr.var ~width:4 addr.Circuit.id) in
  Circuit.mark_output c keep.Circuit.id;
  let _ = Dce.pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check bool) "write ports dropped" true
    ((Circuit.memory c mem).Circuit.write_ports = [])

let test_simplify_constants () =
  let cases =
    [
      ( "and zero",
        Expr.binop Expr.And (Expr.var ~width:8 0) (Expr.of_int ~width:8 0),
        fun e -> match e.Expr.desc with Expr.Const bv -> Bits.is_zero bv | _ -> false );
      ( "add zero becomes pad",
        Expr.binop Expr.Add (Expr.var ~width:8 0) (Expr.of_int ~width:8 0),
        fun e -> Expr.width e = 9 && Expr.size e <= 1
                 && (match e.Expr.desc with Expr.Binop _ -> false | _ -> true) );
      ( "const fold",
        Expr.binop Expr.Mul (Expr.of_int ~width:8 7) (Expr.of_int ~width:8 6),
        fun e -> match e.Expr.desc with Expr.Const bv -> Bits.to_int bv = 42 | _ -> false );
      ( "mux const selector",
        Expr.mux (Expr.of_int ~width:1 1) (Expr.var ~width:8 0) (Expr.var ~width:8 1),
        fun e -> match e.Expr.desc with Expr.Var 0 -> true | _ -> false );
      ( "mux same branches",
        Expr.mux (Expr.var ~width:1 2) (Expr.var ~width:8 0) (Expr.var ~width:8 0),
        fun e -> match e.Expr.desc with Expr.Var 0 -> true | _ -> false );
      ( "double not",
        Expr.unop Expr.Not (Expr.unop Expr.Not (Expr.var ~width:8 0)),
        fun e -> match e.Expr.desc with Expr.Var 0 -> true | _ -> false );
      ( "extract of cat lo",
        Expr.unop (Expr.Extract (3, 0))
          (Expr.binop Expr.Cat (Expr.var ~width:8 0) (Expr.var ~width:8 1)),
        fun e -> Expr.vars e = [ 1 ] );
      ( "extract of cat hi",
        Expr.unop (Expr.Extract (15, 8))
          (Expr.binop Expr.Cat (Expr.var ~width:8 0) (Expr.var ~width:8 1)),
        fun e -> Expr.vars e = [ 0 ] );
      ( "neq zero is orr",
        Expr.binop Expr.Neq (Expr.var ~width:8 0) (Expr.of_int ~width:8 0),
        fun e -> match e.Expr.desc with Expr.Unop (Expr.Reduce_or, _) -> true | _ -> false );
    ]
  in
  List.iter
    (fun (name, e, ok) ->
      let e' = Simplify.rewrite e in
      Alcotest.(check int) (name ^ " width preserved") (Expr.width e) (Expr.width e');
      Alcotest.(check bool) name true (ok e'))
    cases

let test_simplify_one_hot () =
  (* (1 << a) & 0x10  ==>  selects a == 4. *)
  let a = Expr.var ~width:3 0 in
  let one = Expr.unop (Expr.Pad_unsigned 8) (Expr.of_int ~width:1 1) in
  let e = Expr.binop Expr.And (Expr.binop Expr.Dshl one a) (Expr.of_int ~width:8 0x10) in
  let e' = Simplify.rewrite e in
  Alcotest.(check int) "width preserved" (Expr.width e) (Expr.width e');
  (match e'.Expr.desc with
   | Expr.Mux ({ Expr.desc = Expr.Binop (Expr.Eq, _, _); _ }, _, _) -> ()
   | _ -> Alcotest.failf "expected mux-of-eq, got %s" (Format.asprintf "%a" Expr.pp e'));
  (* Semantics preserved for every selector value. *)
  for v = 0 to 7 do
    let env _ = b ~w:3 v in
    Alcotest.(check bool)
      (Printf.sprintf "value %d" v)
      true
      (Bits.equal (Expr.eval env e) (Expr.eval env e'))
  done

let test_reset_slow_path () =
  let c = Circuit.create () in
  let rst = Circuit.add_input c ~name:"rst" ~width:1 in
  let x = Circuit.add_input c ~name:"x" ~width:8 in
  let r =
    Circuit.add_register c ~name:"r" ~width:8 ~init:(Bits.zero 8)
      ~reset:(rst.Circuit.id, Bits.zero 8) ()
  in
  Circuit.set_next c r (Expr.var ~width:8 x.Circuit.id);
  Circuit.mark_output c r.Circuit.read;
  let n = Reset_opt.pass.Pass.run c in
  Alcotest.(check int) "one register optimized" 1 n;
  (match (List.hd (Circuit.registers c)).Circuit.reset with
   | Some rstr -> Alcotest.(check bool) "slow path" true rstr.Circuit.slow_path
   | None -> Alcotest.fail "reset lost");
  (match (Circuit.node c r.Circuit.next).Circuit.expr with
   | Some { Expr.desc = Expr.Var v; _ } ->
     Alcotest.(check int) "mux stripped" x.Circuit.id v
   | _ -> Alcotest.fail "next should be bare expression");
  Alcotest.(check int) "idempotent" 0 (Reset_opt.pass.Pass.run c)

let test_inline_decision () =
  Alcotest.(check bool) "cheap multi-ref inlines" false
    (Inline.should_extract ~cost:1 ~refs:3);
  Alcotest.(check bool) "expensive multi-ref extracts" true
    (Inline.should_extract ~cost:16 ~refs:2);
  Alcotest.(check bool) "single ref inlines" false (Inline.should_extract ~cost:50 ~refs:1)

let test_inline_single_use () =
  let c = Circuit.create () in
  let x = Circuit.add_input c ~name:"x" ~width:8 in
  let mid =
    Circuit.add_logic c ~name:"mid"
      (Expr.binop Expr.Xor (Expr.var ~width:8 x.Circuit.id) (Expr.of_int ~width:8 0x55))
  in
  let out =
    Circuit.add_logic c ~name:"out" (Expr.unop Expr.Not (Expr.var ~width:8 mid.Circuit.id))
  in
  Circuit.mark_output c out.Circuit.id;
  let n = Inline.inline_pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check bool) "inlined" true (n > 0);
  Alcotest.(check int) "mid dissolved" 2 (Circuit.node_count c)

let test_extract_cse () =
  let c = Circuit.create () in
  let x = Circuit.add_input c ~name:"x" ~width:16 in
  (* The same expensive expression in two consumers. *)
  let heavy () =
    Expr.binop Expr.Mul
      (Expr.binop Expr.Mul (Expr.var ~width:16 x.Circuit.id) (Expr.var ~width:16 x.Circuit.id)
       |> Expr.unop (Expr.Extract (15, 0)))
      (Expr.var ~width:16 x.Circuit.id)
    |> Expr.unop (Expr.Extract (15, 0))
  in
  let o1 = Circuit.add_logic c ~name:"o1" (Expr.unop Expr.Not (heavy ())) in
  let o2 =
    Circuit.add_logic c ~name:"o2"
      (Expr.binop Expr.Xor (heavy ()) (Expr.of_int ~width:16 1)
       |> Expr.unop (Expr.Extract (15, 0)))
  in
  Circuit.mark_output c o1.Circuit.id;
  Circuit.mark_output c o2.Circuit.id;
  let n = Inline.extract_pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check bool) "extracted" true (n > 0);
  Alcotest.(check bool) "cse node exists" true
    (Circuit.fold_nodes c ~init:false ~f:(fun acc nd ->
         acc || String.length nd.Circuit.name >= 3 && String.sub nd.Circuit.name 0 3 = "cse"))

let test_bitsplit_basic () =
  let c = Circuit.create () in
  let a = Circuit.add_input c ~name:"a" ~width:8 in
  let bx = Circuit.add_input c ~name:"b" ~width:8 in
  let cat =
    Circuit.add_logic c ~name:"cat"
      (Expr.binop Expr.Cat
         (Expr.unop Expr.Not (Expr.var ~width:8 a.Circuit.id))
         (Expr.unop Expr.Not (Expr.var ~width:8 bx.Circuit.id)))
  in
  (* One consumer reads only the low half. *)
  let lo_user =
    Circuit.add_logic c ~name:"lo_user"
      (Expr.unop (Expr.Extract (7, 0)) (Expr.var ~width:16 cat.Circuit.id))
  in
  let whole_user =
    Circuit.add_logic c ~name:"whole_user"
      (Expr.unop Expr.Not (Expr.var ~width:16 cat.Circuit.id))
  in
  Circuit.mark_output c lo_user.Circuit.id;
  Circuit.mark_output c whole_user.Circuit.id;
  let n = Bitsplit.pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check bool) "split happened" true (n > 0);
  (* lo_user must now depend only on the low part (which depends on b). *)
  (match (Circuit.node c lo_user.Circuit.id).Circuit.expr with
   | Some e ->
     let deps = Expr.vars e in
     Alcotest.(check int) "single dep" 1 (List.length deps);
     Alcotest.(check bool) "not the cat node" true (deps <> [ cat.Circuit.id ])
   | None -> Alcotest.fail "missing expr")

let test_bitsplit_reduces_activity () =
  (* Two counters packed into one word: a fast low half and a frozen high
     half; a consumer of the high half should stop evaluating after the
     split.  This is Figure 4's scenario. *)
  let build () =
    let c = Circuit.create () in
    let en = Circuit.add_input c ~name:"en" ~width:1 in
    let fast = Circuit.add_register c ~name:"fast" ~width:8 ~init:(Bits.zero 8) () in
    Circuit.set_next c fast
      (Expr.mux (Expr.var ~width:1 en.Circuit.id)
         (Expr.unop (Expr.Extract (7, 0))
            (Expr.binop Expr.Add (Expr.var ~width:8 fast.Circuit.read) (Expr.of_int ~width:8 1)))
         (Expr.var ~width:8 fast.Circuit.read));
    let frozen = Circuit.add_register c ~name:"frozen" ~width:8 ~init:(b ~w:8 0x7F) () in
    Circuit.set_next c frozen (Expr.var ~width:8 frozen.Circuit.read);
    let packed =
      Circuit.add_logic c ~name:"packed"
        (Expr.binop Expr.Cat
           (Expr.var ~width:8 frozen.Circuit.read)
           (Expr.var ~width:8 fast.Circuit.read))
    in
    (* An expensive consumer of the frozen half only. *)
    let hi_user =
      Circuit.add_logic c ~name:"hi_user"
        (Expr.unop Expr.Reduce_xor
           (Expr.unop (Expr.Extract (15, 8)) (Expr.var ~width:16 packed.Circuit.id)))
    in
    let lo_user =
      Circuit.add_logic c ~name:"lo_user"
        (Expr.unop Expr.Reduce_xor
           (Expr.unop (Expr.Extract (7, 0)) (Expr.var ~width:16 packed.Circuit.id)))
    in
    Circuit.mark_output c hi_user.Circuit.id;
    Circuit.mark_output c lo_user.Circuit.id;
    Circuit.mark_output c packed.Circuit.id;
    (c, en.Circuit.id)
  in
  let run_evals ~split =
    let c, en = build () in
    if split then begin
      let n = Bitsplit.pass.Pass.run c in
      Alcotest.(check bool) "split performed" true (n > 0)
    end;
    Circuit.validate c;
    let p = Partition.singleton c in
    let t = Activity.create c p in
    Activity.poke t en (b ~w:1 1);
    for _ = 1 to 200 do
      Activity.step t
    done;
    (Activity.counters t).Counters.evals
  in
  let before = run_evals ~split:false in
  let after = run_evals ~split:true in
  Alcotest.(check bool)
    (Printf.sprintf "fewer evals after split (%d -> %d)" before after)
    true (after < before)

(* ------------------------------------------------------------------ *)
(* Soundness: every pipeline level preserves traces                     *)
(* ------------------------------------------------------------------ *)

let trace_reference c ~stimulus ~observe =
  let sim = Sim.of_reference (Reference.create c) in
  Sim.trace sim ~observe ~stimulus

let check_level level seed =
  let st = Random.State.make [| seed; 1234 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let stimulus = Rand_circuit.random_stimulus st c ~cycles:20 in
  let observe = List.map (fun n -> n.Circuit.id) (Circuit.outputs c) in
  let expected = trace_reference c ~stimulus ~observe in
  ignore (Pipeline.optimize ~level c);
  let got = trace_reference c ~stimulus ~observe in
  if not (Sim.equal_traces expected got) then
    Alcotest.failf "level %s changed behaviour (seed %d)"
      (Pipeline.level_to_string level) seed

let test_pipeline_soundness () =
  List.iter
    (fun level ->
      for seed = 1 to 8 do
        check_level level seed
      done)
    [ Pipeline.O1; Pipeline.O2; Pipeline.O3 ]

let prop_pipeline_sound =
  QCheck.Test.make ~name:"O3 preserves traces" ~count:20
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      check_level Pipeline.O3 seed;
      true)

let test_pipeline_reduces_nodes () =
  let st = Random.State.make [| 5; 6; 7 |] in
  let c =
    Rand_circuit.generate st
      { Rand_circuit.default_config with Rand_circuit.logic_nodes = 150 }
  in
  let before = (Circuit.stats c).Circuit.ir_nodes in
  ignore (Pipeline.optimize ~level:Pipeline.O2 c);
  let after = (Circuit.stats c).Circuit.ir_nodes in
  Alcotest.(check bool)
    (Printf.sprintf "nodes reduced (%d -> %d)" before after)
    true (after <= before)

let test_optimized_engines_agree () =
  (* After O3, every engine still matches the (optimized) reference and the
     unoptimized original. *)
  let st = Random.State.make [| 31337 |] in
  for _ = 1 to 5 do
    let c = Rand_circuit.generate st Rand_circuit.default_config in
    let stimulus = Rand_circuit.random_stimulus st c ~cycles:20 in
    let observe = List.map (fun n -> n.Circuit.id) (Circuit.outputs c) in
    let expected = trace_reference c ~stimulus ~observe in
    ignore (Pipeline.optimize ~level:Pipeline.O3 c);
    let p = Partition.gsim c ~max_size:24 in
    let sim = Activity.sim (Activity.create c p) in
    let got = Sim.trace sim ~observe ~stimulus in
    Alcotest.(check bool) "gsim engine on optimized circuit" true
      (Sim.equal_traces expected got)
  done

let main_suites =
    [
      ( "unit",
        [
          Alcotest.test_case "alias elimination" `Quick test_alias_elimination;
          Alcotest.test_case "alias port to constant" `Quick test_alias_port_to_constant;
          Alcotest.test_case "dce unused register" `Quick test_dce_unused_register;
          Alcotest.test_case "dce keeps memory" `Quick test_dce_keeps_memory_machinery;
          Alcotest.test_case "dce drops unread writes" `Quick
            test_dce_drops_unread_memory_writes;
          Alcotest.test_case "simplify rules" `Quick test_simplify_constants;
          Alcotest.test_case "one-hot pattern" `Quick test_simplify_one_hot;
          Alcotest.test_case "reset slow path" `Quick test_reset_slow_path;
          Alcotest.test_case "inline decision" `Quick test_inline_decision;
          Alcotest.test_case "inline single use" `Quick test_inline_single_use;
          Alcotest.test_case "extract cse" `Quick test_extract_cse;
          Alcotest.test_case "bitsplit basic" `Quick test_bitsplit_basic;
          Alcotest.test_case "bitsplit reduces activity" `Quick
            test_bitsplit_reduces_activity;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "pipeline levels" `Quick test_pipeline_soundness;
          Alcotest.test_case "node reduction" `Quick test_pipeline_reduces_nodes;
          Alcotest.test_case "optimized engines agree" `Quick test_optimized_engines_agree;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_pipeline_sound ]);
    ]

(* Appended coverage: pipeline idempotence and outcome reporting. *)

let test_pipeline_idempotent () =
  let st = Random.State.make [| 777 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  ignore (Pipeline.optimize ~level:Pipeline.O3 c);
  let nodes_after_first = (Circuit.stats c).Circuit.ir_nodes in
  let outcomes = Pipeline.optimize ~level:Pipeline.O2 c in
  let rewrites = List.fold_left (fun a o -> a + o.Pass.rewrites) 0 outcomes in
  Alcotest.(check int) "no further node changes" nodes_after_first
    (Circuit.stats c).Circuit.ir_nodes;
  Alcotest.(check bool)
    (Printf.sprintf "near-fixpoint on second run (%d rewrites)" rewrites)
    true (rewrites <= 2)

let test_outcomes_accounting () =
  let st = Random.State.make [| 778 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let before = Circuit.node_count c in
  let outcomes = Pipeline.optimize ~level:Pipeline.O2 c in
  Alcotest.(check bool) "every outcome names its pass" true
    (List.for_all (fun o -> o.Pass.outcome_pass <> "") outcomes);
  (match outcomes with
   | first :: _ -> Alcotest.(check int) "first outcome sees initial size" before first.Pass.nodes_before
   | [] -> Alcotest.fail "no outcomes");
  List.iter
    (fun o ->
      Alcotest.(check bool) "node counts consistent" true
        (o.Pass.nodes_after <= o.Pass.nodes_before + max 64 o.Pass.rewrites))
    outcomes



(* Register splitting (Fig. 4 with state). *)
let test_bitsplit_registers () =
  let c = Circuit.create () in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let lo_in = Circuit.add_input c ~name:"lo_in" ~width:8 in
  (* A 16-bit register packing a frozen high half with a live low half. *)
  let r = Circuit.add_register c ~name:"packed" ~width:16 ~init:(b ~w:16 0x7F00) () in
  Circuit.set_next c r
    (Expr.binop Expr.Cat
       (Expr.unop (Expr.Extract (15, 8)) (Expr.var ~width:16 r.Circuit.read))
       (Expr.mux (Expr.var ~width:1 en.Circuit.id)
          (Expr.var ~width:8 lo_in.Circuit.id)
          (Expr.unop (Expr.Extract (7, 0)) (Expr.var ~width:16 r.Circuit.read))));
  let hi_user =
    Circuit.add_logic c ~name:"hi_user"
      (Expr.unop Expr.Reduce_xor
         (Expr.unop (Expr.Extract (15, 8)) (Expr.var ~width:16 r.Circuit.read)))
  in
  Circuit.mark_output c hi_user.Circuit.id;
  let before_regs = List.length (Circuit.registers c) in
  let st = Random.State.make [| 99 |] in
  let stimulus =
    Array.init 30 (fun i ->
        [ (en.Circuit.id, b ~w:1 (i mod 2)); (lo_in.Circuit.id, Bits.random st ~width:8) ])
  in
  let observe = [ hi_user.Circuit.id ] in
  let expected = Sim.trace (Sim.of_reference (Reference.create c)) ~observe ~stimulus in
  let n = Bitsplit.pass.Pass.run c in
  Circuit.validate c;
  Alcotest.(check bool) "split happened" true (n > 0);
  Alcotest.(check int) "two part registers added" (before_regs + 2)
    (List.length (Circuit.registers c));
  (* hi_user now reads the frozen part register only. *)
  (match (Circuit.node c hi_user.Circuit.id).Circuit.expr with
   | Some e ->
     Alcotest.(check bool) "retargeted off the packed register" true
       (not (List.mem r.Circuit.read (Expr.vars e)))
   | None -> Alcotest.fail "missing expr");
  let got = Sim.trace (Sim.of_reference (Reference.create c)) ~observe ~stimulus in
  Alcotest.(check bool) "trace preserved" true (Sim.equal_traces expected got);
  (* And the idle half no longer wakes its consumer. *)
  let p = Partition.singleton c in
  let t = Activity.create c p in
  Activity.poke t en.Circuit.id (b ~w:1 1);
  for _ = 1 to 100 do
    Activity.poke t lo_in.Circuit.id (Bits.random st ~width:8);
    Activity.step t
  done;
  let hi_super = p.Partition.of_node.(hi_user.Circuit.id) in
  let hits_before = (Activity.supernode_hits t).(hi_super) in
  for _ = 1 to 100 do
    Activity.poke t lo_in.Circuit.id (Bits.random st ~width:8);
    Activity.step t
  done;
  let hits_after = (Activity.supernode_hits t).(hi_super) in
  Alcotest.(check int) "hi consumer stays idle under low-half traffic" hits_before
    hits_after

(* More tied extraction candidates than one run may take (64), each used
   by two consumers: [nsmall] size-2 products first seen in a scrambled
   node order, then [nbig] size-3 ones seen only after all of them.
   Returns the circuit and every candidate in the order extraction must
   take them: bigger first, ties by first occurrence in node order. *)
let nsmall = 70
let nbig = 4

let tied_candidates () =
  let c = Circuit.create () in
  let input name = Expr.var ~width:16 (Circuit.add_input c ~name ~width:16).Circuit.id in
  let y = input "y" and z = input "z" in
  let xs = Array.init nsmall (fun i -> input (Printf.sprintf "x%d" i)) in
  (* cost 4: extracted at two uses *)
  let small i = Expr.binop Expr.Mul (Expr.binop Expr.And xs.(i) y) y in
  (* cost 5; its cost-2 operand stays inline *)
  let big i = Expr.binop Expr.Mul (Expr.binop Expr.And (Expr.unop Expr.Not xs.(i)) z) z in
  let consume prefix i e other =
    let n = Circuit.add_logic c ~name:(Printf.sprintf "%s%d" prefix i) (Expr.binop Expr.Xor e other) in
    Circuit.mark_output c n.Circuit.id
  in
  let order = List.init nsmall (fun k -> k * 37 mod nsmall) in
  let bigs = List.init nbig Fun.id in
  List.iter (fun i -> consume "a" i (small i) xs.(i)) order;
  List.iter (fun i -> consume "b" i (big i) xs.(i)) bigs;
  List.iter (fun i -> consume "c" i (small i) y) order;
  List.iter (fun i -> consume "d" i (big i) z) bigs;
  (c, List.map big bigs @ List.map small order)

(* Bodies of the nodes created at or after [first], in id order. *)
let bodies_from c first =
  List.init (Circuit.max_id c - first) (fun k -> first + k)
  |> List.filter_map (fun id ->
         Option.bind (Circuit.node_opt c id) (fun n -> n.Circuit.expr))

let test_extract_cap_tie_break () =
  let c, expected = tied_candidates () in
  let stimulus = Rand_circuit.random_stimulus (Random.State.make [| 64 |]) c ~cycles:4 in
  let observe = List.map (fun n -> n.Circuit.id) (Circuit.outputs c) in
  let reference = trace_reference c ~stimulus ~observe in
  let first = Circuit.max_id c in
  Alcotest.(check int) "one run extracts exactly the cap" 64 (Inline.extract_pass.Pass.run c);
  Circuit.validate c;
  Alcotest.(check bool) "bigger first, then by first occurrence" true
    (List.equal Expr.equal (List.filteri (fun k _ -> k < 64) expected) (bodies_from c first));
  let again, _ = tied_candidates () in
  ignore (Inline.extract_pass.Pass.run again);
  Alcotest.(check string) "deterministic IR" (Ir_text.to_string c) (Ir_text.to_string again);
  Alcotest.(check int) "next run extracts the rest" (nsmall + nbig - 64)
    (Inline.extract_pass.Pass.run c);
  Alcotest.(check int) "then nothing" 0 (Inline.extract_pass.Pass.run c);
  Circuit.validate c;
  Alcotest.(check bool) "every candidate extracted once, in order" true
    (List.equal Expr.equal expected (bodies_from c first));
  Alcotest.(check bool) "trace preserved" true
    (Sim.equal_traces reference (trace_reference c ~stimulus ~observe))

(* O3 node counts of the built-in designs: a change to the extraction
   order may rename CSE nodes, but must not drop or duplicate any. *)
let test_o3_node_counts () =
  List.iter
    (fun (d, expected) ->
      let c = (d.Designs.build ()).Stu_core.circuit in
      ignore (Pipeline.optimize ~level:Pipeline.O3 c);
      Alcotest.(check int) d.Designs.design_name expected (Circuit.node_count c))
    [ (Designs.stu_core, 57); (Designs.rocket_like, 1908); (Designs.boom_like, 6538) ]

let test_pass_totals () =
  let st = Random.State.make [| 779 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let outcomes = Pipeline.optimize ~level:Pipeline.O3 c in
  let totals = Pass.totals outcomes in
  Alcotest.(check (list string)) "one row per pass, in first-application order"
    [ "simplify"; "alias"; "dce"; "reset"; "extract"; "inline"; "bitsplit" ]
    (List.map (fun t -> t.Pass.total_pass) totals);
  let sum f = List.fold_left (fun a t -> a + f t) 0 totals in
  Alcotest.(check int) "applications" (List.length outcomes) (sum (fun t -> t.Pass.applications));
  Alcotest.(check int) "rewrites"
    (List.fold_left (fun a o -> a + o.Pass.rewrites) 0 outcomes)
    (sum (fun t -> t.Pass.total_rewrites));
  match outcomes with
  | first :: _ ->
    Alcotest.(check int) "node delta"
      (Circuit.node_count c - first.Pass.nodes_before)
      (sum (fun t -> t.Pass.node_delta));
    Alcotest.(check bool) "times are nonnegative" true
      (List.for_all (fun o -> o.Pass.seconds >= 0.) outcomes)
  | [] -> Alcotest.fail "no outcomes"

let () =
  Alcotest.run "passes"
    (main_suites
     @ [
         ( "pipeline",
           [
             Alcotest.test_case "idempotent" `Quick test_pipeline_idempotent;
             Alcotest.test_case "outcome accounting" `Quick test_outcomes_accounting;
             Alcotest.test_case "bitsplit registers" `Quick test_bitsplit_registers;
             Alcotest.test_case "extract cap and tie-break" `Quick test_extract_cap_tie_break;
             Alcotest.test_case "O3 node counts" `Quick test_o3_node_counts;
             Alcotest.test_case "per-pass totals" `Quick test_pass_totals;
           ] );
       ])
