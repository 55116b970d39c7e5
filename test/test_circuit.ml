(* Circuit graph, its structural digest, and the reference interpreter. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Ir_text = Gsim_ir.Ir_text
module Reference = Gsim_ir.Reference
module Rand_circuit = Gsim_ir.Rand_circuit
module Pass = Gsim_passes.Pass
module Pipeline = Gsim_passes.Pipeline
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core

let b ~w n = Bits.of_int ~width:w n

(* An 8-bit counter with enable and synchronous reset. *)
let counter_circuit () =
  let c = Circuit.create ~name:"counter" () in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let rst = Circuit.add_input c ~name:"rst" ~width:1 in
  let count =
    Circuit.add_register c ~name:"count" ~width:8 ~init:(Bits.zero 8)
      ~reset:(rst.Circuit.id, Bits.zero 8) ()
  in
  let count_read = Expr.var ~width:8 count.Circuit.read in
  let plus1 =
    Circuit.add_logic c ~name:"plus1"
      (Expr.unop (Expr.Extract (7, 0)) (Expr.binop Expr.Add count_read (Expr.of_int ~width:8 1)))
  in
  let next =
    Expr.mux (Expr.var ~width:1 en.Circuit.id) (Expr.var ~width:8 plus1.Circuit.id) count_read
  in
  Circuit.set_next c count next;
  Circuit.mark_output c count.Circuit.read;
  (c, en.Circuit.id, rst.Circuit.id, count.Circuit.read)

let test_counter_semantics () =
  let c, en, rst, count = counter_circuit () in
  Circuit.validate c;
  let r = Reference.create c in
  Reference.poke r en (b ~w:1 1);
  Reference.run r 5;
  Alcotest.(check int) "counts to 5" 5 (Bits.to_int (Reference.peek r count));
  Reference.poke r en (b ~w:1 0);
  Reference.run r 3;
  Alcotest.(check int) "holds" 5 (Bits.to_int (Reference.peek r count));
  Reference.poke r rst (b ~w:1 1);
  Reference.step r;
  Alcotest.(check int) "resets" 0 (Bits.to_int (Reference.peek r count));
  Reference.poke r rst (b ~w:1 0);
  Reference.poke r en (b ~w:1 1);
  Reference.run r 2;
  Alcotest.(check int) "counts again" 2 (Bits.to_int (Reference.peek r count))

let test_reset_slow_path_equivalent () =
  (* Moving the reset to the slow path must not change behaviour. *)
  let c, en, rst, count = counter_circuit () in
  let reg = List.hd (Circuit.registers c) in
  (match reg.Circuit.reset with
   | Some r0 ->
     r0.Circuit.slow_path <- true;
     (* Strip the reset mux that [set_next] added. *)
     (match (Circuit.node c reg.Circuit.next).Circuit.expr with
      | Some { Expr.desc = Expr.Mux (_, _, e); _ } -> Circuit.set_expr c reg.Circuit.next e
      | Some _ | None -> Alcotest.fail "expected reset mux")
   | None -> Alcotest.fail "register has no reset");
  Circuit.validate c;
  let r = Reference.create c in
  Reference.poke r en (b ~w:1 1);
  Reference.run r 4;
  Alcotest.(check int) "counts" 4 (Bits.to_int (Reference.peek r count));
  Reference.poke r rst (b ~w:1 1);
  Reference.step r;
  Alcotest.(check int) "slow-path reset applies" 0 (Bits.to_int (Reference.peek r count));
  Reference.poke r rst (b ~w:1 0);
  Reference.step r;
  Alcotest.(check int) "resumes" 1 (Bits.to_int (Reference.peek r count))

let test_memory_semantics () =
  let c = Circuit.create ~name:"memtest" () in
  let waddr = Circuit.add_input c ~name:"waddr" ~width:4 in
  let wdata = Circuit.add_input c ~name:"wdata" ~width:8 in
  let wen = Circuit.add_input c ~name:"wen" ~width:1 in
  let raddr = Circuit.add_input c ~name:"raddr" ~width:4 in
  let mem = Circuit.add_memory c ~name:"m" ~width:8 ~depth:16 in
  let rdata = Circuit.add_read_port c ~mem ~name:"rdata" ~addr:raddr.Circuit.id () in
  Circuit.add_write_port c ~mem ~addr:waddr.Circuit.id ~data:wdata.Circuit.id
    ~en:wen.Circuit.id;
  Circuit.mark_output c rdata.Circuit.id;
  Circuit.validate c;
  let r = Reference.create c in
  Reference.poke r waddr.Circuit.id (b ~w:4 3);
  Reference.poke r wdata.Circuit.id (b ~w:8 0xAB);
  Reference.poke r wen.Circuit.id (b ~w:1 1);
  Reference.poke r raddr.Circuit.id (b ~w:4 3);
  Reference.step r;
  (* The write commits at the end of the cycle; the read saw the old value. *)
  Alcotest.(check int) "read before write" 0 (Bits.to_int (Reference.peek r rdata.Circuit.id));
  Reference.poke r wen.Circuit.id (b ~w:1 0);
  Reference.step r;
  Alcotest.(check int) "read after write" 0xAB
    (Bits.to_int (Reference.peek r rdata.Circuit.id));
  Alcotest.(check int) "read_mem" 0xAB (Bits.to_int (Reference.read_mem r mem 3))

let test_combinational_cycle_detected () =
  let c = Circuit.create () in
  let a = Circuit.add_logic c ~name:"a" (Expr.of_int ~width:1 0) in
  let bnode = Circuit.add_logic c ~name:"b" (Expr.var ~width:1 a.Circuit.id) in
  Circuit.set_expr c a.Circuit.id (Expr.var ~width:1 bnode.Circuit.id);
  Alcotest.(check bool) "cycle raises" true
    (match Circuit.eval_order c with
     | exception Circuit.Combinational_cycle _ -> true
     | _ -> false)

let test_validate_catches_width () =
  let c = Circuit.create () in
  let a = Circuit.add_logic c ~name:"a" (Expr.of_int ~width:4 3) in
  Alcotest.check_raises "set_expr width check"
    (Invalid_argument "Circuit.set_expr: node \"a\" has width 4, expression 5") (fun () ->
      Circuit.set_expr c a.Circuit.id (Expr.of_int ~width:5 3))

let test_stats () =
  let c, _, _, _ = counter_circuit () in
  let s = Circuit.stats c in
  (* en, rst, count(read+next), plus1 = 5 nodes. *)
  Alcotest.(check int) "nodes" 5 s.Circuit.ir_nodes;
  Alcotest.(check int) "registers" 1 s.Circuit.registers_count;
  Alcotest.(check bool) "edges counted" true (s.Circuit.ir_edges > 4)

let test_replace_uses_and_delete () =
  let c = Circuit.create () in
  let x = Circuit.add_input c ~name:"x" ~width:8 in
  let alias = Circuit.add_logic c ~name:"alias" (Expr.var ~width:8 x.Circuit.id) in
  let user =
    Circuit.add_logic c ~name:"user"
      (Expr.unop Expr.Not (Expr.var ~width:8 alias.Circuit.id))
  in
  Circuit.mark_output c user.Circuit.id;
  Circuit.replace_uses c ~of_:alias.Circuit.id ~with_:(Expr.var ~width:8 x.Circuit.id);
  Circuit.delete_node c alias.Circuit.id;
  Circuit.validate c;
  Alcotest.(check int) "node gone" 2 (Circuit.node_count c);
  let map = Circuit.compact c in
  Circuit.validate c;
  Alcotest.(check int) "compacted ids dense" 2 (Circuit.max_id c);
  Alcotest.(check int) "deleted maps to -1" (-1) map.(alias.Circuit.id)

let test_compact_preserves_semantics () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 10 do
    let c = Rand_circuit.generate st Rand_circuit.default_config in
    let stim = Rand_circuit.random_stimulus st c ~cycles:20 in
    let observe = List.map (fun n -> n.Circuit.id) (Circuit.outputs c) in
    let r1 = Reference.create c in
    let before =
      Array.map
        (fun pokes ->
          List.iter (fun (id, v) -> Reference.poke r1 id v) pokes;
          Reference.step r1;
          List.map (Reference.peek r1) observe)
        stim
    in
    let map = Circuit.compact c in
    Circuit.validate c;
    let r2 = Reference.create c in
    let after =
      Array.map
        (fun pokes ->
          List.iter (fun (id, v) -> Reference.poke r2 map.(id) v) pokes;
          Reference.step r2;
          List.map (fun id -> Reference.peek r2 map.(id)) observe)
        stim
    in
    Alcotest.(check bool) "same trace" true
      (Array.for_all2 (fun xs ys -> List.equal Bits.equal xs ys) before after)
  done

let test_random_circuits_valid () =
  let st = Random.State.make [| 7 |] in
  for i = 1 to 25 do
    let cfg =
      {
        Rand_circuit.default_config with
        Rand_circuit.logic_nodes = 10 + (i * 5);
        max_width = 1 + (i * 7 mod 90);
      }
    in
    let c = Rand_circuit.generate st cfg in
    Circuit.validate c
  done

(* --- Circuit.digest ------------------------------------------------------ *)

let hex c = Digest.to_hex (Circuit.digest c)

let test_digest_equal_builds () =
  let build () = (Designs.boom_like.Designs.build ()).Stu_core.circuit in
  let a = build () and b = build () in
  Alcotest.(check string) "two builds" (hex a) (hex b);
  Alcotest.(check string) "copy" (hex a) (hex (Circuit.copy a))

(* Distinct texts must never share a digest.  [seen] maps each digest to
   the text that first produced it. *)
let check_injective seen c =
  let text = Ir_text.to_string c and d = Circuit.digest c in
  match Hashtbl.find_opt seen d with
  | Some t when t <> text ->
    Alcotest.failf "different texts share digest %s" (Digest.to_hex d)
  | Some _ -> ()
  | None -> Hashtbl.replace seen d text

let test_digest_random () =
  let seen = Hashtbl.create 256 in
  let st = Random.State.make [| 20 |] in
  for i = 0 to 199 do
    let cfg =
      {
        Rand_circuit.default_config with
        Rand_circuit.logic_nodes = 5 + (i mod 40);
        max_width = 1 + (i * 13 mod 100);
        with_memory = i mod 3 <> 0;
        with_reset = i mod 2 = 0;
      }
    in
    check_injective seen (Rand_circuit.generate st cfg)
  done;
  Alcotest.(check bool) "circuits differ" true (Hashtbl.length seen > 190)

(* Every rewriting pass application of Rocket's O3 pipeline, replayed one
   application at a time as the fuzzer's bisection does. *)
let test_digest_o3_replay () =
  let c = Circuit.copy (Designs.rocket_like.Designs.build ()).Stu_core.circuit in
  let seen = Hashtbl.create 64 in
  check_injective seen c;
  List.iter
    (fun (st : Pipeline.stage) ->
      let rec round r =
        if r < st.Pipeline.stage_max_rounds then begin
          let changed =
            List.fold_left
              (fun changed p ->
                if (Pass.apply p c).Pass.rewrites > 0 then begin
                  check_injective seen c;
                  true
                end
                else changed)
              false st.Pipeline.stage_passes
          in
          if changed then round (r + 1)
        end
      in
      round 0)
    (Pipeline.plan Pipeline.O3);
  Alcotest.(check bool) "several rewritten circuits" true (Hashtbl.length seen > 5)

(* One circuit with every fact the text prints, each settable. *)
type knobs = {
  k_name : string;
  k_width : int;
  k_output : bool;
  k_init : int;
  k_reset : int;
  k_slow : bool;
  k_depth : int;
  k_ren_e1 : bool;
  k_wen_e1 : bool;
}

let base_knobs =
  {
    k_name = "a"; k_width = 6; k_output = true; k_init = 0; k_reset = 0; k_slow = false;
    k_depth = 4; k_ren_e1 = true; k_wen_e1 = true;
  }

let knob_circuit k =
  let c = Circuit.create ~name:"knobs" () in
  let a = Circuit.add_input c ~name:k.k_name ~width:k.k_width in
  let e1 = Circuit.add_input c ~name:"e1" ~width:1 in
  let e2 = Circuit.add_input c ~name:"e2" ~width:1 in
  let rst = Circuit.add_input c ~name:"rst" ~width:1 in
  let addr = Circuit.add_input c ~name:"addr" ~width:2 in
  let any =
    Circuit.add_logic c ~name:"any"
      (Expr.unop Expr.Reduce_or (Expr.var ~width:k.k_width a.Circuit.id))
  in
  let r =
    Circuit.add_register c ~name:"r" ~width:8 ~init:(b ~w:8 k.k_init)
      ~reset:(rst.Circuit.id, b ~w:8 k.k_reset) ()
  in
  Circuit.set_next c r (Expr.var ~width:8 r.Circuit.read);
  (Option.get r.Circuit.reset).Circuit.slow_path <- k.k_slow;
  let en flag = if flag then e1.Circuit.id else e2.Circuit.id in
  let mem = Circuit.add_memory c ~name:"m" ~width:8 ~depth:k.k_depth in
  ignore
    (Circuit.add_read_port c ~mem ~name:"rd" ~addr:addr.Circuit.id ~en:(en k.k_ren_e1) ());
  Circuit.add_write_port c ~mem ~addr:addr.Circuit.id ~data:r.Circuit.read ~en:(en k.k_wen_e1);
  if k.k_output then Circuit.mark_output c any.Circuit.id;
  c

let test_digest_field_edits () =
  let base = hex (knob_circuit base_knobs) in
  Alcotest.(check string) "rebuilt" base (hex (knob_circuit base_knobs));
  List.iter
    (fun (field, k) ->
      if hex (knob_circuit k) = base then Alcotest.failf "editing %s keeps the digest" field)
    [
      ("name", { base_knobs with k_name = "a2" });
      ("width", { base_knobs with k_width = 7 });
      ("output mark", { base_knobs with k_output = false });
      ("register init", { base_knobs with k_init = 1 });
      ("reset value", { base_knobs with k_reset = 1 });
      ("slow-path flag", { base_knobs with k_slow = true });
      ("memory depth", { base_knobs with k_depth = 5 });
      ("read-port enable", { base_knobs with k_ren_e1 = false });
      ("write-port enable", { base_knobs with k_wen_e1 = false });
    ]

let () =
  Alcotest.run "circuit"
    [
      ( "semantics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "reset slow path" `Quick test_reset_slow_path_equivalent;
          Alcotest.test_case "memory" `Quick test_memory_semantics;
        ] );
      ( "structure",
        [
          Alcotest.test_case "cycle detection" `Quick test_combinational_cycle_detected;
          Alcotest.test_case "width validation" `Quick test_validate_catches_width;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "replace/delete/compact" `Quick test_replace_uses_and_delete;
          Alcotest.test_case "compact preserves semantics" `Quick
            test_compact_preserves_semantics;
          Alcotest.test_case "random circuits validate" `Quick test_random_circuits_valid;
        ] );
      ( "digest",
        [
          Alcotest.test_case "separate builds and copies agree" `Quick test_digest_equal_builds;
          Alcotest.test_case "random circuits: text differs, digest differs" `Quick
            test_digest_random;
          Alcotest.test_case "O3 replay of Rocket: text differs, digest differs" `Quick
            test_digest_o3_replay;
          Alcotest.test_case "one-field edits change the digest" `Quick test_digest_field_edits;
        ] );
    ]
