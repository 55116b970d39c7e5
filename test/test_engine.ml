(* Engines: every engine must be bit-identical to the reference interpreter
   on hand-written circuits, the counter/memory circuits, and on randomly
   generated circuits under random stimulus.  Also checks the activity
   machinery: an idle circuit stops evaluating, counters behave. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Reference = Gsim_ir.Reference
module Rand_circuit = Gsim_ir.Rand_circuit
module Partition = Gsim_partition.Partition
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
module Full_cycle = Gsim_engine.Full_cycle
module Activity = Gsim_engine.Activity
module Parallel = Gsim_engine.Parallel
module Repcut = Gsim_engine.Repcut
module Runtime = Gsim_engine.Runtime

let b ~w n = Bits.of_int ~width:w n

(* All engines under test, as (name, circuit -> Sim.t * cleanup). *)
let engines : (string * (Circuit.t -> Sim.t * (unit -> unit))) list =
  [
    ("full_cycle", fun c -> (Full_cycle.sim (Full_cycle.create c), fun () -> ()));
    ( "parallel2",
      fun c ->
        let t = Parallel.create ~threads:2 c in
        (Parallel.sim t, fun () -> Parallel.destroy t) );
    ( "parallel4",
      fun c ->
        let t = Parallel.create ~threads:4 c in
        (Parallel.sim t, fun () -> Parallel.destroy t) );
    ( "essent_singleton",
      fun c ->
        let p = Partition.singleton c in
        (Activity.sim ~name:"essent_singleton"
           (Activity.create ~config:Activity.essent_config c p),
         fun () -> ()) );
    ( "essent_mffc",
      fun c ->
        let p = Partition.mffc c ~max_size:12 in
        (Activity.sim ~name:"essent_mffc"
           (Activity.create ~config:Activity.essent_config c p),
         fun () -> ()) );
    ( "gsim",
      fun c ->
        let p = Partition.gsim c ~max_size:24 in
        (Activity.sim ~name:"gsim" (Activity.create ~config:Activity.gsim_config c p),
         fun () -> ()) );
    ( "gsim_kernighan",
      fun c ->
        let p = Partition.kernighan c ~max_size:16 in
        (Activity.sim ~name:"gsim_kernighan"
           (Activity.create ~config:Activity.gsim_config c p),
         fun () -> ()) );
    ( "gsim_branch",
      fun c ->
        let p = Partition.gsim c ~max_size:24 in
        ( Activity.sim ~name:"gsim_branch"
            (Activity.create
               ~config:{ Activity.packed_exam = true; activation = Activity.Branch }
               c p),
          fun () -> () ) );
    ( "gsim_monolithic",
      fun c ->
        let p = Partition.monolithic c in
        (Activity.sim ~name:"gsim_monolithic" (Activity.create c p), fun () -> ()) );
    ( "repcut1",
      fun c ->
        let t = Repcut.create ~threads:1 c in
        (Repcut.sim t, fun () -> Repcut.destroy t) );
    ( "repcut3",
      fun c ->
        let t = Repcut.create ~threads:3 c in
        (Repcut.sim t, fun () -> Repcut.destroy t) );
  ]

let compare_with_reference ~name c ~stimulus =
  let observe = List.map (fun n -> n.Circuit.id) (Circuit.outputs c) in
  let expected = Sim.trace (Sim.of_reference (Reference.create c)) ~observe ~stimulus in
  List.iter
    (fun (ename, make) ->
      let sim, cleanup = make c in
      let got = Sim.trace sim ~observe ~stimulus in
      cleanup ();
      if not (Sim.equal_traces expected got) then
        Alcotest.failf "%s: engine %s diverges from reference" name ename)
    engines

(* --- Hand-written circuits ------------------------------------------- *)

let counter_circuit () =
  let c = Circuit.create ~name:"counter" () in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let rst = Circuit.add_input c ~name:"rst" ~width:1 in
  let count =
    Circuit.add_register c ~name:"count" ~width:8 ~init:(Bits.zero 8)
      ~reset:(rst.Circuit.id, Bits.zero 8) ()
  in
  let count_read = Expr.var ~width:8 count.Circuit.read in
  let next =
    Expr.mux
      (Expr.var ~width:1 en.Circuit.id)
      (Expr.unop (Expr.Extract (7, 0))
         (Expr.binop Expr.Add count_read (Expr.of_int ~width:8 1)))
      count_read
  in
  Circuit.set_next c count next;
  Circuit.mark_output c count.Circuit.read;
  (c, en.Circuit.id, rst.Circuit.id)

let test_counter_all_engines () =
  let c, en, rst = counter_circuit () in
  let stimulus =
    Array.init 30 (fun i ->
        [ (en, b ~w:1 (if i mod 3 = 0 then 0 else 1)); (rst, b ~w:1 (if i = 17 then 1 else 0)) ])
  in
  compare_with_reference ~name:"counter" c ~stimulus

let fifo_circuit () =
  (* A 16-deep FIFO built from a memory and two pointers: checks memory
     read/write interplay under all engines. *)
  let c = Circuit.create ~name:"fifo" () in
  let push = Circuit.add_input c ~name:"push" ~width:1 in
  let pop = Circuit.add_input c ~name:"pop" ~width:1 in
  let din = Circuit.add_input c ~name:"din" ~width:8 in
  let wptr = Circuit.add_register c ~name:"wptr" ~width:4 ~init:(Bits.zero 4) () in
  let rptr = Circuit.add_register c ~name:"rptr" ~width:4 ~init:(Bits.zero 4) () in
  let bump ptr en =
    Expr.mux
      (Expr.var ~width:1 en)
      (Expr.unop (Expr.Extract (3, 0))
         (Expr.binop Expr.Add (Expr.var ~width:4 ptr) (Expr.of_int ~width:4 1)))
      (Expr.var ~width:4 ptr)
  in
  Circuit.set_next c wptr (bump wptr.Circuit.read push.Circuit.id);
  Circuit.set_next c rptr (bump rptr.Circuit.read pop.Circuit.id);
  let mem = Circuit.add_memory c ~name:"buf" ~width:8 ~depth:16 in
  let rdata =
    Circuit.add_read_port c ~mem ~name:"rdata" ~addr:rptr.Circuit.read ()
  in
  let wptr_node =
    Circuit.add_logic c ~name:"waddr" (Expr.var ~width:4 wptr.Circuit.read)
  in
  Circuit.add_write_port c ~mem ~addr:wptr_node.Circuit.id ~data:din.Circuit.id
    ~en:push.Circuit.id;
  Circuit.mark_output c rdata.Circuit.id;
  Circuit.mark_output c wptr.Circuit.read;
  Circuit.mark_output c rptr.Circuit.read;
  (c, push.Circuit.id, pop.Circuit.id, din.Circuit.id)

let test_fifo_all_engines () =
  let c, push, pop, din = fifo_circuit () in
  let st = Random.State.make [| 21 |] in
  let stimulus =
    Array.init 60 (fun i ->
        [
          (push, b ~w:1 (Random.State.int st 2));
          (pop, b ~w:1 (Random.State.int st 2));
          (din, b ~w:8 (i land 0xFF));
        ])
  in
  compare_with_reference ~name:"fifo" c ~stimulus

let wide_alu_circuit () =
  (* 100-bit datapath: exercises the boxed value path in every engine. *)
  let c = Circuit.create ~name:"wide_alu" () in
  let a = Circuit.add_input c ~name:"a" ~width:100 in
  let bi = Circuit.add_input c ~name:"b" ~width:100 in
  let sel = Circuit.add_input c ~name:"sel" ~width:2 in
  let va = Expr.var ~width:100 a.Circuit.id and vb = Expr.var ~width:100 bi.Circuit.id in
  let sum = Expr.unop (Expr.Extract (99, 0)) (Expr.binop Expr.Add va vb) in
  let prod = Expr.unop (Expr.Extract (99, 0)) (Expr.binop Expr.Mul va vb) in
  let x = Expr.binop Expr.Xor va vb in
  let pick k e rest =
    Expr.mux (Expr.binop Expr.Eq (Expr.var ~width:2 sel.Circuit.id) (Expr.of_int ~width:2 k)) e rest
  in
  let out = Circuit.add_logic c ~name:"out" (pick 0 sum (pick 1 prod x)) in
  let acc = Circuit.add_register c ~name:"acc" ~width:100 ~init:(Bits.zero 100) () in
  Circuit.set_next c acc
    (Expr.binop Expr.Xor (Expr.var ~width:100 acc.Circuit.read)
       (Expr.var ~width:100 out.Circuit.id));
  Circuit.mark_output c out.Circuit.id;
  Circuit.mark_output c acc.Circuit.read;
  (c, a.Circuit.id, bi.Circuit.id, sel.Circuit.id)

let test_wide_alu_all_engines () =
  let c, a, bi, sel = wide_alu_circuit () in
  let st = Random.State.make [| 22 |] in
  let stimulus =
    Array.init 40 (fun _ ->
        [
          (a, Bits.random st ~width:100);
          (bi, Bits.random st ~width:100);
          (sel, b ~w:2 (Random.State.int st 4));
        ])
  in
  compare_with_reference ~name:"wide_alu" c ~stimulus

(* --- Random circuits -------------------------------------------------- *)

let test_random_circuits_equivalence () =
  let st = Random.State.make [| 99 |] in
  for i = 1 to 12 do
    let cfg =
      {
        Rand_circuit.default_config with
        Rand_circuit.logic_nodes = 30 + (i * 12);
        max_width = (if i mod 3 = 0 then 120 else 40);
      }
    in
    let c = Rand_circuit.generate st cfg in
    let stimulus = Rand_circuit.random_stimulus st c ~cycles:25 in
    compare_with_reference ~name:(Printf.sprintf "random%d" i) c ~stimulus
  done

let prop_engines_agree =
  QCheck.Test.make ~name:"engines agree with reference on random circuits" ~count:15
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let st = Random.State.make [| seed; 77 |] in
      let c = Rand_circuit.generate st Rand_circuit.default_config in
      let stimulus = Rand_circuit.random_stimulus st c ~cycles:15 in
      compare_with_reference ~name:(Printf.sprintf "seed%d" seed) c ~stimulus;
      true)

(* --- Activity machinery ---------------------------------------------- *)

let test_idle_circuit_stops_evaluating () =
  let c, en, rst = counter_circuit () in
  let p = Partition.gsim c ~max_size:24 in
  let t = Activity.create c p in
  Activity.poke t en (b ~w:1 0);
  Activity.poke t rst (b ~w:1 0);
  for _ = 1 to 10 do
    Activity.step t
  done;
  let evals_before = (Activity.counters t).Counters.evals in
  for _ = 1 to 100 do
    Activity.step t
  done;
  let evals_after = (Activity.counters t).Counters.evals in
  Alcotest.(check int) "no evaluations while idle" evals_before evals_after

let test_active_counter_keeps_evaluating () =
  let c, en, rst = counter_circuit () in
  let p = Partition.gsim c ~max_size:24 in
  let t = Activity.create c p in
  Activity.poke t en (b ~w:1 1);
  Activity.poke t rst (b ~w:1 0);
  for _ = 1 to 50 do
    Activity.step t
  done;
  let ctr = Activity.counters t in
  Alcotest.(check bool) "evaluations happen" true (ctr.Counters.evals >= 50);
  Alcotest.(check bool) "registers latch" true (ctr.Counters.reg_commits >= 49)

let test_activity_factor_low_on_mostly_idle () =
  (* Two counters; only one enabled.  The idle half should not evaluate. *)
  let c = Circuit.create () in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let mk_counter name enable =
    let r = Circuit.add_register c ~name ~width:16 ~init:(Bits.zero 16) () in
    let next =
      Expr.mux enable
        (Expr.unop (Expr.Extract (15, 0))
           (Expr.binop Expr.Add (Expr.var ~width:16 r.Circuit.read) (Expr.of_int ~width:16 1)))
        (Expr.var ~width:16 r.Circuit.read)
    in
    Circuit.set_next c r next;
    Circuit.mark_output c r.Circuit.read;
    r
  in
  let _live = mk_counter "live" (Expr.var ~width:1 en.Circuit.id) in
  let _idle = mk_counter "idle" (Expr.of_int ~width:1 0) in
  let p = Partition.singleton c in
  let t = Activity.create c p in
  Activity.poke t en.Circuit.id (b ~w:1 1);
  for _ = 1 to 100 do
    Activity.step t
  done;
  let ctr = Activity.counters t in
  let af = Counters.activity_factor ctr ~total_nodes:(Circuit.node_count c) in
  Alcotest.(check bool) (Printf.sprintf "af=%.3f below 0.5" af) true (af < 0.5)

let test_counters_cleared () =
  let ctr = Counters.create () in
  ctr.Counters.evals <- 5;
  Counters.clear ctr;
  Alcotest.(check int) "cleared" 0 ctr.Counters.evals

let test_repcut_replication () =
  let c, _, _ = counter_circuit () in
  let t = Repcut.create ~threads:2 c in
  Alcotest.(check bool) "replication factor >= 1" true (Repcut.replication_factor t >= 1.0);
  Alcotest.(check int) "two cones" 2 (Array.length (Repcut.cone_sizes t));
  Repcut.destroy t;
  Repcut.destroy t

let test_parallel_levels () =
  let c, _, _ = counter_circuit () in
  let t = Parallel.create ~threads:2 c in
  Alcotest.(check bool) "levels > 0" true (Parallel.level_count t > 0);
  Parallel.destroy t;
  (* destroy is idempotent *)
  Parallel.destroy t

(* --- SWAR popcount (Reduce_xor on packed values) ------------------------ *)

let naive_popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

let test_popcount () =
  let check v =
    Alcotest.(check int)
      (Printf.sprintf "popcount %d" v)
      (naive_popcount v) (Runtime.popcount_int v)
  in
  List.iter check [ 0; 1; 2; 3; 0x55; 0xAA; (1 lsl 62) - 1; 1 lsl 61; max_int ];
  let st = Random.State.make [| 4242 |] in
  for _ = 1 to 1000 do
    check (Int64.to_int (Random.State.int64 st (Int64.shift_left 1L 62)))
  done

(* --- Runtime commit paths shared by the engines --------------------------- *)

let bits = Alcotest.testable Bits.pp Bits.equal

(* Two plain narrow registers, one forcible narrow register and one wide
   register, all with a slow-path reset to 3, plus a 4-word memory with
   one write port: covers the (next, read) slot-pair loop, the wide and
   guarded copiers, the grouped reset appliers and the write committers. *)
let latch_circuit () =
  let c = Circuit.create ~name:"latch" () in
  let x = Circuit.add_input c ~name:"x" ~width:8 in
  let y = Circuit.add_input c ~name:"y" ~width:100 in
  let rst = Circuit.add_input c ~name:"rst" ~width:1 in
  let we = Circuit.add_input c ~name:"we" ~width:1 in
  let wa = Circuit.add_input c ~name:"wa" ~width:2 in
  let vx = Expr.var ~width:8 x.Circuit.id in
  let reg name ~w next =
    let r =
      Circuit.add_register c ~name ~width:w ~init:(Bits.zero w)
        ~reset:(rst.Circuit.id, b ~w 3) ()
    in
    Circuit.set_next c r next;
    Circuit.mark_output c r.Circuit.read;
    r
  in
  let ra = reg "a" ~w:8 vx in
  let rb =
    reg "b" ~w:8
      (Expr.unop (Expr.Extract (7, 0)) (Expr.binop Expr.Add vx (Expr.of_int ~width:8 1)))
  in
  let rf = reg "f" ~w:8 vx in
  let rw = reg "w" ~w:100 (Expr.var ~width:100 y.Circuit.id) in
  let mem = Circuit.add_memory c ~name:"m" ~width:8 ~depth:4 in
  Circuit.add_write_port c ~mem ~addr:wa.Circuit.id ~data:x.Circuit.id ~en:we.Circuit.id;
  let stripped = Gsim_passes.Reset_opt.pass.Gsim_passes.Pass.run c in
  Alcotest.(check int) "every reset on the slow path" 4 stripped;
  (c, (x.Circuit.id, y.Circuit.id, rst.Circuit.id, we.Circuit.id, wa.Circuit.id),
   (ra, rb, rf, rw), mem)

(* Evaluate every register's next node, so the committers see fresh
   next slots. *)
let eval_nexts rt c =
  let steps =
    List.map
      (fun (r : Circuit.register) -> Runtime.node_evaluator rt (Circuit.node c r.Circuit.next))
      (Circuit.registers c)
  in
  fun () -> List.iter (fun f -> ignore (f ())) steps

let test_reg_committer () =
  let c, (x, y, _, _, _), (ra, rb, rf, rw), _ = latch_circuit () in
  let rt = Runtime.create c in
  let eval = eval_nexts rt c in
  let commit =
    Runtime.reg_committer rt ~forcible:(fun id -> id = rf.Circuit.read) (Circuit.registers c)
  in
  let peek (r : Circuit.register) = Runtime.peek rt r.Circuit.read in
  let yv = Bits.random (Random.State.make [| 5 |]) ~width:100 in
  ignore (Runtime.poke rt x (b ~w:8 5));
  ignore (Runtime.poke rt y yv);
  ignore (Runtime.force rt rf.Circuit.read (b ~w:8 0xAA));
  eval ();
  Alcotest.(check int) "narrow and wide latch, forced one holds" 3 (commit ());
  Alcotest.check bits "a" (b ~w:8 5) (peek ra);
  Alcotest.check bits "b" (b ~w:8 6) (peek rb);
  Alcotest.check bits "w" yv (peek rw);
  Alcotest.check bits "forced f" (b ~w:8 0xAA) (peek rf);
  Alcotest.(check int) "nothing new to latch" 0 (commit ());
  ignore (Runtime.release rt rf.Circuit.read);
  Alcotest.(check int) "released register latches" 1 (commit ());
  Alcotest.check bits "released f" (b ~w:8 5) (peek rf);
  ignore (Runtime.poke rt x (b ~w:8 0xFF));
  eval ();
  Alcotest.(check int) "narrow registers only" 3 (commit ());
  Alcotest.check bits "b wraps" (b ~w:8 0) (peek rb)

let test_reset_groups () =
  let c, (x, y, rst, _, _), (ra, rb, rf, rw), _ = latch_circuit () in
  let rt = Runtime.create c in
  let eval = eval_nexts rt c in
  let commit = Runtime.reg_committer rt ~forcible:(fun _ -> false) (Circuit.registers c) in
  let groups = Runtime.reset_groups rt ~forcible:(fun id -> id = rf.Circuit.read) in
  Alcotest.(check int) "one group per reset signal" 1 (Array.length groups);
  let signal, appliers = groups.(0) in
  Alcotest.(check int) "one applier per register" 4 (Array.length appliers);
  let apply () = Array.fold_left (fun n f -> if f () then n + 1 else n) 0 appliers in
  ignore (Runtime.poke rt x (b ~w:8 9));
  ignore (Runtime.poke rt y (b ~w:100 9));
  eval ();
  ignore (commit ());
  Alcotest.(check bool) "reset low" false (signal ());
  ignore (Runtime.poke rt rst (b ~w:1 1));
  Alcotest.(check bool) "reset high" true (signal ());
  ignore (Runtime.force rt rf.Circuit.read (b ~w:8 0xAA));
  Alcotest.(check int) "unforced registers reset" 3 (apply ());
  List.iter
    (fun (name, (r : Circuit.register), w) ->
      Alcotest.check bits name (b ~w 3) (Runtime.peek rt r.Circuit.read))
    [ ("a", ra, 8); ("b", rb, 8); ("w", rw, 100) ];
  Alcotest.check bits "override survives the reset" (b ~w:8 0xAA)
    (Runtime.peek rt rf.Circuit.read);
  Alcotest.(check int) "reset is idempotent" 0 (apply ())

let test_write_committers () =
  let c, (x, _, _, we, wa), _, mem = latch_circuit () in
  let rt = Runtime.create c in
  let writes = Runtime.write_committers rt in
  Alcotest.(check int) "one committer per write port" 1 (Array.length writes);
  let write = writes.(0) in
  Runtime.set_mem_tracking rt true;
  ignore (Runtime.poke rt x (b ~w:8 7));
  ignore (Runtime.poke rt wa (b ~w:2 2));
  Alcotest.(check bool) "disabled port writes nothing" false (write ());
  ignore (Runtime.poke rt we (b ~w:1 1));
  Alcotest.(check bool) "enabled port writes" true (write ());
  Alcotest.check bits "word 2" (b ~w:8 7) (Runtime.read_mem rt mem 2);
  Alcotest.check bits "word 1 untouched" (b ~w:8 0) (Runtime.read_mem rt mem 1);
  Alcotest.(check bool) "same value is no change" false (write ());
  Alcotest.(check (list (pair int (array int))))
    "store recorded as dirty" [ (mem, [| 2 |]) ] (Runtime.take_dirty_mem rt)

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "counter" `Quick test_counter_all_engines;
          Alcotest.test_case "fifo" `Quick test_fifo_all_engines;
          Alcotest.test_case "wide alu" `Quick test_wide_alu_all_engines;
          Alcotest.test_case "random circuits" `Slow test_random_circuits_equivalence;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_engines_agree ]);
      ( "activity",
        [
          Alcotest.test_case "idle stops evaluating" `Quick test_idle_circuit_stops_evaluating;
          Alcotest.test_case "active keeps evaluating" `Quick
            test_active_counter_keeps_evaluating;
          Alcotest.test_case "low af when mostly idle" `Quick
            test_activity_factor_low_on_mostly_idle;
          Alcotest.test_case "counters clear" `Quick test_counters_cleared;
          Alcotest.test_case "parallel levels/destroy" `Quick test_parallel_levels;
          Alcotest.test_case "repcut replication" `Quick test_repcut_replication;
        ] );
      ("popcount", [ Alcotest.test_case "swar vs naive" `Quick test_popcount ]);
      ( "runtime",
        [
          Alcotest.test_case "register commit loop" `Quick test_reg_committer;
          Alcotest.test_case "reset groups keep overrides" `Quick test_reset_groups;
          Alcotest.test_case "write committers" `Quick test_write_committers;
        ] );
    ]
