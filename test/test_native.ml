(* Evaluation backends: closures and native (AOT-compiled C) must be
   bit-identical to the reference interpreter on every engine that can
   select them, over hand-written signed div/rem corners, a 120-circuit
   torture sweep, a 60-circuit force/release torture and coverage
   databases.  Without a C compiler the closure halves still run.  Also
   pins the .so cache behaviour (miss on first compile, hit on reuse,
   invalidation on circuit-hash change), the missing-compiler fallback,
   and the auto heuristic. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Reference = Gsim_ir.Reference
module Rand_circuit = Gsim_ir.Rand_circuit
module Partition = Gsim_partition.Partition
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
module Eval = Gsim_engine.Eval
module Native = Gsim_engine.Native
module Full_cycle = Gsim_engine.Full_cycle
module Activity = Gsim_engine.Activity
module Parallel = Gsim_engine.Parallel
module Emit_c = Gsim_emit.Emit_c
module Collect = Gsim_coverage.Collect
module Db = Gsim_coverage.Db
module Oracle = Gsim_verify.Oracle
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core
module Gsim = Gsim_core.Gsim

let b ~w n = Bits.of_int ~width:w n

(* Isolate the suite from any user-level cache so miss/hit assertions are
   deterministic; the memo inside Native is per-process and starts
   empty. *)
let () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsim-native-test-%d" (Unix.getpid ()))
  in
  Unix.putenv "GSIM_NATIVE_CACHE" dir

let have_cc = Native.available ()

let skip_without_cc () =
  if not have_cc then Alcotest.skip ()

(* The backends under test: closures always, native when cc works. *)
let backends = `Closures :: (if have_cc then [ `Native ] else [])

(* --- signed div/rem corners ------------------------------------------- *)

let divrem_circuit ~w =
  let c = Circuit.create ~name:(Printf.sprintf "divrem%d" w) () in
  let a = Circuit.add_input c ~name:"a" ~width:w in
  let d = Circuit.add_input c ~name:"d" ~width:w in
  let va = Expr.var ~width:w a.Circuit.id and vd = Expr.var ~width:w d.Circuit.id in
  let q = Circuit.add_logic c ~name:"q" (Expr.binop Expr.Div_signed va vd) in
  let r = Circuit.add_logic c ~name:"r" (Expr.binop Expr.Rem_signed va vd) in
  let uq = Circuit.add_logic c ~name:"uq" (Expr.binop Expr.Div va vd) in
  let ur = Circuit.add_logic c ~name:"ur" (Expr.binop Expr.Rem va vd) in
  List.iter (fun (n : Circuit.node) -> Circuit.mark_output c n.Circuit.id) [ q; r; uq; ur ];
  (c, a.Circuit.id, d.Circuit.id)

let divrem_corners w =
  let minv = 1 lsl (w - 1) in
  let m1 = (1 lsl w) - 1 in
  [ 0; 1; m1; minv; minv lor 1; m1 lxor minv ]

let test_signed_divrem ~w () =
  let c, a, d = divrem_circuit ~w in
  let corners = divrem_corners w in
  let stimulus =
    List.concat_map (fun x -> List.map (fun y -> [ (a, b ~w x); (d, b ~w y) ]) corners) corners
    |> Array.of_list
  in
  let observe = List.map (fun (n : Circuit.node) -> n.Circuit.id) (Circuit.outputs c) in
  let expected = Sim.trace (Sim.of_reference (Reference.create c)) ~observe ~stimulus in
  List.iter
    (fun backend ->
      let name = Eval.to_string backend in
      let t = Full_cycle.create ~backend c in
      Alcotest.(check string)
        (name ^ " actually ran") name (Full_cycle.counters t).Counters.backend;
      let got = Sim.trace (Full_cycle.sim t) ~observe ~stimulus in
      if not (Sim.equal_traces expected got) then
        Alcotest.failf "signed div/rem (w=%d) diverges under %s" w name)
    backends

(* --- differential torture: closures vs native ------------------------- *)

let engines backend :
    (string * (Circuit.t -> Sim.t * (unit -> unit))) list =
  [
    ("full_cycle", fun c -> (Full_cycle.sim (Full_cycle.create ~backend c), fun () -> ()));
    ( "essent_mffc",
      fun c ->
        let p = Partition.mffc c ~max_size:12 in
        ( Activity.sim ~name:"essent_mffc"
            (Activity.create ~config:Activity.essent_config ~backend c p),
          fun () -> () ) );
    ( "gsim",
      fun c ->
        let p = Partition.gsim c ~max_size:24 in
        ( Activity.sim ~name:"gsim"
            (Activity.create ~config:Activity.gsim_config ~backend c p),
          fun () -> () ) );
  ]

let parallel2 backend c =
  let t = Parallel.create ~backend ~threads:2 c in
  (Parallel.sim t, fun () -> Parallel.destroy t)

let oracle_subjects backend makes =
  List.map
    (fun (name, make) ->
      { Oracle.subject_name =
          Printf.sprintf "%s/%s" name (Eval.to_string backend);
        build = make })
    makes

(* Every 4th seed mixes wide (>62-bit) nodes in, exercising the per-node
   closure fallback interleaved with native runs. *)
let torture_one ~seed ~with_parallel =
  let st = Random.State.make [| seed; 3111 |] in
  let cfg =
    {
      Rand_circuit.default_config with
      Rand_circuit.logic_nodes = 25 + (seed mod 40);
      max_width = (if seed mod 4 = 0 then 120 else 62);
    }
  in
  let c = Rand_circuit.generate st cfg in
  let stimulus = Rand_circuit.random_stimulus st c ~cycles:12 in
  let steps = Oracle.steps_of_stimulus stimulus in
  let observe = Collect.default_observed c in
  let subjects backend =
    oracle_subjects backend
      (engines backend
      @ if with_parallel then [ ("parallel2", parallel2 backend) ] else [])
  in
  let outcomes = Oracle.run ~observe c steps (List.concat_map subjects backends) in
  (match Oracle.first_failure outcomes with
   | Some (s, f) ->
     Alcotest.failf "seed %d: %s: %s" seed s (Oracle.failure_to_string f)
   | None -> ());
  (* The [changed] counters must also be backend-independent. *)
  if have_cc then
  let changed name =
    match
      List.find_opt (fun (o : Oracle.outcome) -> o.Oracle.o_subject = name) outcomes
    with
    | Some { Oracle.o_counters = Some ct; _ } -> ct.Counters.changed
    | _ -> Alcotest.failf "seed %d: no counters for %s" seed name
  in
  List.iter
    (fun (name, _) ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: %s: changed counter" seed name)
        (changed (name ^ "/closures"))
        (changed (name ^ "/native")))
    (engines `Closures
    @ if with_parallel then [ ("parallel2", parallel2 `Closures) ] else [])

let test_torture () =
  for seed = 0 to 119 do
    torture_one ~seed ~with_parallel:(seed mod 12 = 0)
  done

(* --- differential force/release torture (fault-injection layer) -------- *)

(* Random force/release schedules over random circuits must leave every
   engine x backend combination bit-identical to the reference
   interpreter — the soundness property the fault campaign stands on.
   Targets are declared forcible at build time, so under native they are
   demoted out of native runs into guarded closures. *)
let force_engines backend targets :
    (string * (Circuit.t -> Sim.t * (unit -> unit))) list =
  [
    ( "full_cycle",
      fun c -> (Full_cycle.sim (Full_cycle.create ~backend ~forcible:targets c), fun () -> ()) );
    ( "essent_mffc",
      fun c ->
        let p = Partition.mffc c ~max_size:12 in
        ( Activity.sim ~name:"essent_mffc"
            (Activity.create ~config:Activity.essent_config ~backend ~forcible:targets c p),
          fun () -> () ) );
    ( "gsim",
      fun c ->
        let p = Partition.gsim c ~max_size:24 in
        ( Activity.sim ~name:"gsim"
            (Activity.create ~config:Activity.gsim_config ~backend ~forcible:targets c p),
          fun () -> () ) );
    ( "parallel2",
      fun c ->
        let t = Parallel.create ~backend ~forcible:targets ~threads:2 c in
        (Parallel.sim t, fun () -> Parallel.destroy t) );
  ]

let torture_force_one ~seed =
  let st = Random.State.make [| seed; 9021 |] in
  let cfg =
    {
      Rand_circuit.default_config with
      Rand_circuit.logic_nodes = 20 + (seed mod 25);
      max_width = (if seed mod 5 = 0 then 100 else 62);
    }
  in
  let c = Rand_circuit.generate st cfg in
  let cycles = 14 in
  let stimulus = Rand_circuit.random_stimulus st c ~cycles in
  let candidates =
    Circuit.fold_nodes c ~init:[] ~f:(fun acc n ->
        match n.Circuit.kind with
        | Circuit.Logic | Circuit.Reg_read _ -> n.Circuit.id :: acc
        | _ -> acc)
    |> Array.of_list
  in
  let targets =
    List.init
      (min 4 (Array.length candidates))
      (fun _ -> candidates.(Random.State.int st (Array.length candidates)))
    |> List.sort_uniq compare
  in
  let schedule =
    Array.init cycles (fun _ ->
        List.filter_map
          (fun id ->
            let w = (Circuit.node c id).Circuit.width in
            match Random.State.int st 5 with
            | 0 -> Some (id, Some (None, Bits.random st ~width:w))
            | 1 ->
              Some (id, Some (Some (Bits.random st ~width:w), Bits.random st ~width:w))
            | 2 -> Some (id, None)
            | _ -> None)
          targets)
  in
  let observe = Collect.default_observed c in
  let steps =
    Array.init cycles (fun i ->
        {
          Oracle.pokes = stimulus.(i);
          actions =
            List.map
              (function
                | id, Some (mask, v) -> Oracle.Force { target = id; mask; value = v }
                | id, None -> Oracle.Release id)
              schedule.(i);
        })
  in
  let subjects =
    List.concat_map
      (fun backend -> oracle_subjects backend (force_engines backend targets))
      backends
  in
  match Oracle.first_failure (Oracle.run ~observe c steps subjects) with
  | Some (s, f) ->
    Alcotest.failf "seed %d: %s (targets %s): forced run diverges from reference: %s"
      seed s
      (String.concat "," (List.map string_of_int targets))
      (Oracle.failure_to_string f)
  | None -> ()

let test_force_torture () =
  for seed = 0 to 59 do
    torture_force_one ~seed
  done

(* --- coverage databases must not depend on the backend ---------------- *)

let test_coverage_identical () =
  skip_without_cc ();
  for seed = 0 to 9 do
    let st = Random.State.make [| seed; 5150 |] in
    let c = Rand_circuit.generate st Rand_circuit.default_config in
    let stimulus = Rand_circuit.random_stimulus st c ~cycles:20 in
    let observe = Collect.default_observed c in
    let db_of backend =
      let sim = Full_cycle.sim (Full_cycle.create ~backend c) in
      let coll, wrapped = Collect.create sim in
      ignore (Sim.trace wrapped ~observe ~stimulus);
      Collect.db coll
    in
    if not (Db.equal (db_of `Closures) (db_of `Native)) then
      Alcotest.failf "seed %d: coverage db differs between backends" seed
  done

(* --- .so cache: miss, hit, invalidation on hash change ----------------- *)

(* A parametric circuit whose IR text (and therefore digest) varies with
   [tag], so each test run's first build is a genuine compile. *)
let cache_circuit tag =
  let c = Circuit.create ~name:(Printf.sprintf "cache%d" tag) () in
  let x = Circuit.add_input c ~name:"x" ~width:16 in
  let vx = Expr.var ~width:16 x.Circuit.id in
  let n =
    Circuit.add_logic c ~name:"n"
      (Expr.unop (Expr.Extract (15, 0))
         (Expr.binop Expr.Add vx (Expr.of_int ~width:16 (tag land 0xffff))))
  in
  Circuit.mark_output c n.Circuit.id;
  c

let test_cache_hit_and_invalidation () =
  skip_without_cc ();
  let compiles0 = Native.stats.Native.compiles in
  let c1 = cache_circuit 1001 in
  let t1 = Full_cycle.create ~backend:`Native c1 in
  let ct1 = Full_cycle.counters t1 in
  Alcotest.(check string) "first build is native" "native" ct1.Counters.backend;
  Alcotest.(check string) "first build misses" "miss" ct1.Counters.native_cache;
  Alcotest.(check int) "one compile" (compiles0 + 1) Native.stats.Native.compiles;
  (* Same circuit again: the memo satisfies it — cc must not run. *)
  let t2 = Full_cycle.create ~backend:`Native (cache_circuit 1001) in
  let ct2 = Full_cycle.counters t2 in
  Alcotest.(check string) "second build hits" "hit" ct2.Counters.native_cache;
  Alcotest.(check int) "no second compile" (compiles0 + 1) Native.stats.Native.compiles;
  (* The cached artifacts exist on disk under the digest key. *)
  (match Native.load c1 with
   | Some (u, Native.Memo_hit) ->
     Alcotest.(check bool) "so cached" true (Sys.file_exists u.Native.so_path);
     Alcotest.(check bool) "c kept" true (Sys.file_exists u.Native.c_path)
   | _ -> Alcotest.fail "expected a memo hit");
  (* A different circuit hash invalidates: new digest, fresh compile. *)
  let t3 = Full_cycle.create ~backend:`Native (cache_circuit 1002) in
  let ct3 = Full_cycle.counters t3 in
  Alcotest.(check string) "changed hash misses" "miss" ct3.Counters.native_cache;
  Alcotest.(check int) "recompiled" (compiles0 + 2) Native.stats.Native.compiles

(* --- missing-compiler fallback ladder ---------------------------------- *)

let test_fallback_no_compiler () =
  let with_disabled f =
    let prev = try Sys.getenv "GSIM_NATIVE" with Not_found -> "" in
    Unix.putenv "GSIM_NATIVE" "off";
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "GSIM_NATIVE" (if prev = "" then "on" else prev))
      f
  in
  with_disabled (fun () ->
      Alcotest.(check bool) "backend reports unavailable" false (Native.available ());
      let c = cache_circuit 2001 in
      (* Requesting native must degrade, not fail — and still simulate
         correctly. *)
      let t = Full_cycle.create ~backend:`Native c in
      let ct = Full_cycle.counters t in
      Alcotest.(check string) "fell back to closures" "closures" ct.Counters.backend;
      Alcotest.(check string) "no cache traffic" "" ct.Counters.native_cache;
      let x = (Option.get (Circuit.find_node c "x")).Circuit.id in
      let n = (Option.get (Circuit.find_node c "n")).Circuit.id in
      let stimulus = Array.init 4 (fun i -> [ (x, b ~w:16 (i * 7)) ]) in
      let expected =
        Sim.trace (Sim.of_reference (Reference.create c)) ~observe:[ n ] ~stimulus
      in
      let got = Sim.trace (Full_cycle.sim t) ~observe:[ n ] ~stimulus in
      if not (Sim.equal_traces expected got) then
        Alcotest.fail "fallback engine diverges from reference")

(* --- auto heuristic ----------------------------------------------------- *)

let optimized_size config (d : Designs.design) =
  let core = d.Designs.build () in
  let plan = Gsim.Compile.prepare config (Gsim.Compile.of_circuit core.Stu_core.circuit) in
  Eval.circuit_size (Gsim.Compile.plan_circuit plan)

let test_auto_heuristic () =
  (* Small circuit: auto stays on closures even with a compiler present —
     a cc run would cost more than it returns. *)
  let small = cache_circuit 3001 in
  let sel = Eval.select `Auto small in
  Alcotest.(check string) "small goes closures" "closures" (Eval.effective_string sel);
  (* stuCore runs the fault campaigns, which build thousands of
     short-lived engines: it must stay interpreted.  The unoptimized
     circuit bounds every preset from above. *)
  let stu = (Designs.stu_core.Designs.build ()).Stu_core.circuit in
  let stu_size = Eval.circuit_size stu in
  Alcotest.(check bool)
    (Printf.sprintf "stuCore size %d below %d" stu_size Eval.native_threshold)
    true (stu_size < Eval.native_threshold);
  Alcotest.(check string) "stuCore goes closures" "closures"
    (Eval.effective_string (Eval.select `Auto stu));
  (* The big cores must go native.  The gsim preset optimizes hardest, so
     its circuits bound every preset from below; XiangShan is checked on
     the faster-to-prepare verilator preset (it is bigger than BOOM on
     any preset). *)
  List.iter
    (fun (config, (d : Designs.design)) ->
      let size = optimized_size config d in
      Alcotest.(check bool)
        (Printf.sprintf "%s size %d reaches %d" d.Designs.design_name size
           Eval.native_threshold)
        true (size >= Eval.native_threshold))
    [ (Gsim.gsim, Designs.rocket_like); (Gsim.gsim, Designs.boom_like);
      (Gsim.verilator (), Designs.xiangshan_like) ];
  (* Big narrow circuit: auto goes native when a compiler is present. *)
  let st = Random.State.make [| 77; 3111 |] in
  let big =
    Rand_circuit.generate st
      { Rand_circuit.default_config with Rand_circuit.logic_nodes = 800; max_width = 32 }
  in
  let size = Eval.circuit_size big in
  Alcotest.(check bool)
    (Printf.sprintf "size %d crosses the native threshold" size)
    true (size >= Eval.native_threshold);
  let sel = Eval.select `Auto big in
  if have_cc then
    Alcotest.(check string) "big goes native" "native" (Eval.effective_string sel)
  else
    Alcotest.(check string) "big goes closures without cc" "closures"
      (Eval.effective_string sel)

(* --- emitted source sanity --------------------------------------------- *)

let test_emitted_source () =
  let c = cache_circuit 4001 in
  let r = Emit_c.emit c in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "exports table" true (contains r.Emit_c.source "gsim_table");
  Alcotest.(check bool) "exports count" true (contains r.Emit_c.source "gsim_node_count");
  Alcotest.(check bool) "has compiled nodes" true (r.Emit_c.compiled_nodes > 0);
  (* Wide nodes compile via the limb-array path (ABI v2). *)
  let cw = Circuit.create ~name:"wide" () in
  let x = Circuit.add_input cw ~name:"x" ~width:100 in
  let n =
    Circuit.add_logic cw ~name:"n"
      (Expr.unop Expr.Not (Expr.var ~width:100 x.Circuit.id))
  in
  Circuit.mark_output cw n.Circuit.id;
  let rw = Emit_c.emit cw in
  Alcotest.(check int) "wide node compiles" 1 rw.Emit_c.compiled_nodes;
  Alcotest.(check bool) "wide source stores limbs" true
    (contains rw.Emit_c.source "gsim_wstore")

let () =
  Alcotest.run "native"
    [
      ( "divrem",
        [
          Alcotest.test_case "signed corners w=8" `Quick (test_signed_divrem ~w:8);
          Alcotest.test_case "signed corners w=62" `Quick (test_signed_divrem ~w:62);
        ] );
      ( "differential",
        [
          Alcotest.test_case "torture 120 random circuits" `Slow test_torture;
          Alcotest.test_case "force/release torture 60 circuits" `Slow test_force_torture;
          Alcotest.test_case "coverage identical" `Quick test_coverage_identical;
        ] );
      ( "cache",
        [ Alcotest.test_case "miss, hit, invalidation" `Quick test_cache_hit_and_invalidation ] );
      ( "fallback",
        [ Alcotest.test_case "no compiler degrades gracefully" `Quick test_fallback_no_compiler ] );
      ( "auto",
        [ Alcotest.test_case "size-based selection" `Quick test_auto_heuristic ] );
      ( "emit",
        [ Alcotest.test_case "source shape" `Quick test_emitted_source ] );
    ]
