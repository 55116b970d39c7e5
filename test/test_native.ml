(* Evaluation backends: closures and native (AOT-compiled C) must be
   bit-identical to the reference interpreter on every engine that can
   select them, over hand-written signed div/rem corners, a 120-circuit
   torture sweep, a 60-circuit force/release torture and coverage
   databases, with identical event counters and per-supernode hits (the
   activity engines run their sweep and register latch in C under
   native, wide registers included), and a native activity step that
   allocates nothing.  Without a C compiler the closure halves still
   run.  Also pins the .so cache behaviour (miss on first compile, hit on
   reuse, invalidation on circuit-hash change), the missing-compiler
   fallback, and the auto heuristic. *)

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
module Checkpoint = Gsim_engine.Checkpoint
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

(* --- counter identity --------------------------------------------------- *)

let counter_fields (ct : Counters.t) =
  [
    ("cycles", ct.Counters.cycles);
    ("evals", ct.Counters.evals);
    ("changed", ct.Counters.changed);
    ("exams", ct.Counters.exams);
    ("activations", ct.Counters.activations);
    ("reg_commits", ct.Counters.reg_commits);
    ("reset_checks", ct.Counters.reset_checks);
  ]

let outcome_counters what outcomes name =
  match List.find_opt (fun (o : Oracle.outcome) -> o.Oracle.o_subject = name) outcomes with
  | Some { Oracle.o_counters = Some ct; _ } -> ct
  | _ -> Alcotest.failf "%s: no counters for %s" what name

(* Every counter of [name] under closures equals the one under native. *)
let check_counters_identical what outcomes name =
  let fields b = counter_fields (outcome_counters what outcomes (name ^ "/" ^ b)) in
  List.iter2
    (fun (field, x) (_, y) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s: %s" what name field) x y)
    (fields "closures") (fields "native")

(* The activity engines a run built, by subject name, so their
   per-supernode hits can be compared after the oracle run. *)
let activity_built : (string, Activity.t) Hashtbl.t = Hashtbl.create 8

let activity_subject ~name ~backend ?forcible config partition =
  fun c ->
    let a = Activity.create ~config ~backend ?forcible c (partition c) in
    Hashtbl.replace activity_built (name ^ "/" ^ Eval.to_string backend) a;
    (Activity.sim ~name a, fun () -> ())

let check_hits_identical what name =
  let hits b =
    match Hashtbl.find_opt activity_built (name ^ "/" ^ b) with
    | Some a -> Activity.supernode_hits a
    | None -> Alcotest.failf "%s: %s/%s was not built" what name b
  in
  Alcotest.(check (array int)) (Printf.sprintf "%s: %s: supernode hits" what name)
    (hits "closures") (hits "native")

(* --- differential torture: closures vs native ------------------------- *)

let activity_engines ?forcible backend =
  [
    ( "essent_mffc",
      activity_subject ~name:"essent_mffc" ~backend ?forcible Activity.essent_config
        (Partition.mffc ~max_size:12) );
    ( "gsim",
      activity_subject ~name:"gsim" ~backend ?forcible Activity.gsim_config
        (Partition.gsim ~max_size:24) );
  ]

let engines backend :
    (string * (Circuit.t -> Sim.t * (unit -> unit))) list =
  ("full_cycle", fun c -> (Full_cycle.sim (Full_cycle.create ~backend c), fun () -> ()))
  :: activity_engines backend

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
  (* Counters and supernode hits must also be backend-independent. *)
  if have_cc then begin
    let what = Printf.sprintf "seed %d" seed in
    List.iter
      (fun (name, _) -> check_counters_identical what outcomes name)
      (engines `Closures
      @ if with_parallel then [ ("parallel2", parallel2 `Closures) ] else []);
    List.iter (fun (name, _) -> check_hits_identical what name) (activity_engines `Closures)
  end

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
  ( "full_cycle",
    fun c -> (Full_cycle.sim (Full_cycle.create ~backend ~forcible:targets c), fun () -> ()) )
  :: activity_engines ~forcible:targets backend
  @ [
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
  let outcomes = Oracle.run ~observe c steps subjects in
  (match Oracle.first_failure outcomes with
   | Some (s, f) ->
     Alcotest.failf "seed %d: %s (targets %s): forced run diverges from reference: %s"
       seed s
       (String.concat "," (List.map string_of_int targets))
       (Oracle.failure_to_string f)
   | None -> ());
  (* Forcible members leave the native sweep one by one: the counters and
     hits of the activity engines must not notice. *)
  if have_cc then
    List.iter
      (fun (name, _) ->
        let what = Printf.sprintf "seed %d (forced)" seed in
        check_counters_identical what outcomes name;
        check_hits_identical what name)
      (activity_engines `Closures)

let test_force_torture () =
  for seed = 0 to 59 do
    torture_force_one ~seed
  done

(* --- native sweep: yield to OCaml and resume in the same word ----------- *)

(* Supernode 0 holds a forcible member between two native ones, and
   supernode 1 (same active word) holds a gated, out-of-range-capable
   memory read.  Under native gsim the sweep yields the forcible member
   to OCaml and resumes in the same word; a resume that counted the
   word's exam again would show in [exams]. *)
let yield_circuit () =
  let w = 8 in
  let c = Circuit.create ~name:"yield" () in
  let a = Circuit.add_input c ~name:"a" ~width:w in
  let b = Circuit.add_input c ~name:"b" ~width:w in
  let v (n : Circuit.node) = Expr.var ~width:w n.Circuit.id in
  let add x y = Expr.unop (Expr.Extract (w - 1, 0)) (Expr.binop Expr.Add x y) in
  let x1 = Circuit.add_logic c ~name:"x1" (add (v a) (Expr.of_int ~width:w 1)) in
  let x2 = Circuit.add_logic c ~name:"x2" (Expr.binop Expr.Xor (v x1) (v b)) in
  let x3 = Circuit.add_logic c ~name:"x3" (add (v x2) (Expr.of_int ~width:w 3)) in
  let r = Circuit.add_register c ~name:"r" ~width:w ~init:(Bits.zero w) () in
  let ra = Circuit.add_logic c ~name:"ra" (Expr.unop (Expr.Extract (2, 0)) (v a)) in
  let ren = Circuit.add_logic c ~name:"ren" (Expr.unop (Expr.Extract (0, 0)) (v b)) in
  let mem = Circuit.add_memory c ~name:"m" ~width:w ~depth:5 in
  let rd = Circuit.add_read_port c ~mem ~name:"rd" ~addr:ra.Circuit.id ~en:ren.Circuit.id () in
  let y =
    Circuit.add_logic c ~name:"y"
      (Expr.binop Expr.Xor (v rd)
         (Expr.binop Expr.And (v x3) (Expr.var ~width:w r.Circuit.read)))
  in
  Circuit.set_next c r (add (v y) (v a));
  let wa = Circuit.add_logic c ~name:"wa" (Expr.unop (Expr.Extract (2, 0)) (v b)) in
  let one = Circuit.add_logic c ~name:"one" (Expr.of_int ~width:1 1) in
  Circuit.add_write_port c ~mem ~addr:wa.Circuit.id ~data:x3.Circuit.id ~en:one.Circuit.id;
  List.iter (Circuit.mark_output c) [ x3.Circuit.id; y.Circuit.id; r.Circuit.read ];
  (* Members in evaluation order, as a partition requires. *)
  let rank = Array.make (Circuit.max_id c) 0 in
  Array.iteri (fun i id -> rank.(id) <- i) (Circuit.eval_order c);
  let ids ns =
    List.map (fun (n : Circuit.node) -> n.Circuit.id) ns
    |> List.sort (fun x y -> compare rank.(x) rank.(y))
    |> Array.of_list
  in
  let supernodes =
    [| ids [ x1; x2; x3 ]; ids [ ra; ren; rd; wa; one ]; ids [ y ]; [| r.Circuit.next |] |]
  in
  let of_node = Array.make (Circuit.max_id c) (-1) in
  Array.iteri (fun k members -> Array.iter (fun id -> of_node.(id) <- k) members) supernodes;
  let part = { Partition.supernodes; of_node } in
  Partition.validate c part;
  (c, part, a.Circuit.id, b.Circuit.id, x2.Circuit.id)

let test_sweep_yield_resume () =
  skip_without_cc ();
  let c, part, ia, ib, x2 = yield_circuit () in
  let cycles = 16 in
  let st = Random.State.make [| 4242 |] in
  let steps =
    Array.init cycles (fun i ->
        {
          Oracle.pokes =
            [ (ia, Bits.random st ~width:8); (ib, Bits.random st ~width:8) ];
          actions =
            (if i = 4 then [ Oracle.Force { target = x2; mask = None; value = b ~w:8 0x5a } ]
             else if i = 7 then
               [ Oracle.Force { target = x2; mask = Some (b ~w:8 0x0f); value = b ~w:8 0x03 } ]
             else if i = 10 then [ Oracle.Release x2 ]
             else []);
        })
  in
  let subject backend =
    {
      Oracle.subject_name = "gsim/" ^ Eval.to_string backend;
      build =
        activity_subject ~name:"gsim" ~backend ~forcible:[ x2 ] Activity.gsim_config
          (fun _ -> part);
    }
  in
  let observe = Circuit.fold_nodes c ~init:[] ~f:(fun acc n -> n.Circuit.id :: acc) in
  let outcomes = Oracle.run ~observe c steps [ subject `Closures; subject `Native ] in
  (match Oracle.first_failure outcomes with
   | Some (s, f) -> Alcotest.failf "%s: %s" s (Oracle.failure_to_string f)
   | None -> ());
  let native = Hashtbl.find activity_built "gsim/native" in
  Alcotest.(check string) "native ran" "native" (Activity.counters native).Counters.backend;
  check_counters_identical "yield" outcomes "gsim";
  check_hits_identical "yield" "gsim";
  (* One word of supernodes: at most one word exam per sweep pass, so a
     re-counted exam cannot hide in a second word. *)
  Alcotest.(check bool) "single active word" true (Activity.supernode_count native <= 62)

(* --- native latch: wide registers commit in C ---------------------------- *)

(* A w-bit register stepping through rotate-left-and-add-[a] while [en]
   is set and holding otherwise, so its latch sees both changed and
   unchanged cycles and every limb moves.  Two narrow readers (parity
   and the top byte) make its wake visible in the values, counters and
   supernode hits. *)
let stepping_register c ~a ~en ~w ~init =
  let r = Circuit.add_register c ~name:(Printf.sprintf "r%d" w) ~width:w ~init () in
  let vr = Expr.var ~width:w r.Circuit.read in
  let rot =
    Expr.binop Expr.Cat
      (Expr.unop (Expr.Extract (w - 2, 0)) vr)
      (Expr.unop (Expr.Extract (w - 1, w - 1)) vr)
  in
  let step =
    Expr.unop (Expr.Extract (w - 1, 0))
      (Expr.binop Expr.Add rot (Expr.unop (Expr.Pad_unsigned w) (Expr.var ~width:16 a)))
  in
  Circuit.set_next c r (Expr.mux (Expr.var ~width:1 en) step vr);
  let parity = Circuit.add_logic c ~name:(Printf.sprintf "p%d" w) (Expr.unop Expr.Reduce_xor vr) in
  let top = Circuit.add_logic c ~name:(Printf.sprintf "t%d" w) (Expr.unop (Expr.Extract (w - 1, w - 8)) vr) in
  List.iter (Circuit.mark_output c) [ parity.Circuit.id; top.Circuit.id ];
  r

let wide_latch_circuit () =
  let c = Circuit.create ~name:"wide_latch" () in
  let a = (Circuit.add_input c ~name:"a" ~width:16).Circuit.id in
  let en = (Circuit.add_input c ~name:"en" ~width:1).Circuit.id in
  let st = Random.State.make [| 6364 |] in
  let reg w = stepping_register c ~a ~en ~w ~init:(Bits.random st ~width:w) in
  List.iter (fun w -> ignore (reg w)) [ 63; 64; 96; 130; 200 ];
  let forced = reg 100 in
  (c, a, en, forced.Circuit.read)

let test_wide_latch () =
  skip_without_cc ();
  let c, a, en, forced = wide_latch_circuit () in
  let cycles = 24 in
  let st = Random.State.make [| 2718 |] in
  let bw = b ~w:100 in
  let steps =
    Array.init cycles (fun i ->
        {
          Oracle.pokes =
            [ (a, Bits.random st ~width:16); (en, b ~w:1 (Bool.to_int (i mod 5 <> 3))) ];
          actions =
            (if i = 5 then [ Oracle.Force { target = forced; mask = None; value = bw 0x5a5a } ]
             else if i = 9 then
               [ Oracle.Force
                   { target = forced; mask = Some (Bits.lognot (bw 0xffff)); value = bw 0 } ]
             else if i = 14 then [ Oracle.Release forced ]
             else []);
        })
  in
  let subjects backend =
    oracle_subjects backend
      [ ( "wide_gsim",
          activity_subject ~name:"wide_gsim" ~backend ~forcible:[ forced ] Activity.gsim_config
            (Partition.gsim ~max_size:4) );
        ( "wide_essent",
          activity_subject ~name:"wide_essent" ~backend ~forcible:[ forced ]
            Activity.essent_config (Partition.mffc ~max_size:4) ) ]
  in
  let observe = Circuit.fold_nodes c ~init:[] ~f:(fun acc n -> n.Circuit.id :: acc) in
  let outcomes =
    Oracle.run ~observe c steps (subjects `Closures @ subjects `Native)
  in
  (match Oracle.first_failure outcomes with
   | Some (s, f) -> Alcotest.failf "%s: %s" s (Oracle.failure_to_string f)
   | None -> ());
  List.iter
    (fun name ->
      let built bk = Hashtbl.find activity_built (name ^ "/" ^ bk) in
      Alcotest.(check string) (name ^ ": native ran") "native"
        (Activity.counters (built "native")).Counters.backend;
      check_counters_identical "wide latch" outcomes name;
      check_hits_identical "wide latch" name;
      let checkpoint bk =
        let t = built bk in
        Checkpoint.to_string (Checkpoint.capture ~rt:(Activity.runtime t) (Activity.sim t))
      in
      Alcotest.(check string) (name ^ ": checkpoint bytes") (checkpoint "closures")
        (checkpoint "native"))
    [ "wide_gsim"; "wide_essent" ]

(* --- native activity step: zero allocation ---------------------------- *)

(* Wide registers (64, 96, 130 bits) and a narrow memory written and read
   every cycle: every phase of the native step runs, none in a closure
   that allocates. *)
let no_alloc_circuit () =
  let c = Circuit.create ~name:"no_alloc" () in
  let ctr = Circuit.add_register c ~name:"ctr" ~width:16 ~init:(Bits.zero 16) () in
  let vctr = Expr.var ~width:16 ctr.Circuit.read in
  Circuit.set_next c ctr
    (Expr.unop (Expr.Extract (15, 0)) (Expr.binop Expr.Add vctr (Expr.of_int ~width:16 1)));
  let one = Circuit.add_logic c ~name:"one" (Expr.of_int ~width:1 1) in
  let st = Random.State.make [| 1618 |] in
  List.iter
    (fun w ->
      ignore
        (stepping_register c ~a:ctr.Circuit.read ~en:one.Circuit.id ~w
           ~init:(Bits.random st ~width:w)))
    [ 64; 96; 130 ];
  let mem = Circuit.add_memory c ~name:"m" ~width:16 ~depth:16 in
  let wa = Circuit.add_logic c ~name:"wa" (Expr.unop (Expr.Extract (3, 0)) vctr) in
  Circuit.add_write_port c ~mem ~addr:wa.Circuit.id ~data:ctr.Circuit.read ~en:one.Circuit.id;
  let ra = Circuit.add_logic c ~name:"ra" (Expr.unop (Expr.Extract (4, 1)) vctr) in
  let rd = Circuit.add_read_port c ~mem ~name:"rd" ~addr:ra.Circuit.id () in
  let q = Circuit.add_register c ~name:"q" ~width:16 ~init:(Bits.zero 16) () in
  Circuit.set_next c q (Expr.var ~width:16 rd.Circuit.id);
  Circuit.mark_output c q.Circuit.read;
  c

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_step_no_alloc () =
  skip_without_cc ();
  let c = no_alloc_circuit () in
  List.iter
    (fun (name, config, partition) ->
      let t = Activity.create ~config ~backend:`Native c (partition c) in
      Alcotest.(check string) (name ^ ": native ran") "native"
        (Activity.counters t).Counters.backend;
      for _ = 1 to 100 do
        Activity.step t
      done;
      let commits0 = (Activity.counters t).Counters.reg_commits in
      let words = minor_words (fun () -> for _ = 1 to 1000 do Activity.step t done) in
      let overhead = minor_words (fun () -> ()) in
      Alcotest.(check bool) (name ^ ": registers kept changing") true
        ((Activity.counters t).Counters.reg_commits - commits0 >= 4000);
      Alcotest.(check (float 0.)) (name ^ ": minor words over 1000 steps") 0.
        (words -. overhead))
    [ ("gsim", Activity.gsim_config, Partition.gsim ~max_size:24);
      ("essent", Activity.essent_config, Partition.mffc ~max_size:12) ];
  (* The same holds for a whole program: [Designs.run_program] checks the
     halt output with [Sim.peek_int], which reads the arena in place. *)
  let core =
    Designs.optimize_design ~level:Gsim_passes.Pipeline.O3 (Designs.stu_core.Designs.build ())
  in
  let c = core.Stu_core.circuit and h = core.Stu_core.h in
  let sim =
    Activity.sim
      (Activity.create ~config:Activity.gsim_config ~backend:`Native c
         (Partition.gsim ~max_size:24 c))
  in
  Designs.load_program sim h (Gsim_designs.Programs.coremark ~iters:4 ());
  Designs.run_cycles sim 200;
  let cycles = ref 0 in
  let words = minor_words (fun () -> cycles := Designs.run_program sim h) in
  let overhead = minor_words (fun () -> ()) in
  Alcotest.(check bool) "program ran past the warm-up" true (!cycles > 1000);
  Alcotest.(check (float 0.)) "minor words over run_program" 0. (words -. overhead)

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

(* A parametric circuit whose digest varies with [tag], so each test
   run's first build is a genuine compile. *)
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

(* A memo hit must not wait for another circuit's compile, and two
   concurrent loads of one new circuit must share one compile.  [GSIM_CC]
   points at a wrapper that sleeps 2 s before running the real compiler. *)
let test_memo_hit_during_compile () =
  skip_without_cc ();
  let cc = Option.get (Native.find_compiler ()) in
  let warm = cache_circuit 5001 in
  ignore (Native.load warm);
  let wrapper =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsim-slow-cc-%d.sh" (Unix.getpid ()))
  in
  let oc = open_out wrapper in
  Printf.fprintf oc "#!/bin/sh\nsleep 2\nexec %s \"$@\"\n" (Filename.quote cc);
  close_out oc;
  Unix.chmod wrapper 0o755;
  let prev = Sys.getenv_opt "GSIM_CC" in
  Unix.putenv "GSIM_CC" wrapper;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GSIM_CC" (Option.value prev ~default:cc);
      Sys.remove wrapper)
    (fun () ->
      let compiles0 = Native.stats.Native.compiles in
      let slow = cache_circuit 5002 in
      let load_slow () = Domain.spawn (fun () -> Native.load slow) in
      let d1 = load_slow () in
      Unix.sleepf 0.3;
      let d2 = load_slow () in
      Unix.sleepf 0.2;
      let t0 = Unix.gettimeofday () in
      let hit = Native.load warm in
      let waited = Unix.gettimeofday () -. t0 in
      (match hit with
       | Some (_, Native.Memo_hit) -> ()
       | _ -> Alcotest.fail "expected a memo hit on the warm circuit");
      Alcotest.(check bool)
        (Printf.sprintf "memo hit returned in %.3f s, during the other compile" waited)
        true (waited < 1.0);
      let origins =
        List.map
          (fun d ->
            match Domain.join d with
            | Some (u, origin) -> (u.Native.so_path, origin)
            | None -> Alcotest.fail "slow compile failed")
          [ d1; d2 ]
      in
      Alcotest.(check int) "one compile for both loads" (compiles0 + 1)
        Native.stats.Native.compiles;
      (match origins with
       | [ (p1, o1); (p2, o2) ] ->
         Alcotest.(check string) "one object" p1 p2;
         Alcotest.(check bool) "one compiled, one memo hit" true
           (List.sort compare [ o1; o2 ] = [ Native.Memo_hit; Native.Compiled ])
       | _ -> assert false))

(* A truncated object in the disk cache is deleted and rebuilt within the
   same load, so neither this process nor a later one falls back to
   closures for it. *)
let test_stale_object_rebuilt () =
  skip_without_cc ();
  let prev = Sys.getenv_opt "GSIM_NATIVE_CACHE" in
  let dir = Filename.temp_file "gsim-native-stale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.putenv "GSIM_NATIVE_CACHE" dir;
  Fun.protect
    ~finally:(fun () ->
      Option.iter (Unix.putenv "GSIM_NATIVE_CACHE") prev;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let c = cache_circuit 7001 in
      let so = Native.object_path c in
      Out_channel.with_open_bin so (fun oc -> output_string oc "\x7fELF\002\001");
      let compiles0 = Native.stats.Native.compiles in
      (match Native.load c with
       | Some (u, Native.Compiled) -> Alcotest.(check string) "same object path" so u.Native.so_path
       | Some _ -> Alcotest.fail "the truncated object was trusted"
       | None -> Alcotest.fail "the stale object was not rebuilt");
      Alcotest.(check int) "one rebuild" (compiles0 + 1) Native.stats.Native.compiles;
      Alcotest.(check bool) "rebuilt object replaces the truncated one" true
        ((Unix.stat so).Unix.st_size > 6);
      let t = Full_cycle.create ~backend:`Native (cache_circuit 7001) in
      Alcotest.(check string) "runs native" "native" (Full_cycle.counters t).Counters.backend)

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

(* One load per distinct variable: [x op x] reads [x] once and must not
   share a shape function with [x op y], narrow or wide; a low extract is
   a plain mask. *)
let test_shared_loads () =
  let c = Circuit.create ~name:"loads" () in
  let input name w = (Circuit.add_input c ~name ~width:w).Circuit.id in
  let x = input "x" 16 and y = input "y" 16 and xw = input "xw" 100 and yw = input "yw" 100 in
  let v w id = Expr.var ~width:w id in
  let logic name e =
    let n = Circuit.add_logic c ~name e in
    Circuit.mark_output c n.Circuit.id;
    n.Circuit.id
  in
  let xx = logic "xx" (Expr.binop Expr.Add (v 16 x) (v 16 x)) in
  let xy = logic "xy" (Expr.binop Expr.Add (v 16 x) (v 16 y)) in
  let ww = logic "ww" (Expr.binop Expr.Xor (v 100 xw) (v 100 xw)) in
  let wy = logic "wy" (Expr.binop Expr.Xor (v 100 xw) (v 100 yw)) in
  ignore (logic "lo" (Expr.unop (Expr.Extract (7, 0)) (v 16 y)));
  let src = (Emit_c.emit c).Emit_c.source in
  let index_from s i sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then raise Not_found else if String.sub s i m = sub then i else go (i + 1)
    in
    go i
  in
  let shape id =
    let i = index_from src 0 (Printf.sprintf "gsim_n%d(long" id) in
    let j = index_from src i "return gsim_s" + 7 in
    String.sub src j (index_from src j "(" - j)
  in
  let loads sh =
    let i = index_from src 0 (Printf.sprintf "static long %s(" sh) in
    let body = String.sub src i (index_from src i "\n}\n" - i) in
    let count sub =
      let rec go i k =
        match index_from body i sub with j -> go (j + 1) (k + 1) | exception Not_found -> k
      in
      go 0 0
    in
    count "(a[K[" + count "gsim_wload("
  in
  Alcotest.(check bool) "narrow x+x and x+y differ" true (shape xx <> shape xy);
  Alcotest.(check bool) "wide x^x and x^y differ" true (shape ww <> shape wy);
  Alcotest.(check (list int)) "loads per shape" [ 1; 2; 1; 2 ]
    (List.map (fun id -> loads (shape id)) [ xx; xy; ww; wy ]);
  Alcotest.(check bool) "no shift by zero" false
    (match index_from src 0 ">> 0)" with _ -> true | exception Not_found -> false);
  skip_without_cc ();
  let st = Random.State.make [| 42 |] in
  let stimulus = Rand_circuit.random_stimulus st c ~cycles:20 in
  let observe = List.map (fun (n : Circuit.node) -> n.Circuit.id) (Circuit.outputs c) in
  let expected = Sim.trace (Sim.of_reference (Reference.create c)) ~observe ~stimulus in
  let got = Sim.trace (Full_cycle.sim (Full_cycle.create ~backend:`Native c)) ~observe ~stimulus in
  Alcotest.(check bool) "native equals reference" true (Sim.equal_traces expected got)

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
          Alcotest.test_case "native sweep yields and resumes" `Quick test_sweep_yield_resume;
          Alcotest.test_case "wide registers latch in C" `Quick test_wide_latch;
          Alcotest.test_case "native activity step allocates nothing" `Quick test_step_no_alloc;
        ] );
      ( "cache",
        [ Alcotest.test_case "miss, hit, invalidation" `Quick test_cache_hit_and_invalidation;
          Alcotest.test_case "memo hit during another compile" `Quick
            test_memo_hit_during_compile;
          Alcotest.test_case "stale object rebuilt" `Quick test_stale_object_rebuilt ] );
      ( "fallback",
        [ Alcotest.test_case "no compiler degrades gracefully" `Quick test_fallback_no_compiler ] );
      ( "auto",
        [ Alcotest.test_case "size-based selection" `Quick test_auto_heuristic ] );
      ( "emit",
        [ Alcotest.test_case "source shape" `Quick test_emitted_source;
          Alcotest.test_case "shared loads keep shapes apart" `Quick test_shared_loads ] );
    ]
