(* The differential verification subsystem: exact IR text round-trips,
   the lockstep oracle, and the full canary path — a deliberately
   injected miscompile in the Simplify pass must be caught by a seeded
   campaign, shrunk to a tiny circuit and stimulus, bisected to the
   guilty pass, recorded as a replayable repro, and reproduced by
   replay.  Plus corpus crash-safety (resume, torn lines, merge) and
   campaign determinism. *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Expr = Gsim_ir.Expr
module Reference = Gsim_ir.Reference
module Rand_circuit = Gsim_ir.Rand_circuit
module Ir_text = Gsim_ir.Ir_text
module Sim = Gsim_engine.Sim
module Pipeline = Gsim_passes.Pipeline
module Oracle = Gsim_verify.Oracle
module Shrink = Gsim_verify.Shrink
module Bisect = Gsim_verify.Bisect
module Repro = Gsim_verify.Repro
module Corpus = Gsim_verify.Corpus
module Fuzz = Gsim_verify.Fuzz

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let temp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

(* --- Ir_text ----------------------------------------------------------- *)

let reference_outputs c stimulus =
  let sim = Sim.of_reference (Reference.create (Circuit.copy c)) in
  let observe = List.map (fun (n : Circuit.node) -> n.Circuit.id) (Circuit.outputs c) in
  Sim.trace sim ~observe ~stimulus

let test_ir_text_roundtrip () =
  for seed = 1 to 8 do
    let st = Random.State.make [| 7100; seed |] in
    let c = Rand_circuit.generate st Rand_circuit.default_config in
    let text = Ir_text.to_string c in
    let c' = Ir_text.of_string text in
    Alcotest.(check int)
      "node count survives" (Circuit.node_count c) (Circuit.node_count c');
    Alcotest.(check string)
      "serialization is a fixpoint" text (Ir_text.to_string c');
    (* same behavior: names identify nodes across the round-trip *)
    let stimulus = Rand_circuit.random_stimulus st c ~cycles:8 in
    let name id = (Circuit.node c id).Circuit.name in
    let stimulus' =
      Array.map
        (List.map (fun (id, v) ->
             match Circuit.find_node c' (name id) with
             | Some n -> (n.Circuit.id, v)
             | None -> Alcotest.failf "input %s lost" (name id)))
        stimulus
    in
    let t1 = reference_outputs c stimulus in
    let t2 = reference_outputs c' stimulus' in
    Alcotest.(check bool) "same reference trace" true (Sim.equal_traces t1 t2)
  done

let test_ir_text_rejects_garbage () =
  List.iter
    (fun s ->
      match Ir_text.of_string s with
      | exception Failure msg ->
        Alcotest.(check bool) "message names the format" true
          (contains msg "gsimir" || contains msg "line")
      | _ -> Alcotest.fail "accepted garbage")
    [ ""; "bogus"; "gsimir 2\n"; "gsimir 1\nnode x\n";
      "gsimir 1\ncircuit c\nnode 0 input 4 a\noutput 7\n" ]

(* --- Oracle ------------------------------------------------------------ *)

let test_oracle_clean () =
  let st = Random.State.make [| 7200 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let steps =
    Oracle.steps_of_stimulus (Rand_circuit.random_stimulus st c ~cycles:10)
  in
  let subjects = List.map Fuzz.subject_of_setup Fuzz.default_setups in
  let outcomes = Oracle.run c steps subjects in
  Alcotest.(check int) "all subjects ran" (List.length subjects)
    (List.length outcomes);
  (match Oracle.first_failure outcomes with
   | None -> ()
   | Some (s, f) ->
     Alcotest.failf "unexpected failure in %s: %s" s (Oracle.failure_to_string f));
  List.iter
    (fun (o : Oracle.outcome) ->
      match o.Oracle.o_counters with
      | Some ct -> Alcotest.(check bool) "cycles counted" true (ct.cycles > 0)
      | None -> Alcotest.fail "no counters")
    outcomes

let test_oracle_detects_planted_divergence () =
  (* a subject that lies about one output on cycle 3 must be reported as
     a mismatch at cycle 3 on that node *)
  let st = Random.State.make [| 7300 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let steps =
    Oracle.steps_of_stimulus (Rand_circuit.random_stimulus st c ~cycles:8)
  in
  let out = List.hd (Circuit.outputs c) in
  let liar =
    { Oracle.subject_name = "liar";
      build =
        (fun cc ->
          let sim = Sim.of_reference (Reference.create cc) in
          let cycle = ref 0 in
          ( { sim with
              Sim.step = (fun () -> incr cycle; sim.Sim.step ());
              peek =
                (fun id ->
                  let v = sim.Sim.peek id in
                  if id = out.Circuit.id && !cycle = 4 then Bits.lognot v else v)
            },
            fun () -> () )) }
  in
  match Oracle.run c steps [ liar ] with
  | [ { Oracle.o_failure = Some (Oracle.Mismatch m); _ } ] ->
    Alcotest.(check int) "cycle" 3 m.Oracle.at_cycle;
    Alcotest.(check int) "node" out.Circuit.id m.Oracle.node_id
  | [ { Oracle.o_failure = Some f; _ } ] ->
    Alcotest.failf "wrong failure: %s" (Oracle.failure_to_string f)
  | _ -> Alcotest.fail "no failure detected"

let test_oracle_crash_and_hang () =
  let st = Random.State.make [| 7350 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let steps =
    Oracle.steps_of_stimulus (Rand_circuit.random_stimulus st c ~cycles:5)
  in
  let crasher =
    { Oracle.subject_name = "crasher";
      build = (fun _ -> failwith "kaboom") }
  in
  let sleeper =
    { Oracle.subject_name = "sleeper";
      build =
        (fun cc ->
          let sim = Sim.of_reference (Reference.create cc) in
          ( { sim with
              Sim.step = (fun () -> ignore (Unix.select [] [] [] 0.05); sim.Sim.step ()) },
            fun () -> () )) }
  in
  match Oracle.run ~watchdog:0.01 c steps [ crasher; sleeper ] with
  | [ { Oracle.o_failure = Some (Oracle.Crash msg); _ };
      { Oracle.o_failure = Some (Oracle.Hang _); _ } ] ->
    Alcotest.(check bool) "crash message" true (contains msg "kaboom")
  | outcomes ->
    List.iter
      (fun (o : Oracle.outcome) ->
        Printf.printf "%s: %s\n" o.Oracle.o_subject
          (match o.Oracle.o_failure with
           | Some f -> Oracle.failure_to_string f
           | None -> "ok"))
      outcomes;
    Alcotest.fail "expected crash then hang"

(* --- Corpus ------------------------------------------------------------ *)

let sample_finding ?(repro = Some "fuzz-001.rpt") () =
  { Corpus.f_subject = "gsim+closures";
    f_kind = "mismatch";
    f_culprit = "pass:simplify";
    f_nodes = 6;
    f_cycles = 3;
    f_repro = repro }

let test_corpus_roundtrip_and_merge () =
  let a = Corpus.create ~seed:42 () in
  Corpus.add a 0 Corpus.Ok;
  Corpus.add a 1 (Corpus.Fail (sample_finding ()));
  let b = Corpus.of_string (Corpus.to_string a) in
  Alcotest.(check bool) "text round-trip" true (Corpus.equal a b);
  (* torn final line tolerated only leniently *)
  let torn = Corpus.to_string a ^ "case 2 fail gsim" in
  (match Corpus.of_string torn with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "strict parse accepted a torn line");
  let lenient = Corpus.of_string ~lenient:true torn in
  Alcotest.(check int) "torn line skipped" 2 (Corpus.count lenient);
  (* merge of disjoint shards; seed conflicts rejected *)
  let shard = Corpus.create ~seed:42 () in
  Corpus.add shard 7 Corpus.Ok;
  let merged = Corpus.merge a shard in
  Alcotest.(check int) "merged" 3 (Corpus.count merged);
  let other_seed = Corpus.create ~seed:43 () in
  (match Corpus.merge a other_seed with
   | exception Failure msg ->
     Alcotest.(check bool) "seed mismatch named" true (contains msg "seed")
   | _ -> Alcotest.fail "merged different seeds");
  (* conflicting duplicate rejected *)
  let conflict = Corpus.create ~seed:42 () in
  Corpus.add conflict 1 Corpus.Ok;
  match Corpus.merge a conflict with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "merged conflicting case records"

let test_corpus_buckets () =
  let t = Corpus.create ~seed:1 () in
  Corpus.add t 0 (Corpus.Fail (sample_finding ()));
  Corpus.add t 1
    (Corpus.Fail { (sample_finding ~repro:None ()) with Corpus.f_nodes = 3; f_cycles = 1 });
  Corpus.add t 2 Corpus.Ok;
  match Corpus.buckets t with
  | [ b ] ->
    Alcotest.(check string) "bucket key" "pass:simplify|mismatch" b.Corpus.b_bucket;
    Alcotest.(check int) "count" 2 b.Corpus.b_count;
    Alcotest.(check int) "min nodes" 3 b.Corpus.b_min_nodes;
    Alcotest.(check int) "min cycles" 1 b.Corpus.b_min_cycles;
    Alcotest.(check (option string)) "representative repro"
      (Some "fuzz-001.rpt") b.Corpus.b_repro
  | l -> Alcotest.failf "expected one bucket, got %d" (List.length l)

(* --- The canary: catch, shrink, bisect, replay ------------------------- *)

let canary_campaign dir =
  { Fuzz.default_campaign with
    Fuzz.seed = 20260806;
    cases = 40;
    cycles = 8;
    (* one representative activity engine + one full-cycle engine keeps
       the test fast; the nightly CI job runs the full matrix *)
    setups = [ Fuzz.setup_of_name "gsim+closures"; Fuzz.setup_of_name "verilator+closures" ];
    shrink_budget = 500;
    dir;
    inject_miscompile = true }

let run_canary =
  (* the campaign is deterministic, so run it once and let several tests
     assert on the result *)
  let cache = ref None in
  fun () ->
    match !cache with
    | Some r -> r
    | None ->
      let dir = temp_dir "gsim-fuzz-canary" in
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      let r = Fuzz.run (canary_campaign dir) in
      cache := Some (dir, r);
      (dir, r)

let test_canary_detected_and_bisected () =
  let _, result = run_canary () in
  let failures = Corpus.failures result.Fuzz.db in
  Alcotest.(check bool) "campaign found the miscompile" true (failures <> []);
  let buckets = Corpus.buckets result.Fuzz.db in
  let simplify_bucket =
    List.find_opt
      (fun (b : Corpus.bucket_stats) ->
        contains b.Corpus.b_bucket "pass:simplify")
      buckets
  in
  match simplify_bucket with
  | None ->
    Alcotest.failf "no pass:simplify bucket; got: %s"
      (String.concat ", "
         (List.map (fun (b : Corpus.bucket_stats) -> b.Corpus.b_bucket) buckets))
  | Some b ->
    Alcotest.(check bool) "shrunk to <= 10 nodes" true (b.Corpus.b_min_nodes <= 10);
    Alcotest.(check bool) "shrunk to <= 5 cycles" true (b.Corpus.b_min_cycles <= 5);
    Alcotest.(check bool) "repro recorded" true (b.Corpus.b_repro <> None)

let test_canary_repro_replays () =
  let dir, result = run_canary () in
  let buckets = Corpus.buckets result.Fuzz.db in
  let b =
    List.find
      (fun (b : Corpus.bucket_stats) -> b.Corpus.b_repro <> None)
      buckets
  in
  let path = Filename.concat dir (Option.get b.Corpus.b_repro) in
  let replay = Fuzz.replay ~inject_miscompile:true path in
  if not replay.Fuzz.rp_reproduced then
    Alcotest.failf "replay did not reproduce: expected %s, got %s"
      replay.Fuzz.rp_expected_signature replay.Fuzz.rp_actual;
  (* without the injected miscompile the repro must NOT reproduce — the
     recorded signature is specific to the planted bug *)
  let clean = Fuzz.replay ~inject_miscompile:false path in
  Alcotest.(check bool) "clean build passes the repro" false
    clean.Fuzz.rp_reproduced

let test_canary_deterministic () =
  let _, first = run_canary () in
  let dir2 = temp_dir "gsim-fuzz-canary2" in
  Array.iter (fun f -> Sys.remove (Filename.concat dir2 f)) (Sys.readdir dir2);
  let second = Fuzz.run (canary_campaign dir2) in
  Alcotest.(check string) "same seed, same corpus"
    (Corpus.to_string first.Fuzz.db) (Corpus.to_string second.Fuzz.db)

let test_canary_resume () =
  let dir, result = run_canary () in
  (* resuming a finished campaign re-runs nothing *)
  let resumed = Fuzz.run ~resume:true (canary_campaign dir) in
  Alcotest.(check int) "nothing re-ran" 0 resumed.Fuzz.ran;
  Alcotest.(check int) "everything skipped" (Corpus.count result.Fuzz.db)
    resumed.Fuzz.skipped

(* --- Clean pipeline: a short campaign finds nothing -------------------- *)

let test_clean_campaign_is_quiet () =
  let dir = temp_dir "gsim-fuzz-clean" in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let result =
    Fuzz.run
      { Fuzz.default_campaign with
        Fuzz.seed = 11;
        cases = 6;
        cycles = 8;
        setups = Fuzz.default_setups;
        dir }
  in
  Alcotest.(check int) "ran all cases" 6 result.Fuzz.ran;
  Alcotest.(check int) "no failures" 0
    (List.length (Corpus.failures result.Fuzz.db))

(* --- Shrink sanity on a crafted failure -------------------------------- *)

let test_shrink_reduces_crafted_case () =
  (* circuit: out = a + (b * c); a "bug" that only manifests when node
     [mul]'s value is odd.  The shrinker should keep the mul cone and
     drop the rest. *)
  let c = Circuit.create ~name:"crafted" () in
  let a = Circuit.add_input c ~name:"a" ~width:8 in
  let b = Circuit.add_input c ~name:"b" ~width:8 in
  let d = Circuit.add_input c ~name:"d" ~width:8 in
  let mul =
    Circuit.add_logic c ~name:"mul"
      (Expr.binop Expr.Mul
         (Expr.var ~width:8 b.Circuit.id)
         (Expr.var ~width:8 d.Circuit.id))
  in
  let pad =
    Circuit.add_logic c ~name:"pad"
      (Expr.unop (Expr.Pad_unsigned 16) (Expr.var ~width:8 a.Circuit.id))
  in
  let sum =
    Circuit.add_logic c ~name:"sum"
      (Expr.binop Expr.Add
         (Expr.var ~width:16 pad.Circuit.id)
         (Expr.var ~width:16 mul.Circuit.id))
  in
  Circuit.mark_output c sum.Circuit.id;
  Circuit.mark_output c mul.Circuit.id;
  let noise =
    Circuit.add_logic c ~name:"noise"
      (Expr.unop Expr.Not (Expr.var ~width:8 a.Circuit.id))
  in
  Circuit.mark_output c noise.Circuit.id;
  Circuit.validate c;
  let steps =
    Array.init 6 (fun i ->
        { Oracle.pokes =
            [ (a.Circuit.id, Bits.of_int ~width:8 (i * 3));
              (b.Circuit.id, Bits.of_int ~width:8 (i + 1));
              (d.Circuit.id, Bits.of_int ~width:8 3) ];
          actions = [] })
  in
  (* failure model: "fails" when the mul output is odd at some cycle *)
  (* failure model observes [mul] like the oracle observes outputs: it
     must stay output-marked for the failure to count *)
  let check (cc : Circuit.t) (ss : Oracle.step array) =
    match Circuit.find_node cc "mul" with
    | None -> false
    | Some mn when not mn.Circuit.is_output -> false
    | Some mn ->
      (try
         let sim = Sim.of_reference (Reference.create (Circuit.copy cc)) in
         let odd = ref false in
         Array.iter
           (fun (s : Oracle.step) ->
             List.iter (fun (id, v) -> sim.Sim.poke id v) s.Oracle.pokes;
             sim.Sim.step ();
             if Bits.bit (sim.Sim.peek mn.Circuit.id) 0 then odd := true)
           ss;
         !odd
       with _ -> false)
  in
  Alcotest.(check bool) "original fails" true (check c steps);
  let r = Shrink.run ~budget:300 ~check c steps in
  Alcotest.(check bool) "shrunk still fails" true
    (check r.Shrink.circuit r.Shrink.steps);
  Alcotest.(check bool) "fewer nodes" true
    (Circuit.node_count r.Shrink.circuit < Circuit.node_count c);
  Alcotest.(check bool) "one cycle suffices" true
    (Array.length r.Shrink.steps <= 2);
  (* the noise cone must be gone *)
  Alcotest.(check bool) "noise dropped" true
    (Circuit.find_node r.Shrink.circuit "noise" = None)

(* --- Setups ------------------------------------------------------------ *)

(* Closures on every preset; native joins only when a C compiler works.
   Every default name parses back to the same setup, and an unknown
   backend name is refused with the list of valid ones. *)
let test_default_setups () =
  let closures =
    [ "verilator+closures"; "arcilator+closures"; "essent+closures"; "gsim+closures" ]
  in
  let native =
    if Gsim_engine.Native.available () then [ "verilator+native"; "gsim+native" ] else []
  in
  Alcotest.(check (list string))
    "closures everywhere, native with cc" (closures @ native)
    (List.map (fun s -> s.Fuzz.s_name) Fuzz.default_setups);
  List.iter
    (fun (s : Fuzz.setup) ->
      let s' = Fuzz.setup_of_name s.Fuzz.s_name in
      Alcotest.(check string) (s.s_name ^ ": engine") s.s_engine s'.Fuzz.s_engine;
      Alcotest.(check string) (s.s_name ^ ": backend")
        (Gsim_engine.Eval.to_string s.s_backend)
        (Gsim_engine.Eval.to_string s'.Fuzz.s_backend);
      Alcotest.(check bool) (s.s_name ^ ": level") true (s.s_level = s'.Fuzz.s_level))
    Fuzz.default_setups;
  match Fuzz.setup_of_name "gsim+interpreter" with
  | exception Failure msg ->
    Alcotest.(check bool) ("lists the valid backends: " ^ msg) true
      (contains msg Gsim_engine.Eval.names)
  | _ -> Alcotest.fail "an unknown backend name was accepted"

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "verify"
    [ ( "ir_text",
        [ Alcotest.test_case "roundtrip" `Quick test_ir_text_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_ir_text_rejects_garbage ] );
      ( "oracle",
        [ Alcotest.test_case "clean matrix" `Quick test_oracle_clean;
          Alcotest.test_case "planted divergence" `Quick
            test_oracle_detects_planted_divergence;
          Alcotest.test_case "crash and hang" `Quick test_oracle_crash_and_hang ] );
      ( "corpus",
        [ Alcotest.test_case "roundtrip and merge" `Quick
            test_corpus_roundtrip_and_merge;
          Alcotest.test_case "buckets" `Quick test_corpus_buckets ] );
      ( "canary",
        [ Alcotest.test_case "detected, shrunk, bisected" `Quick
            test_canary_detected_and_bisected;
          Alcotest.test_case "repro replays" `Quick test_canary_repro_replays;
          Alcotest.test_case "deterministic" `Quick test_canary_deterministic;
          Alcotest.test_case "resume skips done work" `Quick test_canary_resume ] );
      ( "campaign",
        [ Alcotest.test_case "clean pipeline is quiet" `Quick
            test_clean_campaign_is_quiet ] );
      ( "shrink",
        [ Alcotest.test_case "crafted case reduces" `Quick
            test_shrink_reduces_crafted_case ] );
      ( "setups",
        [ Alcotest.test_case "default matrix and names" `Quick test_default_setups ] ) ]
