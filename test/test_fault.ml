(* Fault-injection campaigns: key syntax, database round-trips and merge,
   end-to-end classification on a crafted circuit (identical across every
   engine preset and both evaluation backends), memory faults against a
   full-state oracle (sparse forks and compares, a fork after a hang),
   crash-safe resume, the per-fault budget, write_reg/checkpoint-restore
   consumer wake, and the combinational-loop diagnostic. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Reference = Gsim_ir.Reference
module Rand_circuit = Gsim_ir.Rand_circuit
module Partition = Gsim_partition.Partition
module Sim = Gsim_engine.Sim
module Checkpoint = Gsim_engine.Checkpoint
module Full_cycle = Gsim_engine.Full_cycle
module Activity = Gsim_engine.Activity
module Parallel = Gsim_engine.Parallel
module Collect = Gsim_coverage.Collect
module Gsim = Gsim_core.Gsim
module Fault = Gsim_fault.Fault
module Fdb = Gsim_fault.Db
module Campaign = Gsim_fault.Campaign
module Freport = Gsim_fault.Report

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- fault keys -------------------------------------------------------- *)

let test_key_roundtrip () =
  let strings =
    [
      "a#seu:3@10";
      "cpu.alu.acc#stuck0:0+4@7";
      "x#stuck1:61+1@0";
      "w#word:8'hff+2@3";
      "odd#name#seu:1@5";
    ]
  in
  List.iter
    (fun k -> Alcotest.(check string) k k (Fault.key (Fault.of_key k)))
    strings;
  let f =
    { Fault.target = "w"; model = Fault.Word_force (Bits.of_int ~width:9 5, 3); cycle = 2 }
  in
  Alcotest.(check bool) "word value survives" true (Fault.of_key (Fault.key f) = f);
  List.iter
    (fun bad ->
      match Fault.of_key bad with
      | _ -> Alcotest.failf "key %S should not parse" bad
      | exception Failure _ -> ())
    [ "a#seu:x@1"; "a@3"; "nosigil"; "a#bogus:1@2"; "a#seu:1"; "#seu:1@2"; "a#word:zz+1@0" ]

let test_random_faults () =
  let st = Random.State.make [| 7; 1 |] in
  let c = Rand_circuit.generate st Rand_circuit.default_config in
  let fs = Fault.random ~seed:3 ~count:25 ~horizon:20 c in
  Alcotest.(check bool) "some faults" true (List.length fs > 0);
  (* Deterministic in the seed, and every key parses back. *)
  let fs2 = Fault.random ~seed:3 ~count:25 ~horizon:20 c in
  Alcotest.(check bool) "deterministic" true (fs = fs2);
  List.iter (fun f -> ignore (Fault.of_key (Fault.key f))) fs

(* --- database ----------------------------------------------------------- *)

let sample_db () =
  let db = Fdb.create ~design:"d" ~horizon:10 () in
  Fdb.add db "a#seu:0@1" { Fdb.classification = Fdb.Detected 3; cycles_run = 3 };
  Fdb.add db "a#seu:1@1" { Fdb.classification = Fdb.Latent; cycles_run = 9 };
  Fdb.add db "b#stuck1:0+2@0" { Fdb.classification = Fdb.Masked; cycles_run = 10 };
  Fdb.add db "z#seu:0@3" { Fdb.classification = Fdb.Uninjectable "no-such-node"; cycles_run = 0 };
  db

let test_db_roundtrip () =
  let db = sample_db () in
  let db2 = Fdb.of_string (Fdb.to_string db) in
  Alcotest.(check bool) "roundtrip" true (Fdb.equal db db2);
  (* Idempotent re-add, conflicting add raises. *)
  Fdb.add db "a#seu:0@1" { Fdb.classification = Fdb.Detected 3; cycles_run = 3 };
  (match Fdb.add db "a#seu:0@1" { Fdb.classification = Fdb.Masked; cycles_run = 9 } with
   | () -> Alcotest.fail "conflict should raise"
   | exception Failure _ -> ());
  (* Classification token syntax. *)
  List.iter
    (fun cls ->
      Alcotest.(check bool) "cls roundtrip" true
        (Fdb.classification_of_string (Fdb.classification_to_string cls) = cls))
    [ Fdb.Detected 7; Fdb.Latent; Fdb.Masked; Fdb.Hang; Fdb.Uninjectable "no-such-node" ]

let test_db_merge_and_lenient () =
  let a = Fdb.create ~design:"d" ~horizon:10 () in
  Fdb.add a "a#seu:0@1" { Fdb.classification = Fdb.Detected 2; cycles_run = 2 };
  let b = Fdb.create ~design:"d" ~horizon:10 () in
  Fdb.add b "b#seu:0@1" { Fdb.classification = Fdb.Masked; cycles_run = 9 };
  let m = Fdb.merge a b in
  Alcotest.(check int) "merged count" 2 (Fdb.count m);
  let h = Fdb.create ~design:"d" ~horizon:11 () in
  (match Fdb.merge a h with
   | _ -> Alcotest.fail "horizon mismatch should raise"
   | exception Failure _ -> ());
  (* A torn final line is dropped only under lenient parsing. *)
  let torn = Fdb.to_string (sample_db ()) ^ "fault c#seu:0@2 dete" in
  (match Fdb.of_string torn with
   | _ -> Alcotest.fail "torn line should raise strictly"
   | exception Failure _ -> ());
  let db = Fdb.of_string ~lenient:true torn in
  Alcotest.(check bool) "torn line dropped" true (Fdb.equal db (sample_db ()))

(* --- classification ------------------------------------------------------ *)

(* in(4) -> reg a -> o = a[1:0] (the only output)
                  -> keep' = keep xor zext4(a[2])   (never observed)
   With in pinned to 15, faults on distinct bits of [a] produce each
   classification: bit 0 -> detected through o, bit 2 -> latent through
   keep, bit 3 -> masked (nothing reads it, a is reloaded next cycle). *)
let cls_circuit () =
  let c = Circuit.create ~name:"fcls" () in
  let inp = Circuit.add_input c ~name:"in" ~width:4 in
  let a = Circuit.add_register c ~name:"a" ~width:4 ~init:(Bits.zero 4) () in
  Circuit.set_next c a (Expr.var ~width:4 inp.Circuit.id);
  let va = Expr.var ~width:4 a.Circuit.read in
  let o = Circuit.add_logic c ~name:"o" (Expr.unop (Expr.Extract (1, 0)) va) in
  Circuit.mark_output c o.Circuit.id;
  let keep = Circuit.add_register c ~name:"keep" ~width:4 ~init:(Bits.zero 4) () in
  Circuit.set_next c keep
    (Expr.binop Expr.Xor
       (Expr.var ~width:4 keep.Circuit.read)
       (Expr.unop (Expr.Pad_unsigned 4) (Expr.unop (Expr.Extract (2, 2)) va)));
  (c, inp.Circuit.id)

let expected_classes =
  [
    ("a#seu:0@3", Fdb.Detected 3);
    ("a#seu:2@2", Fdb.Latent);
    ("a#seu:3@2", Fdb.Masked);
    ("keep#seu:0@2", Fdb.Latent);
    ("keep#stuck1:3+3@1", Fdb.Latent);
    ("in#stuck0:1+2@1", Fdb.Detected 2);
    ("o#stuck0:0+2@4", Fdb.Detected 4);
    ("o#stuck1:0+2@4", Fdb.Masked);
    ("a#word:4'hf+2@2", Fdb.Masked);
    ("ghost#seu:0@1", Fdb.Uninjectable "no-such-node");
    ("a#seu:9@1", Fdb.Uninjectable "bit-out-of-range");
    ("a#word:3'h7+2@1", Fdb.Uninjectable "width-mismatch");
    ("a#seu:0@99", Fdb.Uninjectable "cycle-beyond-horizon");
  ]

let cls_config = { Campaign.horizon = 8; budget = 8 }

let run_campaign ?skip ?on_record ?stop_after preset =
  let c, inp = cls_circuit () in
  let stimulus _ = [ (inp, Bits.of_int ~width:4 15) ] in
  Campaign.run ?skip ?on_record ?stop_after ~stimulus cls_config preset c
    (List.map (fun (k, _) -> Fault.of_key k) expected_classes)

let presets =
  [
    Gsim.reference;
    Gsim.verilator ();
    Gsim.verilator ~threads:2 ();
    { (Gsim.verilator ()) with Gsim.backend = `Closures };
    Gsim.arcilator;
    Gsim.essent;
    { Gsim.essent with Gsim.backend = `Closures };
    Gsim.gsim;
    { Gsim.gsim with Gsim.backend = `Closures };
  ]

let test_classification () =
  let db = run_campaign Gsim.gsim in
  List.iter
    (fun (key, expected) ->
      match Fdb.find db key with
      | Some r ->
        if r.Fdb.classification <> expected then
          Alcotest.failf "%s: expected %s, got %s" key
            (Fdb.classification_to_string expected)
            (Fdb.classification_to_string r.Fdb.classification)
      | None -> Alcotest.failf "%s: missing record" key)
    expected_classes;
  let s = Fdb.summary db in
  Alcotest.(check int) "no hangs" 0 s.Fdb.hangs;
  Alcotest.(check int) "all classified" (List.length expected_classes) s.Fdb.total;
  (* Reports render without raising and carry the headline numbers. *)
  let text = Freport.to_string ~latent:10 db in
  Alcotest.(check bool) "text mentions latent key" true (contains text "keep#seu:0@2");
  let json = Freport.to_json db in
  Alcotest.(check bool) "json has coverage" true (contains json "\"coverage_percent\"")

let test_cross_engine_identity () =
  let reference = run_campaign Gsim.reference in
  List.iter
    (fun preset ->
      let db = run_campaign preset in
      if not (Fdb.equal reference db) then
        Alcotest.failf "campaign on %s differs from reference:\n%s\nvs\n%s"
          preset.Gsim.config_name (Fdb.to_string reference) (Fdb.to_string db))
    presets

(* --- memory state: sparse forks and compares ------------------------------ *)

(* din(4) -> reg d; memory m[4] x 4 bits, written with d at waddr when
   we, read at raddr into the only output o.  The per-cycle stimulus
   below sets up one case per fault of [mem_faults]:
   - d#seu:0@2: the flipped d is stored to m[3], which nothing reads
     before the window ends — latent only through a memory word;
   - we#stuck1:0+1@8: one spurious store to m[1], a word golden never
     writes — latent through a word only the faulty run stored;
   - we#stuck1:0+2@8: two spurious stores to m[1], the second putting
     back its golden value — masked;
   - d#seu:1@10, then d#seu:1@5 (key order runs them in descending cycle
     order): golden stores m[2] at cycle 7 and the earlier fault reads
     m[2] at cycle 6, so the backward fork must revert that word;
   - we#stuck1:0+2@12 stores to m[3] and, in [test_memory_hang], its
     run raises at cycle 14; the masked fault after it reads m[3] at
     cycle 10, so the fork must revert the hung run's stores. *)
let mem_circuit () =
  let c = Circuit.create ~name:"fmem" () in
  let din = Circuit.add_input c ~name:"din" ~width:4 in
  let we = Circuit.add_input c ~name:"we" ~width:1 in
  let waddr = Circuit.add_input c ~name:"waddr" ~width:2 in
  let raddr = Circuit.add_input c ~name:"raddr" ~width:2 in
  let d = Circuit.add_register c ~name:"d" ~width:4 ~init:(Bits.zero 4) () in
  Circuit.set_next c d (Expr.var ~width:4 din.Circuit.id);
  let m = Circuit.add_memory c ~name:"m" ~width:4 ~depth:4 in
  Circuit.add_write_port c ~mem:m ~addr:waddr.Circuit.id ~data:d.Circuit.read
    ~en:we.Circuit.id;
  let rd = Circuit.add_read_port c ~mem:m ~name:"rd" ~addr:raddr.Circuit.id () in
  let o = Circuit.add_logic c ~name:"o" (Expr.var ~width:4 rd.Circuit.id) in
  Circuit.mark_output c o.Circuit.id;
  (c, [| din.Circuit.id; we.Circuit.id; waddr.Circuit.id; raddr.Circuit.id |])

(* (din, we, waddr, raddr) per cycle. *)
let mem_schedule =
  [|
    (3, 0, 0, 0); (6, 0, 0, 0); (7, 1, 3, 1); (2, 0, 0, 2);
    (4, 0, 0, 1); (1, 1, 0, 2); (9, 0, 0, 2); (5, 1, 2, 1);
    (0, 0, 1, 0); (8, 0, 1, 2); (11, 0, 0, 3); (12, 0, 0, 0);
    (13, 0, 3, 2); (14, 0, 3, 0); (1, 1, 2, 3); (2, 0, 0, 3);
  |]

let mem_config = { Campaign.horizon = Array.length mem_schedule; budget = 4 }

let mem_stimulus ids cycle =
  let din, we, waddr, raddr = mem_schedule.(cycle) in
  List.map2
    (fun id (v, w) -> (id, Bits.of_int ~width:w v))
    (Array.to_list ids)
    [ (din, 4); (we, 1); (waddr, 2); (raddr, 2) ]

let mem_faults =
  [
    "d#seu:0@2";
    "we#stuck1:0+1@8";
    "we#stuck1:0+2@8";
    "d#seu:1@10";
    "d#seu:1@5";
    "we#stuck1:0+2@12";
  ]

let mem_expected =
  [
    ("d#seu:0@2", Fdb.Latent);
    ("we#stuck1:0+1@8", Fdb.Latent);
    ("we#stuck1:0+2@8", Fdb.Masked);
    ("d#seu:1@5", Fdb.Detected 8);
    ("we#stuck1:0+2@12", Fdb.Detected 14);
  ]

(* Classifies one fault from scratch on the reference interpreter, with
   full-state captures: a fresh golden run to the window end, a fresh
   faulty run from cycle 0, and Checkpoint.equal at the window end. *)
let oracle c stimulus cfg (f : Fault.t) =
  let n = Option.get (Circuit.find_node c f.Fault.target) in
  let id = n.Circuit.id and width = n.Circuit.width in
  let inject = f.Fault.cycle in
  let endc = min cfg.Campaign.horizon (inject + max 1 cfg.Campaign.budget) in
  let outputs = List.map (fun (o : Circuit.node) -> o.Circuit.id) (Circuit.outputs c) in
  let fresh () = Sim.of_reference (Reference.create c) in
  let step s cycle =
    List.iter (fun (i, v) -> s.Sim.poke i v) (stimulus cycle);
    s.Sim.step ()
  in
  let golden = fresh () in
  let gout = Array.make endc [] and sample = ref (Bits.zero width) in
  for cycle = 0 to endc - 1 do
    step golden cycle;
    gout.(cycle) <- List.map golden.Sim.peek outputs;
    if cycle = inject then sample := golden.Sim.peek id
  done;
  let s = fresh () in
  for cycle = 0 to inject - 1 do
    step s cycle
  done;
  let onehot b = Bits.resize_unsigned (Bits.shift_left (Bits.one 1) b) ~width in
  let release_at =
    match f.Fault.model with
    | Fault.Seu b when Circuit.register_of_node c id <> None ->
      s.Sim.write_reg id (Bits.logxor (s.Sim.peek id) (onehot b));
      max_int
    | Fault.Seu b ->
      s.Sim.force ~mask:(onehot b) id (Bits.logxor !sample (onehot b));
      inject + 1
    | Fault.Stuck (v, b, d) ->
      s.Sim.force ~mask:(onehot b) id (if v then onehot b else Bits.zero width);
      inject + d
    | Fault.Word_force (v, d) ->
      s.Sim.force id v;
      inject + d
  in
  let rec go cycle =
    if cycle >= endc then begin
      s.Sim.release id;
      let same = Checkpoint.equal (Checkpoint.capture s) (Checkpoint.capture golden) in
      let classification = if same then Fdb.Masked else Fdb.Latent in
      { Fdb.classification; cycles_run = endc - inject }
    end
    else begin
      if cycle >= release_at then s.Sim.release id;
      step s cycle;
      if List.equal Bits.equal (List.map s.Sim.peek outputs) gout.(cycle) then
        go (cycle + 1)
      else { Fdb.classification = Fdb.Detected cycle; cycles_run = cycle - inject + 1 }
    end
  in
  go inject

let check_against_oracle ~what ?(expect = fun _ r -> r) db c stimulus cfg faults =
  List.iter
    (fun f ->
      let key = Fault.key f in
      let want = expect key (oracle c stimulus cfg f) in
      match Fdb.find db key with
      | Some got when got = want -> ()
      | got ->
        let show = function
          | Some (r : Fdb.record) ->
            Printf.sprintf "%s/%d" (Fdb.classification_to_string r.Fdb.classification)
              r.Fdb.cycles_run
          | None -> "missing"
        in
        Alcotest.failf "%s: %s: campaign says %s, oracle %s" what key (show got)
          (show (Some want)))
    faults

let test_memory_campaign () =
  let c, ids = mem_circuit () in
  let stimulus = mem_stimulus ids in
  let faults =
    List.map Fault.of_key mem_faults
    @ Fault.random ~seed:11 ~count:60 ~horizon:mem_config.Campaign.horizon c
  in
  let run preset = Campaign.run ~stimulus mem_config preset c faults in
  let reference = run Gsim.reference in
  List.iter
    (fun (key, cls) ->
      match Fdb.find reference key with
      | Some r when r.Fdb.classification = cls -> ()
      | _ -> Alcotest.failf "%s: expected %s" key (Fdb.classification_to_string cls))
    mem_expected;
  check_against_oracle ~what:"reference" reference c stimulus mem_config faults;
  List.iter
    (fun preset ->
      let db = run preset in
      if not (Fdb.equal reference db) then
        Alcotest.failf "memory campaign on %s differs from reference:\n%s\nvs\n%s"
          preset.Gsim.config_name (Fdb.to_string reference) (Fdb.to_string db))
    presets

(* The stimulus raises the second time it is asked for cycle 14, so the
   golden pass runs clean and the first faulty run to reach cycle 14 —
   we#stuck1:0+2@12 — hangs after storing to m[3]. *)
let test_memory_hang () =
  let c, ids = mem_circuit () in
  let faults = List.map Fault.of_key mem_faults in
  let hang_key = "we#stuck1:0+2@12" in
  let expect key r =
    if key = hang_key then { Fdb.classification = Fdb.Hang; cycles_run = 2 } else r
  in
  List.iter
    (fun preset ->
      let asked = ref 0 in
      let stimulus cycle =
        if cycle = 14 then begin
          incr asked;
          if !asked = 2 then failwith "stimulus fault"
        end;
        mem_stimulus ids cycle
      in
      let db = Campaign.run ~stimulus mem_config preset c faults in
      check_against_oracle ~what:preset.Gsim.config_name ~expect db c (mem_stimulus ids)
        mem_config faults)
    presets

(* --- resume and sharding ------------------------------------------------- *)

let test_resume () =
  let full = run_campaign Gsim.gsim in
  let path = Filename.temp_file "gsim_fault" ".fdb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* First shard: interrupted after 4 faults, appending as it goes. *)
  Fdb.init_file path (Fdb.create ~design:"fcls" ~horizon:cls_config.Campaign.horizon ());
  let on_record k r = Fdb.append_record path k r in
  ignore (run_campaign ~on_record ~stop_after:4 Gsim.gsim);
  (* Simulate a kill mid-append: a torn trailing record. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "fault torn#seu:0@1 detec";
  close_out oc;
  let partial = Fdb.load ~lenient:true path in
  Alcotest.(check int) "partial has 4 records" 4 (Fdb.count partial);
  (* Resume: skip completed faults, append the rest. *)
  Fdb.init_file path partial;
  let db2 = run_campaign ~skip:(Fdb.mem partial) ~on_record Gsim.gsim in
  Alcotest.(check int) "resume runs the remainder"
    (List.length expected_classes - 4)
    (Fdb.count db2);
  let final = Fdb.load path in
  if not (Fdb.equal full final) then
    Alcotest.failf "resumed campaign differs:\n%s\nvs\n%s" (Fdb.to_string full)
      (Fdb.to_string final);
  (* Sharding: two disjoint halves merge into the same database. *)
  let keys = List.map fst expected_classes in
  let half1 = List.filteri (fun i _ -> i mod 2 = 0) keys in
  let in_half1 k = List.mem k half1 in
  let a = run_campaign ~skip:(fun k -> not (in_half1 k)) Gsim.gsim in
  let b = run_campaign ~skip:in_half1 Gsim.gsim in
  Alcotest.(check bool) "shards merge to full" true (Fdb.equal full (Fdb.merge a b))

(* --- budget watchdog ----------------------------------------------------- *)

let test_budget () =
  let c, inp = cls_circuit () in
  let stimulus _ = [ (inp, Bits.of_int ~width:4 15) ] in
  let faults = List.map (fun (k, _) -> Fault.of_key k) expected_classes in
  let db =
    Campaign.run ~stimulus { Campaign.horizon = 8; budget = 2 } Gsim.gsim c faults
  in
  Fdb.iter db (fun key (r : Fdb.record) ->
      if r.Fdb.cycles_run > 2 then
        Alcotest.failf "%s ran %d cycles past a budget of 2" key r.Fdb.cycles_run);
  Alcotest.(check int) "no hangs" 0 (Fdb.summary db).Fdb.hangs

(* --- write_reg / restore consumer wake (S1) ------------------------------ *)

let wake_engines =
  List.concat_map
    (fun backend ->
      let b = Gsim_engine.Eval.to_string backend in
      [
        ( "full_cycle-" ^ b,
          fun c -> (Full_cycle.sim (Full_cycle.create ~backend c), fun () -> ()) );
        ( "essent-" ^ b,
          fun c ->
            let p = Partition.mffc c ~max_size:12 in
            ( Activity.sim ~name:"essent"
                (Activity.create ~config:Activity.essent_config ~backend c p),
              fun () -> () ) );
        ( "gsim-" ^ b,
          fun c ->
            let p = Partition.gsim c ~max_size:8 in
            ( Activity.sim ~name:"gsim"
                (Activity.create ~config:Activity.gsim_config ~backend c p),
              fun () -> () ) );
        ( "parallel2-" ^ b,
          fun c ->
            let t = Parallel.create ~backend ~threads:2 c in
            (Parallel.sim t, fun () -> Parallel.destroy t) );
      ])
    ([ `Closures ] @ if Gsim_engine.Native.available () then [ `Native ] else [])

let test_write_reg_wake () =
  for seed = 0 to 7 do
    let st = Random.State.make [| seed; 777 |] in
    let c = Rand_circuit.generate st Rand_circuit.default_config in
    let stim1 = Rand_circuit.random_stimulus st c ~cycles:5 in
    let stim2 = Rand_circuit.random_stimulus st c ~cycles:5 in
    let observe = Collect.default_observed c in
    let new_vals =
      List.map
        (fun (r : Circuit.register) ->
          let w = (Circuit.node c r.Circuit.read).Circuit.width in
          (r.Circuit.read, Bits.random st ~width:w))
        (Circuit.registers c)
    in
    (* Reference: run, overwrite every register, run on.  The checkpoint
       taken right after the overwrite is the restore-path oracle. *)
    let ref_sim = Sim.of_reference (Reference.create c) in
    let t1_ref = Sim.trace ref_sim ~observe ~stimulus:stim1 in
    List.iter (fun (id, v) -> ref_sim.Sim.write_reg id v) new_vals;
    let ck = Checkpoint.capture ref_sim in
    let t2_ref = Sim.trace ref_sim ~observe ~stimulus:stim2 in
    List.iter
      (fun (name, make) ->
        (* Path 1: write_reg + invalidate must wake every consumer. *)
        let sim, cleanup = make c in
        let t1 = Sim.trace sim ~observe ~stimulus:stim1 in
        if not (Sim.equal_traces t1_ref t1) then
          Alcotest.failf "seed %d: %s diverges before write_reg" seed name;
        List.iter (fun (id, v) -> sim.Sim.write_reg id v) new_vals;
        sim.Sim.invalidate ();
        let t2 = Sim.trace sim ~observe ~stimulus:stim2 in
        cleanup ();
        if not (Sim.equal_traces t2_ref t2) then
          Alcotest.failf "seed %d: %s: write_reg left stale consumers" seed name;
        (* Path 2: Checkpoint.restore of the post-overwrite state. *)
        let sim, cleanup = make c in
        ignore (Sim.trace sim ~observe ~stimulus:stim1);
        Checkpoint.restore sim ck;
        let t2 = Sim.trace sim ~observe ~stimulus:stim2 in
        cleanup ();
        if not (Sim.equal_traces t2_ref t2) then
          Alcotest.failf "seed %d: %s: restore left stale consumers" seed name)
      wake_engines
  done

(* --- combinational-loop diagnostic (S3) ---------------------------------- *)

let test_comb_loop () =
  let c = Circuit.create ~name:"loopy" () in
  let a = Circuit.add_logic c ~name:"a" (Expr.of_int ~width:1 0) in
  let b = Circuit.add_logic c ~name:"b" (Expr.unop Expr.Not (Expr.var ~width:1 a.Circuit.id)) in
  Circuit.set_expr c a.Circuit.id (Expr.var ~width:1 b.Circuit.id);
  Circuit.mark_output c b.Circuit.id;
  (match Circuit.check_acyclic c with
   | () -> Alcotest.fail "check_acyclic should raise"
   | exception Circuit.Combinational_cycle ids ->
     Alcotest.(check bool) "witness nonempty" true (ids <> []));
  match Gsim.instantiate Gsim.gsim c with
  | _ -> Alcotest.fail "instantiate should raise Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "diagnostic names a" true (contains msg "\"a\"");
    Alcotest.(check bool) "diagnostic names b" true (contains msg "\"b\"");
    Alcotest.(check bool) "diagnostic says cycle" true (contains msg "combinational cycle")

let () =
  Alcotest.run "fault"
    [
      ( "keys",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_roundtrip;
          Alcotest.test_case "random generation" `Quick test_random_faults;
        ] );
      ( "db",
        [
          Alcotest.test_case "roundtrip" `Quick test_db_roundtrip;
          Alcotest.test_case "merge + lenient load" `Quick test_db_merge_and_lenient;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "identical across engines" `Slow test_cross_engine_identity;
          Alcotest.test_case "resume + shards" `Quick test_resume;
          Alcotest.test_case "budget watchdog" `Quick test_budget;
          Alcotest.test_case "memory faults match a full-state oracle" `Quick
            test_memory_campaign;
          Alcotest.test_case "fork after a hang" `Quick test_memory_hang;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "write_reg/restore wake" `Slow test_write_reg_wake;
          Alcotest.test_case "combinational loop diagnostic" `Quick test_comb_loop;
        ] );
    ]
