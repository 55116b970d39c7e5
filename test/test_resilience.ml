(* Resilient sessions: crash-safe checkpointing, shadow lockstep
   verification, graceful degradation — and the hardened checkpoint
   format underneath them. *)

module Bits = Gsim_bits.Bits
module Expr = Gsim_ir.Expr
module Circuit = Gsim_ir.Circuit
module Rand_circuit = Gsim_ir.Rand_circuit
module Sim = Gsim_engine.Sim
module Full_cycle = Gsim_engine.Full_cycle
module Checkpoint = Gsim_engine.Checkpoint
module Native = Gsim_engine.Native
module Gsim = Gsim_core.Gsim
module Store = Gsim_resilience.Store
module Incident = Gsim_resilience.Incident
module Shadow = Gsim_resilience.Shadow
module Session = Gsim_resilience.Session
module Fault = Gsim_fault.Fault
module Campaign = Gsim_fault.Campaign
module Fault_db = Gsim_fault.Db

let b ~w n = Bits.of_int ~width:w n

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsim-resilience-%d-%d" (Unix.getpid ()) !ctr)
    in
    Store.ensure_dir d;
    d

let counter_circuit () =
  let c = Circuit.create ~name:"ctr" () in
  let en = Circuit.add_input c ~name:"top.en" ~width:1 in
  let r = Circuit.add_register c ~name:"top.count" ~width:8 ~init:(Bits.zero 8) () in
  Circuit.set_next c r
    (Expr.mux (Expr.var ~width:1 en.Circuit.id)
       (Expr.unop (Expr.Extract (7, 0))
          (Expr.binop Expr.Add (Expr.var ~width:8 r.Circuit.read) (Expr.of_int ~width:8 1)))
       (Expr.var ~width:8 r.Circuit.read));
  Circuit.mark_output c r.Circuit.read;
  (c, en.Circuit.id, r.Circuit.read)

(* A stimulus that is a pure function of the absolute cycle — the
   contract Session.run needs so rollback replays are faithful. *)
let en_stimulus en cycle = [ (en, b ~w:1 (if cycle mod 7 < 5 then 1 else 0)) ]

(* --- checkpoint format v2 ------------------------------------------------ *)

let test_ck_crc_roundtrip () =
  let c, en, _ = counter_circuit () in
  let sim = Full_cycle.sim (Full_cycle.create c) in
  sim.Sim.poke en (b ~w:1 1);
  Sim.run sim 13;
  let ck = Checkpoint.capture sim in
  let s = Checkpoint.to_string ck in
  Alcotest.(check bool) "v2 header" true (contains s "ckpt 2");
  Alcotest.(check bool) "crc footer" true (contains s "\ncrc ");
  let ck' = Checkpoint.of_string s in
  Alcotest.(check bool) "roundtrip equal" true (Checkpoint.equal ck ck');
  Alcotest.(check int) "cycle survives" 13 (Checkpoint.cycle ck')

let test_ck_corruption_detected () =
  let c, en, _ = counter_circuit () in
  let sim = Full_cycle.sim (Full_cycle.create c) in
  sim.Sim.poke en (b ~w:1 1);
  Sim.run sim 5;
  let s = Checkpoint.to_string (Checkpoint.capture sim) in
  (* Flip one payload character (a hex digit of the register value). *)
  let i = ref (String.length s - 1) in
  while s.[!i] <> 'g' do decr i done;
  (* [!i] is the 'g' of the last "reg" line keyword; corrupt its value field. *)
  let j = String.index_from s !i '\n' - 1 in
  let corrupt =
    String.mapi (fun k ch -> if k = j then (if ch = '0' then '1' else '0') else ch) s
  in
  (match Checkpoint.of_string corrupt with
   | _ -> Alcotest.fail "corruption not detected"
   | exception Failure msg ->
     Alcotest.(check bool) "names crc" true (contains msg "CRC mismatch"));
  (* Version 1 (no footer) still loads. *)
  let v1 =
    String.concat "\n"
      (List.filter
         (fun l -> not (contains l "crc "))
         (String.split_on_char '\n' (String.map (fun ch -> ch) s)))
  in
  let v1 = "ckpt 1" ^ String.sub v1 6 (String.length v1 - 6) in
  ignore (Checkpoint.of_string v1)

let test_ck_precise_errors () =
  let c, en, _ = counter_circuit () in
  let sim = Full_cycle.sim (Full_cycle.create c) in
  sim.Sim.poke en (b ~w:1 1);
  Sim.run sim 3;
  let ck = Checkpoint.capture sim in
  let body =
    String.concat "\n"
      (List.filter
         (fun l -> not (contains l "crc "))
         (String.split_on_char '\n' (Checkpoint.to_string ck)))
  in
  let v1 = "ckpt 1" ^ String.sub body 6 (String.length body - 6) in
  (* Duplicate register line. *)
  let dup = v1 ^ "reg top.count 8'h00\n" in
  (match Checkpoint.of_string dup with
   | _ -> Alcotest.fail "duplicate not detected"
   | exception Failure msg ->
     Alcotest.(check bool) "duplicate names signal" true
       (contains msg "duplicate" && contains msg "top.count"));
  (* Bad value. *)
  let bad = v1 ^ "reg extra.sig notanumber\n" in
  (match Checkpoint.of_string bad with
   | _ -> Alcotest.fail "bad value not detected"
   | exception Failure msg ->
     Alcotest.(check bool) "bad value names signal" true (contains msg "extra.sig"));
  (* Missing footer on a v2 file. *)
  let nofooter = "ckpt 2" ^ String.sub body 6 (String.length body - 6) in
  (match Checkpoint.of_string nofooter with
   | _ -> Alcotest.fail "missing footer not detected"
   | exception Failure msg ->
     Alcotest.(check bool) "says missing crc" true (contains msg "crc"));
  ignore (Checkpoint.of_string ~lenient:true nofooter)

let test_ck_restore_mismatch_errors () =
  let c, en, _ = counter_circuit () in
  let sim = Full_cycle.sim (Full_cycle.create c) in
  sim.Sim.poke en (b ~w:1 1);
  Sim.run sim 2;
  let ck = Checkpoint.capture sim in
  let s = Checkpoint.to_string ck in
  (* Widen the register value: restore must name the signal and widths. *)
  let widened =
    String.concat "\n"
      (List.map
         (fun l -> if contains l "reg top.count" then "reg top.count 16'h0003" else l)
         (String.split_on_char '\n'
            (String.concat "\n"
               (List.filter (fun l -> not (contains l "crc ")) (String.split_on_char '\n' s)))))
  in
  let widened = "ckpt 1" ^ String.sub widened 6 (String.length widened - 6) in
  let ck' = Checkpoint.of_string widened in
  match Checkpoint.restore sim ck' with
  | _ -> Alcotest.fail "width mismatch not detected"
  | exception Failure msg ->
    Alcotest.(check bool) "names signal and widths" true
      (contains msg "top.count" && contains msg "16" && contains msg "8")

let test_ck_lenient_truncation () =
  let c, en, _ = counter_circuit () in
  let sim = Full_cycle.sim (Full_cycle.create c) in
  sim.Sim.poke en (b ~w:1 1);
  Sim.run sim 9;
  let s = Checkpoint.to_string (Checkpoint.capture sim) in
  (* Tear the file mid-line: strict load fails, lenient keeps the prefix. *)
  let torn = String.sub s 0 (String.length s - 12) in
  (match Checkpoint.of_string torn with
   | _ -> Alcotest.fail "torn file accepted strictly"
   | exception Failure _ -> ());
  let ck = Checkpoint.of_string ~lenient:true torn in
  Alcotest.(check int) "cycle from complete prefix" 9 (Checkpoint.cycle ck)

(* --- store ring ---------------------------------------------------------- *)

let test_store_ring_and_fallback () =
  let c, en, _ = counter_circuit () in
  let sim = Full_cycle.sim (Full_cycle.create c) in
  sim.Sim.poke en (b ~w:1 1);
  let dir = temp_dir () in
  let store = Store.create ~ring:3 dir in
  for _ = 1 to 5 do
    Sim.run sim 10;
    ignore (Store.save store (Checkpoint.capture sim))
  done;
  let cks = Store.checkpoints store in
  Alcotest.(check int) "ring pruned to 3" 3 (List.length cks);
  Alcotest.(check (list int)) "newest generations kept" [ 30; 40; 50 ] (List.map fst cks);
  (* Corrupt the newest: latest falls back to the previous generation. *)
  let _, newest = List.nth cks 2 in
  let oc = open_out newest in
  output_string oc "ckpt 2\ncycle 50\ngarbage\ncrc 00000000\n";
  close_out oc;
  (match Store.latest store with
   | Some (ck, path) ->
     Alcotest.(check int) "fell back one generation" 40 (Checkpoint.cycle ck);
     Alcotest.(check bool) "path is the older file" true (contains path "000040")
   | None -> Alcotest.fail "no generation survived");
  (* All corrupt, lenient: the newest is re-read leniently. *)
  List.iter
    (fun (_, p) ->
      let s = In_channel.with_open_bin p In_channel.input_all in
      let oc = open_out p in
      (* Truncate mid-file: strict CRC fails, prefix still parses. *)
      output_string oc (String.sub s 0 (String.length s - 10));
      close_out oc)
    (Store.checkpoints store);
  Alcotest.(check bool) "strict gives up" true (Store.latest store = None);
  match Store.latest ~lenient:true store with
  | Some (ck, _) -> Alcotest.(check int) "lenient recovers newest prefix" 50 (Checkpoint.cycle ck)
  | None -> Alcotest.fail "lenient recovery failed"

(* --- delta chains: recovery walk under injected corruption ---------------- *)

(* Torn write: keep only the first half of the file (no atomic rename —
   this is the on-disk state a SIGKILL mid-write leaves). *)
let tear_file path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub s 0 (String.length s / 2)))

(* Silent corruption: flip one byte in the middle, length unchanged. *)
let flip_mid path =
  let s = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let i = Bytes.length s / 2 in
  Bytes.set s i (if Bytes.get s i = 'x' then 'y' else 'x');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc s)

(* Corrupt only the CRC footer: flip a hex digit of the "crc" line. *)
let corrupt_footer path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let rec find i =
    if i + 4 > String.length s then Alcotest.fail "no crc footer"
    else if String.sub s i 4 = "crc " then i + 4
    else find (i + 1)
  in
  let j = find 0 in
  let s =
    String.mapi (fun k ch -> if k = j then (if ch = '0' then '1' else '0') else ch) s
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_store_delta_chain_recovery () =
  let c, en, _ = counter_circuit () in
  let fresh () = Full_cycle.sim (Full_cycle.create c) in
  let sim = fresh () in
  let cycle = ref 0 in
  let advance sim upto =
    for cy = !cycle to upto - 1 do
      List.iter (fun (id, v) -> sim.Sim.poke id v) (en_stimulus en cy);
      sim.Sim.step ()
    done;
    cycle := upto
  in
  let dir = temp_dir () in
  let store = Store.create ~ring:0 dir in
  advance sim 10;
  let ck10 = Checkpoint.with_cycle (Checkpoint.capture sim) 10 in
  let kf_path, crc10 = Store.save_keyframe store ck10 in
  (* Chain three deltas on the keyframe: 10 -> 20 -> 30 -> 40. *)
  let prev = ref (ck10, crc10) in
  let chain =
    List.map
      (fun cy ->
        advance sim cy;
        let ck = Checkpoint.with_cycle (Checkpoint.capture sim) cy in
        let base, base_crc = !prev in
        let path, crc = Store.save_delta store (Checkpoint.delta_of ~base ~base_crc ck) in
        prev := (ck, crc);
        (cy, path, ck))
      [ 20; 30; 40 ]
  in
  let ck_at cy = match List.find (fun (c, _, _) -> c = cy) chain with _, _, ck -> ck in
  let path_at cy = match List.find (fun (c, _, _) -> c = cy) chain with _, p, _ -> p in
  let latest_cycle () =
    match Store.latest store with
    | Some (ck, _) -> Some (Checkpoint.cycle ck)
    | None -> None
  in
  (* Intact chain: materializes the tip, byte-for-byte. *)
  (match Store.latest store with
   | Some (ck, _) ->
     Alcotest.(check string) "tip materializes byte-identical"
       (Checkpoint.to_string (ck_at 40)) (Checkpoint.to_string ck)
   | None -> Alcotest.fail "intact chain failed to materialize");
  let keep path = In_channel.with_open_bin path In_channel.input_all in
  let restore path s =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  in
  (* Torn mid-chain delta: 30 breaks, and 40 — intact itself, but
     chained through 30 — must fall with it.  Recovery lands on 20. *)
  let saved30 = keep (path_at 30) in
  tear_file (path_at 30);
  Alcotest.(check (option int)) "torn link drops to newest intact generation"
    (Some 20) (latest_cycle ());
  (* Resume from the recovered generation = uninterrupted, bytes equal. *)
  (match Store.latest store with
   | Some (ck, _) ->
     let resumed = fresh () in
     Checkpoint.restore resumed ck;
     cycle := Checkpoint.cycle ck;
     advance resumed 60;
     let control = fresh () in
     cycle := 0;
     advance control 60;
     Alcotest.(check string) "resume after torn delta = uninterrupted run"
       (Checkpoint.to_string (Checkpoint.with_cycle (Checkpoint.capture control) 60))
       (Checkpoint.to_string (Checkpoint.with_cycle (Checkpoint.capture resumed) 60))
   | None -> Alcotest.fail "no generation after tear");
  restore (path_at 30) saved30;
  (* Silent one-byte corruption of a mid-chain delta fails its own CRC:
     same fallback, no half-applied delta. *)
  flip_mid (path_at 30);
  Alcotest.(check (option int)) "corrupt delta detected by its CRC" (Some 20)
    (latest_cycle ());
  restore (path_at 30) saved30;
  Alcotest.(check (option int)) "restored chain is whole again" (Some 40)
    (latest_cycle ());
  (* Keyframe footer corruption kills the anchor: every delta chains
     through its bytes, so strict recovery has nothing — lenient mode
     re-reads the keyframe body (intact above the footer) and recovers
     its state rather than giving up. *)
  corrupt_footer kf_path;
  Alcotest.(check (option int)) "broken anchor fails the whole chain" None
    (latest_cycle ());
  match Store.latest ~lenient:true store with
  | Some (ck, _) ->
    Alcotest.(check int) "lenient recovers the keyframe body" 10 (Checkpoint.cycle ck);
    Alcotest.(check bool) "recovered state is the keyframe's" true
      (Checkpoint.equal ck ck10)
  | None -> Alcotest.fail "lenient recovery found nothing"

let test_session_resume_torn_delta () =
  let st = Random.State.make [| 11 |] in
  let circuit =
    Rand_circuit.generate st
      { Rand_circuit.default_config with Rand_circuit.with_memory = true }
  in
  let stim = Rand_circuit.random_stimulus st circuit ~cycles:120 in
  let stimulus c = if c < Array.length stim then stim.(c) else [] in
  let clean =
    let t = Session.create Session.default Gsim.gsim circuit in
    ignore (Session.run ~stimulus t 120);
    let ck = Session.checkpoint t in
    Session.destroy t;
    Checkpoint.to_string ck
  in
  (* One 60-cycle interrupted run per injection scenario: tear the chain
     tip (fall back one generation), then corrupt the first delta (the
     whole chain dies, recovery drops to the startup keyframe). *)
  List.iter
    (fun (scenario, mutate, expect_resume) ->
      let dir = temp_dir () in
      let cfg =
        { Session.default with
          Session.checkpoint_every = Some 25;
          checkpoint_dir = Some dir }
      in
      let t1 = Session.create cfg Gsim.gsim circuit in
      let o1 = Session.run ~stimulus t1 60 in
      (* Startup keyframe at 0, deltas at 25, 50 and the run-end 60. *)
      Alcotest.(check int) (scenario ^ ": one keyframe") 1 o1.Session.keyframes_written;
      Alcotest.(check int) (scenario ^ ": three deltas") 3 o1.Session.deltas_written;
      Session.destroy t1;
      let gens = Store.generations (Store.create dir) in
      Alcotest.(check bool) (scenario ^ ": chain on disk") true
        (List.map (fun (c, _, k) -> (c, k)) gens
        = [ (0, `Full); (25, `Delta); (50, `Delta); (60, `Delta) ]);
      let path_at cy =
        match List.find (fun (c, _, _) -> c = cy) gens with _, p, _ -> p
      in
      mutate path_at;
      let t2 = Session.create cfg Gsim.gsim circuit in
      (match Session.resume t2 with
       | Some (c, _) ->
         Alcotest.(check int) (scenario ^ ": resume generation") expect_resume c
       | None -> Alcotest.fail (scenario ^ ": nothing to resume"));
      ignore (Session.run ~stimulus t2 120);
      let resumed = Checkpoint.to_string (Session.checkpoint t2) in
      Session.destroy t2;
      Alcotest.(check string) (scenario ^ ": byte-identical to uninterrupted") clean
        resumed)
    [
      ("torn tip", (fun path_at -> tear_file (path_at 60)), 50);
      ("corrupt mid-chain", (fun path_at -> flip_mid (path_at 25)), 0);
    ]

(* --- resume = uninterrupted, across every preset x backend --------------- *)

let test_resume_matrix () =
  let st = Random.State.make [| 7 |] in
  let circuit =
    Rand_circuit.generate st
      { Rand_circuit.default_config with Rand_circuit.with_memory = true }
  in
  let stim = Rand_circuit.random_stimulus st circuit ~cycles:120 in
  let stimulus c = if c < Array.length stim then stim.(c) else [] in
  let backends =
    [ `Closures ] @ (if Native.available () then [ `Native ] else [])
  in
  (* Rotate the keyframe cadence across matrix cells: the default chain,
     all-full generations (no deltas), and a keyframe after every delta —
     each cadence meets several engines over the sweep. *)
  let kf_variations = [| 16; 0; 1 |] in
  let cell = ref 0 in
  List.iter
    (fun preset ->
      List.iter
        (fun backend ->
          let keyframe_every = kf_variations.(!cell mod Array.length kf_variations) in
          incr cell;
          let config = { preset with Gsim.backend } in
          let name = Printf.sprintf "%s/%s/kf%d" config.Gsim.config_name
              (Gsim_engine.Eval.to_string backend) keyframe_every in
          let dir = temp_dir () in
          let cfg =
            { Session.default with Session.checkpoint_every = Some 25;
              checkpoint_dir = Some dir; keyframe_every }
          in
          (* Interrupted: stop at 60 (checkpoints at 25 and 50 persist). *)
          let t1 = Session.create cfg config circuit in
          let o1 = Session.run ~stimulus t1 60 in
          Alcotest.(check int) (name ^ " interrupted ran") 60 o1.Session.final_cycle;
          Alcotest.(check int) (name ^ " generation accounting")
            o1.Session.checkpoints_written
            (o1.Session.keyframes_written + o1.Session.deltas_written);
          (* Engines without a runtime arena (no write barrier) persist
             all-full generations regardless of cadence. *)
          if keyframe_every = 0 then
            Alcotest.(check int) (name ^ " all generations full") 0
              o1.Session.deltas_written;
          Session.destroy t1;
          (* Resumed in a fresh session (fresh process stand-in). *)
          let t2 = Session.create cfg config circuit in
          (match Session.resume t2 with
           | Some (c, _) -> Alcotest.(check int) (name ^ " resumed at") 60 c
           | None -> Alcotest.fail (name ^ ": nothing to resume"));
          let o2 = Session.run ~stimulus t2 120 in
          Alcotest.(check int) (name ^ " resumed final") 120 o2.Session.final_cycle;
          let resumed_final = Session.checkpoint t2 in
          Session.destroy t2;
          (* Uninterrupted control. *)
          let t3 = Session.create Session.default config circuit in
          ignore (Session.run ~stimulus t3 120);
          let clean_final = Session.checkpoint t3 in
          Session.destroy t3;
          Alcotest.(check bool)
            (name ^ " resume bit-identical to uninterrupted") true
            (Checkpoint.equal resumed_final clean_final);
          Alcotest.(check string) (name ^ " resume byte-identical serialized")
            (Checkpoint.to_string clean_final)
            (Checkpoint.to_string resumed_final))
        backends)
    Gsim.all_presets

(* --- shadow verification + degradation ----------------------------------- *)

let divergence_outcome () =
  let circuit, en, count = counter_circuit () in
  let dir = temp_dir () in
  let cfg =
    { Session.default with Session.shadow_stride = Some 40; incident_dir = Some dir }
  in
  let t = Session.create ~forcible:[ count ] cfg Gsim.gsim circuit in
  (* A persistent stuck-at on the counter's bit 0 from cycle 50: the
     shadow window [40,80) must catch it. *)
  Session.inject_at t ~cycle:50 (fun sim ->
      let m = b ~w:8 1 in
      sim.Sim.force ~mask:m count m);
  let o = Session.run ~stimulus:(en_stimulus en) t 200 in
  (t, circuit, dir, o)

let test_divergence_detected () =
  let t, circuit, dir, o = divergence_outcome () in
  Alcotest.(check bool) "degraded" true o.Session.degraded;
  Alcotest.(check int) "one incident" 1 (List.length o.Session.incidents);
  let inc = List.hd o.Session.incidents in
  (match inc.Incident.kind with
   | Incident.Divergence -> ()
   | k -> Alcotest.fail ("wrong kind: " ^ Incident.kind_to_string k));
  (* Detected within one stride of the injection... *)
  Alcotest.(check bool) "window covers injection" true
    (inc.Incident.window_start <= 50 && inc.Incident.window_end <= 80);
  (* ...and bisected to the injection cycle's first visible effect. *)
  (match inc.Incident.first_divergent with
   | Some c -> Alcotest.(check bool) "first divergent in window" true (c > 40 && c <= 80)
   | None -> Alcotest.fail "no first-divergent cycle");
  Alcotest.(check bool) "register subset nonempty" true (inc.Incident.registers <> []);
  Alcotest.(check bool) "shrunk start state present" true
    (inc.Incident.start_state <> None);
  Alcotest.(check bool) "one-cycle trace" true (List.length inc.Incident.trace = 1);
  (* The repro replays: on the (still faulted) primary, restore + step
     reproduces the primary's divergent values. *)
  Alcotest.(check bool) "repro replays on primary" true
    (Shadow.replay ~circuit (Session.primary_sim t) inc);
  (* The incident report round-trips through its on-disk form. *)
  let path = Filename.concat dir "incident-001.rpt" in
  Alcotest.(check bool) "incident file written" true (Sys.file_exists path);
  let inc' = Incident.load path in
  Alcotest.(check bool) "kind survives" true (inc'.Incident.kind = Incident.Divergence);
  Alcotest.(check bool) "first divergent survives" true
    (inc'.Incident.first_divergent = inc.Incident.first_divergent);
  Alcotest.(check bool) "registers survive" true
    (inc'.Incident.registers = inc.Incident.registers);
  Alcotest.(check bool) "start state survives" true
    (match (inc'.Incident.start_state, inc.Incident.start_state) with
     | Some a, Some b -> Checkpoint.equal a b
     | _ -> false);
  Session.destroy t

let test_degraded_completes_clean () =
  let t, _, _, o = divergence_outcome () in
  let degraded_final = Session.checkpoint t in
  Session.destroy t;
  (* The same session without the fault. *)
  let circuit, en, _ = counter_circuit () in
  let t2 = Session.create Session.default Gsim.gsim circuit in
  ignore (Session.run ~stimulus:(en_stimulus en) t2 200);
  let clean_final = Session.checkpoint t2 in
  Session.destroy t2;
  Alcotest.(check int) "reaches the target" 200 o.Session.final_cycle;
  Alcotest.(check bool) "fallback state equals fault-free run" true
    (Checkpoint.equal degraded_final clean_final)

let test_transient_divergence () =
  let circuit, en, count = counter_circuit () in
  let cfg = { Session.default with Session.shadow_stride = Some 40 } in
  let t = Session.create ~forcible:[ count ] cfg Gsim.gsim circuit in
  (* A one-shot register flip: the primary's own replay will NOT
     reproduce it, so it must classify as transient. *)
  Session.inject_at t ~cycle:50 (fun sim ->
      sim.Sim.write_reg count (Bits.logxor (sim.Sim.peek count) (b ~w:8 4));
      sim.Sim.invalidate ());
  let o = Session.run ~stimulus:(en_stimulus en) t 200 in
  Alcotest.(check bool) "degraded" true o.Session.degraded;
  (match o.Session.incidents with
   | [ { Incident.kind = Incident.Transient_divergence; _ } ] -> ()
   | _ -> Alcotest.fail "expected exactly one transient-divergence incident");
  Alcotest.(check int) "completes" 200 o.Session.final_cycle;
  Session.destroy t

let test_engine_error_degrades () =
  let circuit, en, _ = counter_circuit () in
  let t = Session.create Session.default Gsim.gsim circuit in
  Session.inject_at t ~cycle:30 (fun _ -> failwith "synthetic engine fault");
  let o = Session.run ~stimulus:(en_stimulus en) t 100 in
  Alcotest.(check bool) "degraded" true o.Session.degraded;
  (match o.Session.incidents with
   | [ { Incident.kind = Incident.Engine_error msg; _ } ] ->
     Alcotest.(check bool) "message kept" true (contains msg "synthetic")
   | _ -> Alcotest.fail "expected exactly one engine-error incident");
  Alcotest.(check int) "completes on fallback" 100 o.Session.final_cycle;
  let final = Session.checkpoint t in
  Session.destroy t;
  let t2 = Session.create Session.default Gsim.gsim circuit in
  ignore (Session.run ~stimulus:(en_stimulus en) t2 100);
  Alcotest.(check bool) "state equals clean run" true
    (Checkpoint.equal final (Session.checkpoint t2));
  Session.destroy t2

let test_watchdog_degrades () =
  let circuit, en, _ = counter_circuit () in
  let cfg = { Session.default with Session.watchdog_seconds = Some 0.005 } in
  let t = Session.create cfg Gsim.gsim circuit in
  Session.inject_at t ~cycle:20 (fun _ -> Unix.sleepf 0.05);
  let o = Session.run ~stimulus:(en_stimulus en) t 60 in
  Alcotest.(check bool) "degraded" true o.Session.degraded;
  (match o.Session.incidents with
   | [ { Incident.kind = Incident.Watchdog dt; _ } ] ->
     Alcotest.(check bool) "records elapsed" true (dt > 0.005)
   | _ -> Alcotest.fail "expected exactly one watchdog incident");
  Alcotest.(check int) "completes on fallback" 60 o.Session.final_cycle;
  Session.destroy t

(* --- campaign golden-state reuse ----------------------------------------- *)

let test_campaign_golden_reuse () =
  let circuit, en, count = counter_circuit () in
  let cfg = { Campaign.horizon = 60; budget = 20 } in
  let faults =
    [
      { Fault.target = "top.count"; model = Fault.Seu 0; cycle = 10 };
      { Fault.target = "top.count"; model = Fault.Stuck (true, 1, 5); cycle = 30 };
      { Fault.target = "top.en"; model = Fault.Stuck (false, 0, 8); cycle = 12 };
    ]
  in
  let stimulus c = en_stimulus en c in
  let dir = temp_dir () in
  let gtr = Filename.concat dir "golden.gtr" in
  let read_gtr () = In_channel.with_open_bin gtr In_channel.input_all in
  let store = Store.create ~ring:0 dir in
  let db1 = Campaign.run ~stimulus ~golden_dir:dir cfg Gsim.gsim circuit faults in
  Alcotest.(check bool) "golden model persisted" true (Sys.file_exists gtr);
  Alcotest.(check bool) "golden 2 format" true (String.starts_with ~prefix:"golden 2\n" (read_gtr ()));
  Alcotest.(check (list int)) "one cycle-0 keyframe" [ 0 ]
    (List.map fst (Store.checkpoints store));
  (* Second run: identical classifications out of the cache, which it
     reads without rewriting. *)
  let inode () = (Unix.stat gtr).Unix.st_ino in
  let ino = inode () in
  let db2 = Campaign.run ~stimulus ~golden_dir:dir cfg Gsim.gsim circuit faults in
  let dump db =
    let p = Filename.concat (temp_dir ()) "db.fdb" in
    Fault_db.save p db;
    In_channel.with_open_bin p In_channel.input_all
  in
  Alcotest.(check string) "cached campaign identical" (dump db1) (dump db2);
  Alcotest.(check int) "warm run leaves the golden model alone" ino (inode ());
  (* A [golden 1] directory — the older format: a keyframe per wanted
     cycle and no state or write log in the trace — is recomputed. *)
  let v1 =
    String.split_on_char '\n' (read_gtr ())
    |> List.filter (fun l ->
           List.exists
             (fun p -> String.starts_with ~prefix:p l)
             [ "design "; "config "; "horizon "; "observed "; "out "; "sample " ])
  in
  Store.write_atomic gtr (String.concat "\n" ("golden 1" :: v1) ^ "\n");
  let ck0 = Option.get (Store.find store 0) in
  List.iter (fun c -> ignore (Store.save store (Checkpoint.with_cycle ck0 c))) [ 10; 12; 30 ];
  let db1' = Campaign.run ~stimulus ~golden_dir:dir cfg Gsim.gsim circuit faults in
  Alcotest.(check string) "golden 1 recomputed, same classes" (dump db1) (dump db1');
  Alcotest.(check bool) "rewritten as golden 2" true
    (String.starts_with ~prefix:"golden 2\n" (read_gtr ()));
  Alcotest.(check (list int)) "golden 1 keyframes dropped" [ 0 ]
    (List.map fst (Store.checkpoints store));
  (* A different horizon invalidates the cache (no stale reuse). *)
  let db3 =
    Campaign.run ~stimulus ~golden_dir:dir { cfg with Campaign.horizon = 50 } Gsim.gsim
      circuit
      [ List.hd faults ]
  in
  Alcotest.(check int) "recomputed campaign still classifies" 1 (Fault_db.count db3);
  ignore count

(* --- CLI-level injection path (stuck key parsing) ------------------------ *)

let test_incident_text_robustness () =
  (* A bare "message" keyword line must not crash the parser. *)
  (match Incident.of_string "incident 1\nkind divergence\nwindow 0 1\nmessage\n" with
   | _ -> Alcotest.fail "bare message line accepted"
   | exception Failure msg -> Alcotest.(check bool) "rejected" true (contains msg "bad line"));
  (* Unknown header rejected. *)
  match Incident.of_string "not an incident\n" with
  | _ -> Alcotest.fail "bad header accepted"
  | exception Failure _ -> ()

let () =
  Alcotest.run "resilience"
    [
      ( "checkpoint-v2",
        [
          Alcotest.test_case "crc roundtrip" `Quick test_ck_crc_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_ck_corruption_detected;
          Alcotest.test_case "precise errors" `Quick test_ck_precise_errors;
          Alcotest.test_case "restore mismatch errors" `Quick test_ck_restore_mismatch_errors;
          Alcotest.test_case "lenient truncation" `Quick test_ck_lenient_truncation;
        ] );
      ( "store",
        [
          Alcotest.test_case "ring + corrupt fallback" `Quick test_store_ring_and_fallback;
          Alcotest.test_case "delta-chain recovery under corruption" `Quick
            test_store_delta_chain_recovery;
        ] );
      ( "resume",
        [
          Alcotest.test_case "equals uninterrupted (preset x backend)" `Slow
            test_resume_matrix;
          Alcotest.test_case "torn / corrupted delta chain" `Quick
            test_session_resume_torn_delta;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "seeded divergence detected + repro" `Quick test_divergence_detected;
          Alcotest.test_case "degraded session completes clean" `Quick test_degraded_completes_clean;
          Alcotest.test_case "transient divergence" `Quick test_transient_divergence;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "engine error" `Quick test_engine_error_degrades;
          Alcotest.test_case "watchdog" `Quick test_watchdog_degrades;
        ] );
      ( "campaign",
        [ Alcotest.test_case "golden-state reuse" `Quick test_campaign_golden_reuse ] );
      ( "incident",
        [ Alcotest.test_case "parser robustness" `Quick test_incident_text_robustness ] );
    ]
