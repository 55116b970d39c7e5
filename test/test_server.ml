(* gsimd: wire protocol, scheduler, plan cache, compile split, and the
   daemon end-to-end over a Unix socket. *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Checkpoint = Gsim_engine.Checkpoint
module Gsim = Gsim_core.Gsim
module Compile = Gsim_core.Gsim.Compile
module Store = Gsim_resilience.Store
module P = Gsim_server.Protocol
module Plan_cache = Gsim_server.Plan_cache
module Scheduler = Gsim_server.Scheduler
module Worker = Gsim_server.Worker
module Daemon = Gsim_server.Daemon
module Client = Gsim_server.Client

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsim-server-%d-%d" (Unix.getpid ()) !ctr)
    in
    Store.ensure_dir d;
    d

let gray_fir =
  "circuit Gray :\n\
  \  module Gray :\n\
  \    input clock : Clock\n\
  \    input reset : UInt<1>\n\
  \    input en : UInt<1>\n\
  \    output count : UInt<8>\n\
  \    output gray : UInt<8>\n\n\
  \    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n\
  \    when en :\n\
  \      r <= tail(add(r, UInt<8>(1)), 1)\n\
  \    count <= r\n\
  \    gray <= xor(r, shr(r, 1))\n"

let expect_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Protocol.Error" name
  | exception P.Error _ -> ()

(* --- frames -------------------------------------------------------------- *)

let test_frame_roundtrip () =
  let payload = "binary \x00\x01\xff payload\n with newlines\n" in
  let f = P.frame_to_string ~kind:0x41 payload in
  Alcotest.(check int) "frame size" (P.header_size + String.length payload)
    (String.length f);
  let k, p = P.frame_of_string f in
  Alcotest.(check int) "kind" 0x41 k;
  Alcotest.(check string) "payload" payload p

let test_frame_zero_length () =
  let f = P.frame_to_string ~kind:0x05 "" in
  Alcotest.(check int) "header only" P.header_size (String.length f);
  let k, p = P.frame_of_string f in
  Alcotest.(check int) "kind" 0x05 k;
  Alcotest.(check string) "empty" "" p

let test_frame_max_size () =
  let big = String.make P.max_payload 'x' in
  let k, p = P.frame_of_string (P.frame_to_string ~kind:2 big) in
  Alcotest.(check int) "kind" 2 k;
  Alcotest.(check int) "max payload survives" P.max_payload (String.length p);
  expect_error "over-max encode" (fun () ->
      P.frame_to_string ~kind:2 (String.make (P.max_payload + 1) 'x'))

let test_frame_truncated () =
  let f = P.frame_to_string ~kind:1 "some payload bytes" in
  List.iter
    (fun k ->
      expect_error
        (Printf.sprintf "truncated at %d" k)
        (fun () -> P.frame_of_string (String.sub f 0 k)))
    [ 0; 3; P.header_size - 1; P.header_size + 1; String.length f - 1 ]

let test_frame_bad_magic_version () =
  let f = Bytes.of_string (P.frame_to_string ~kind:1 "abc") in
  let corrupt i c =
    let b = Bytes.copy f in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (match P.frame_of_string (corrupt 0 'x') with
   | _ -> Alcotest.fail "bad magic accepted"
   | exception P.Error m ->
     Alcotest.(check bool) "magic diagnostic" true
       (String.length m >= 9 && String.sub m 0 9 = "bad magic"));
  (match P.frame_of_string (corrupt 4 '\x09') with
   | _ -> Alcotest.fail "bad version accepted"
   | exception P.Error m ->
     Alcotest.(check bool) "version diagnostic" true
       (String.length m >= 11 && String.sub m 0 11 = "unsupported"));
  (* An in-range header whose declared length exceeds the cap. *)
  let b = Bytes.copy f in
  Bytes.set b 6 '\x7f';
  Bytes.set b 7 '\xff';
  Bytes.set b 8 '\xff';
  Bytes.set b 9 '\xff';
  expect_error "oversize length field" (fun () ->
      P.frame_of_string (Bytes.to_string b))

(* --- request / response round-trips -------------------------------------- *)

let sample_opts =
  { P.eo_engine = "gsim"; eo_backend = "closures"; eo_level = Some "O2";
    eo_max_supernode = 12; eo_threads = 3 }

let sample_requests =
  [
    P.Sim
      ( P.Interactive,
        { P.sj_filename = "gray.fir"; sj_design = gray_fir; sj_opts = sample_opts;
          sj_cycles = 123; sj_pokes = [ "en=1"; "reset=0" ];
          sj_token = Some "cli-1-0.5"; sj_tenant = Some "alice"; sj_deadline = 2.5 } );
    P.Campaign
      ( P.Batch,
        { P.cj_filename = "gray.fir"; cj_design = gray_fir;
          cj_opts = P.default_engine_opts; cj_horizon = 40; cj_budget = 15;
          cj_faults = [ "seu:r:3@7" ]; cj_random = 8; cj_seed = 9; cj_duration = 2;
          cj_models = Some "seu,stuck0"; cj_pokes = [ "en=1" ]; cj_token = None;
          cj_tenant = None; cj_deadline = 0. } );
    P.Fuzz
      ( P.Batch,
        { P.fj_seed = 4; fj_cases = 25; fj_from = 25; fj_cycles = 64;
          fj_setups = Some "gsim+closures"; fj_token = None; fj_tenant = Some "ci";
          fj_deadline = 0. } );
    P.Coverage
      ( P.Interactive,
        { P.vj_filename = "gray.fir"; vj_design = gray_fir;
          vj_opts = P.default_engine_opts; vj_cycles = 77; vj_pokes = [];
          vj_token = Some "t"; vj_tenant = None; vj_deadline = 1.25 } );
    P.Status;
    P.Shutdown;
  ]

let sample_responses =
  [
    P.Sim_done
      { P.sr_engine = "gsim"; sr_cycles = 123; sr_halted = true;
        sr_outputs = [ ("count", "8'h2a"); ("gray", "8'h3f") ]; sr_cache_hit = true;
        sr_compile_seconds = 0.015625; sr_preemptions = 2 };
    P.Db_done
      { P.dr_kind = "fault"; dr_text = "line1\nline2\n"; dr_summary = "10 fault(s)";
        dr_cache_hit = false; dr_seconds = 1.5 };
    P.Status_ok
      { P.st_workers = 4; st_queued = 1; st_running = 2; st_completed = 33;
        st_rejected = 5; st_cache_entries = 3; st_cache_capacity = 16;
        st_cache_hits = 20; st_cache_misses = 13; st_cache_evictions = 1;
        st_golden_hits = 2; st_golden_misses = 3; st_preemptions = 7;
        st_uptime = 12.125; st_draining = false; st_retries = 4; st_hangs = 2;
        st_worker_crashes = 3; st_worker_restarts = 3; st_gave_up = 1;
        st_quarantined = 1; st_quarantine_trips = 2; st_chaos_injected = 5;
        st_shed = 6; st_over_budget = 2; st_deadline_expired = 1;
        st_tenants =
          [ { P.tn_tenant = "alice"; tn_submitted = 9; tn_completed = 7; tn_shed = 1;
              tn_expired = 1; tn_inflight = 0 };
            { P.tn_tenant = "bob"; tn_submitted = 3; tn_completed = 3; tn_shed = 0;
              tn_expired = 0; tn_inflight = 2 } ] };
    P.Shutting_down;
    P.Error_resp
      { P.ei_code = P.Queue_full;
        ei_message = "queue full (64 job(s) queued); retry later"; ei_attempts = 1;
        ei_retry_after = 0. };
    P.Error_resp
      { P.ei_code = P.Worker_lost; ei_message = "job failed after 4 attempt(s)";
        ei_attempts = 4; ei_retry_after = 0. };
    P.Error_resp
      { P.ei_code = P.Overloaded; ei_message = "daemon overloaded; retry later";
        ei_attempts = 1; ei_retry_after = 7.5 };
    P.Error_resp
      { P.ei_code = P.Over_budget;
        ei_message = "estimated 300000 node(s) exceeds the daemon budget 200000";
        ei_attempts = 1; ei_retry_after = 0. };
    P.Error_resp
      { P.ei_code = P.Deadline_exceeded; ei_message = "deadline exceeded after 40 cycle(s)";
        ei_attempts = 1; ei_retry_after = 0. };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true
        (P.decode_request (P.encode_request r) = r))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "response round-trips" true
        (P.decode_response (P.encode_response r) = r))
    sample_responses

let test_channel_io () =
  let path = Filename.temp_file "gsim_proto" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  List.iter (P.write_request oc) sample_requests;
  close_out oc;
  let ic = open_in_bin path in
  List.iter
    (fun expected ->
      match P.read_request ic with
      | Some got -> Alcotest.(check bool) "stream request" true (got = expected)
      | None -> Alcotest.fail "premature EOF")
    sample_requests;
  Alcotest.(check bool) "clean EOF is None" true (P.read_request ic = None);
  close_in ic;
  (* EOF mid-frame is an error, not None. *)
  let oc = open_out_bin path in
  let whole = P.encode_request P.Status in
  output_string oc (String.sub whole 0 (String.length whole - 1));
  close_out oc;
  let ic = open_in_bin path in
  expect_error "mid-frame EOF" (fun () -> P.read_request ic);
  close_in ic

let test_address_parse () =
  Alcotest.(check bool) "tcp" true
    (P.address_of_string "localhost:9900" = P.Tcp ("localhost", 9900));
  Alcotest.(check bool) "unix path" true
    (P.address_of_string "/tmp/gsimd.sock" = P.Unix_sock "/tmp/gsimd.sock");
  Alcotest.(check bool) "relative unix path" true
    (P.address_of_string "gsimd.sock" = P.Unix_sock "gsimd.sock");
  List.iter
    (fun a ->
      Alcotest.(check bool) "address round-trips" true
        (P.address_of_string (P.address_to_string a) = a))
    [ P.Unix_sock "x/y.sock"; P.Tcp ("127.0.0.1", 1234) ]

(* --- scheduler ------------------------------------------------------------ *)

let accepted = function Scheduler.Accepted -> true | _ -> false

let test_scheduler_priority () =
  let s = Scheduler.create ~capacity:8 () in
  Alcotest.(check bool) "b1" true (accepted (Scheduler.submit s ~priority:1 "b1"));
  Alcotest.(check bool) "b2" true (accepted (Scheduler.submit s ~priority:1 "b2"));
  Alcotest.(check bool) "i1" true (accepted (Scheduler.submit s ~priority:0 "i1"));
  Alcotest.(check int) "queued" 3 (Scheduler.queued s);
  Alcotest.(check bool) "higher than batch" true (Scheduler.higher_waiting s ~than:1);
  Alcotest.(check bool) "nothing above interactive" false
    (Scheduler.higher_waiting s ~than:0);
  (* Interactive first, then batch in FIFO order. *)
  Alcotest.(check (option string)) "take i1" (Some "i1") (Scheduler.take s);
  Alcotest.(check (option string)) "take b1" (Some "b1") (Scheduler.take s);
  Alcotest.(check (option string)) "take b2" (Some "b2") (Scheduler.take s)

let test_scheduler_bound_and_drain () =
  let s = Scheduler.create ~capacity:2 () in
  Alcotest.(check bool) "1 fits" true (accepted (Scheduler.submit s ~priority:1 1));
  Alcotest.(check bool) "2 fits" true (accepted (Scheduler.submit s ~priority:0 2));
  Alcotest.(check bool) "3 refused (full)" true
    (Scheduler.submit s ~priority:0 3 = Scheduler.Rejected_full);
  (* Requeue ignores the bound: a preempted job must be re-admitted. *)
  Scheduler.requeue s ~priority:1 4;
  Alcotest.(check int) "requeue over bound" 3 (Scheduler.queued s);
  Scheduler.drain s;
  Alcotest.(check bool) "draining" true (Scheduler.draining s);
  Alcotest.(check bool) "submit refused while draining" true
    (Scheduler.submit s ~priority:0 5 = Scheduler.Rejected_full);
  Alcotest.(check (option int)) "backlog survives drain" (Some 2) (Scheduler.take s);
  Alcotest.(check (option int)) "fifo" (Some 1) (Scheduler.take s);
  Alcotest.(check (option int)) "requeued job drains too" (Some 4) (Scheduler.take s);
  Alcotest.(check (option int)) "empty+draining is None" None (Scheduler.take s)

(* --- plan cache ----------------------------------------------------------- *)

let test_plan_cache_lru () =
  let c = Plan_cache.create ~capacity:2 () in
  Alcotest.(check (option int)) "initial miss" None (Plan_cache.find c "a");
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Plan_cache.find c "a");
  (* "b" is now least recent; adding "c" evicts it. *)
  Plan_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Plan_cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Plan_cache.find c "c");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "entries" 2 s.Plan_cache.entries;
  Alcotest.(check int) "hits" 3 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 2 s.Plan_cache.misses;
  Alcotest.(check int) "evictions" 1 s.Plan_cache.evictions

let test_plan_cache_disabled () =
  let c = Plan_cache.create ~capacity:0 () in
  Plan_cache.add c "a" 1;
  Alcotest.(check (option int)) "always misses" None (Plan_cache.find c "a");
  Alcotest.(check int) "no entries" 0 (Plan_cache.stats c).Plan_cache.entries

(* --- Compile split -------------------------------------------------------- *)

let gsim_config () =
  Gsim.config_of_names ~engine:"gsim" ~threads:1 ~level:None ~max_supernode:0
    ~backend:"closures"

let run_outputs compiled cycles pokes =
  let sim = compiled.Gsim.sim in
  let circuit = sim.Sim.circuit in
  List.iter
    (fun (name, v) ->
      match Circuit.find_node circuit name with
      | Some n -> sim.Sim.poke n.Circuit.id (Bits.of_int ~width:n.Circuit.width v)
      | None -> Alcotest.failf "no input %s" name)
    pokes;
  for _ = 1 to cycles do
    sim.Sim.step ()
  done;
  Circuit.outputs circuit
  |> List.map (fun (n : Circuit.node) ->
         (n.Circuit.name, Format.asprintf "%a" Bits.pp (sim.Sim.peek n.Circuit.id)))

let test_compile_hash_stable () =
  let s1 = Compile.source_of_string ~filename:"gray.fir" gray_fir in
  let s2 = Compile.source_of_string ~filename:"gray.fir" gray_fir in
  Alcotest.(check string) "hash is deterministic" s1.Compile.hash s2.Compile.hash;
  (* Reformatting that does not change the circuit keeps the hash: the
     hash covers the canonical IR text, not the input bytes. *)
  let s3 =
    Compile.source_of_string ~filename:"gray.fir"
      (String.concat "\n" (String.split_on_char '\n' gray_fir) ^ "\n")
  in
  Alcotest.(check string) "whitespace-stable" s1.Compile.hash s3.Compile.hash;
  Alcotest.(check int) "md5 hex" 32 (String.length s1.Compile.hash)

let test_compile_matches_instantiate () =
  let config = gsim_config () in
  let source = Compile.source_of_string ~filename:"gray.fir" gray_fir in
  let plan = Compile.prepare config source in
  let via_plan = Compile.realize plan in
  let direct = Gsim.instantiate config source.Compile.circuit in
  let pokes = [ ("en", 1) ] in
  let a = run_outputs via_plan 37 pokes in
  let b = run_outputs direct 37 pokes in
  via_plan.Gsim.destroy ();
  direct.Gsim.destroy ();
  Alcotest.(check bool) "plan path matches direct instantiation" true (a = b)

let test_plan_shared_across_instances () =
  let config = gsim_config () in
  let source = Compile.source_of_string ~filename:"gray.fir" gray_fir in
  let plan = Compile.prepare config source in
  (* One prepared plan backs several concurrent engine instances. *)
  let c1 = Compile.realize plan and c2 = Compile.realize plan in
  let a = run_outputs c1 20 [ ("en", 1) ] in
  let b = run_outputs c2 50 [ ("en", 1) ] in
  let b' = run_outputs c1 30 [] in
  (* c1 continued 30 more cycles with en still driven = 50 total. *)
  c1.Gsim.destroy ();
  c2.Gsim.destroy ();
  Alcotest.(check bool) "instances are independent" true (a <> b);
  Alcotest.(check bool) "same plan, same trajectory" true (b = b')

(* --- worker preemption: checkpoint/resume identity ------------------------ *)

let test_preemption_identity () =
  let spool = temp_dir () in
  let sched = Scheduler.create () in
  let ctx =
    { Worker.cache = Plan_cache.create (); sched; spool; preempt_stride = 10;
      log = ignore; chaos = Gsim_server.Chaos.off; preemption_count = Atomic.make 0;
      golden_hits = Atomic.make 0; golden_misses = Atomic.make 0 }
  in
  let sj =
    { P.sj_filename = "gray.fir"; sj_design = gray_fir;
      sj_opts = P.default_engine_opts; sj_cycles = 95; sj_pokes = [ "en=1" ];
      sj_token = None; sj_tenant = None; sj_deadline = 0. }
  in
  let job =
    Worker.make_job ~id:1 ~priority:1
      (P.Sim (P.Batch, sj))
  in
  (* Higher-priority work is already waiting, so the batch job yields at
     its first 10-cycle stride — repeatedly, as long as we keep the
     interactive queue non-empty. *)
  let interactive =
    Worker.make_job ~id:2 ~priority:0 (P.Sim (P.Interactive, sj))
  in
  Alcotest.(check bool) "queue interactive" true
    (accepted (Scheduler.submit sched ~priority:0 interactive));
  (match Worker.execute ctx job with
   | Worker.Yielded -> ()
   | Worker.Done _ | Worker.Abandoned ->
     Alcotest.fail "expected a yield with higher work waiting");
  Alcotest.(check int) "progress = one stride" 10 job.Worker.done_cycles;
  Alcotest.(check bool) "checkpoint captured" true (job.Worker.ck <> None);
  (* Run the interactive job (drains the higher level), then resume. *)
  ignore (Scheduler.take sched);
  (match Worker.execute ctx interactive with
   | Worker.Done (P.Sim_done r) ->
     Alcotest.(check int) "interactive never yields" 0 r.P.sr_preemptions
   | _ -> Alcotest.fail "interactive job failed");
  (match Worker.execute ctx job with
   | Worker.Done (P.Sim_done r) ->
     Alcotest.(check int) "full run length" 95 r.P.sr_cycles;
     Alcotest.(check int) "one preemption" 1 r.P.sr_preemptions;
     (* The interrupted run must equal an uninterrupted one. *)
     let uj =
       Worker.make_job ~id:3 ~priority:0 (P.Sim (P.Interactive, sj))
     in
     (match Worker.execute ctx uj with
      | Worker.Done (P.Sim_done u) ->
        Alcotest.(check bool) "outputs identical to uninterrupted run" true
          (r.P.sr_outputs = u.P.sr_outputs)
      | _ -> Alcotest.fail "uninterrupted run failed")
   | _ -> Alcotest.fail "resumed job failed");
  Alcotest.(check int) "preemption counter" 1 (Atomic.get ctx.Worker.preemption_count)

(* --- worker spool ring: delta chain, resume after a lost daemon ----------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_worker_spool_resume () =
  let spool = temp_dir () in
  let sched = Scheduler.create () in
  let logs = ref [] in
  let ctx =
    { Worker.cache = Plan_cache.create (); sched; spool; preempt_stride = 10;
      log = (fun l -> logs := l :: !logs); chaos = Gsim_server.Chaos.off;
      preemption_count = Atomic.make 0; golden_hits = Atomic.make 0;
      golden_misses = Atomic.make 0 }
  in
  let sj =
    { P.sj_filename = "gray.fir"; sj_design = gray_fir;
      sj_opts = P.default_engine_opts; sj_cycles = 95; sj_pokes = [ "en=1" ];
      sj_token = None; sj_tenant = None; sj_deadline = 0. }
  in
  let expected =
    let uj =
      Worker.make_job ~id:99 ~priority:0 (P.Sim (P.Interactive, sj))
    in
    match Worker.execute ctx uj with
    | Worker.Done (P.Sim_done u) -> u.P.sr_outputs
    | _ -> Alcotest.fail "uninterrupted run failed"
  in
  (* Yield a batch job three times (interactive work keeps waiting), so
     the spool ring holds a keyframe and a two-delta chain. *)
  let build_chain id =
    let interactive =
      Worker.make_job ~id:(50 + id) ~priority:0 (P.Sim (P.Interactive, sj))
    in
    Alcotest.(check bool) "queue interactive" true
      (accepted (Scheduler.submit sched ~priority:0 interactive));
    let job =
      Worker.make_job ~id ~priority:1 (P.Sim (P.Batch, sj))
    in
    for _ = 1 to 3 do
      match Worker.execute ctx job with
      | Worker.Yielded -> ()
      | Worker.Done _ | Worker.Abandoned -> Alcotest.fail "expected a yield"
    done;
    ignore (Scheduler.take sched);
    Alcotest.(check int) "three strides done" 30 job.Worker.done_cycles;
    Filename.concat spool (Printf.sprintf "sim-job-%03d" id)
  in
  let dir = build_chain 1 in
  let gens =
    List.map (fun (c, _, kind) -> (c, kind)) (Store.generations (Store.create dir))
  in
  Alcotest.(check bool) "keyframe then two chained deltas" true
    (gens = [ (10, `Full); (20, `Delta); (30, `Delta) ]);
  (* The daemon died: a fresh job record (no in-memory checkpoint) marked
     [recovered] must resume from the on-disk chain, not cycle 0. *)
  let resume id expect_cycle =
    let rj =
      Worker.make_job ~id ~priority:1
        (P.Sim (P.Batch, sj))
    in
    rj.Worker.recovered <- true;
    (match Worker.execute ctx rj with
     | Worker.Done (P.Sim_done r) ->
       Alcotest.(check int) "full run length" 95 r.P.sr_cycles;
       Alcotest.(check bool) "outputs identical to uninterrupted run" true
         (r.P.sr_outputs = expected)
     | _ -> Alcotest.fail "recovered job failed");
    Alcotest.(check bool)
      (Printf.sprintf "resumed at cycle %d" expect_cycle)
      true
      (List.exists
         (fun l -> contains l (Printf.sprintf "at cycle %d" expect_cycle))
         !logs)
  in
  resume 1 30;
  Alcotest.(check bool) "ring retired on completion" false (Sys.file_exists dir);
  (* Torn final write: truncate the newest delta mid-file.  Its chain
     link breaks, so recovery must land one generation back — and still
     finish with identical outputs. *)
  let dir = build_chain 2 in
  let tip =
    match List.rev (Store.generations (Store.create dir)) with
    | (30, path, `Delta) :: _ -> path
    | _ -> Alcotest.fail "expected a delta tip at cycle 30"
  in
  let whole = In_channel.with_open_bin tip In_channel.input_all in
  Out_channel.with_open_bin tip (fun oc ->
      Out_channel.output_string oc (String.sub whole 0 (String.length whole / 2)));
  logs := [];
  resume 2 20

(* --- daemon end-to-end ---------------------------------------------------- *)

let start_daemon ?(workers = 2) ?(cache = 16) ?stride ?dir ?log_path () =
  let dir = match dir with Some d -> d | None -> temp_dir () in
  let sock = Filename.concat dir "gsimd.sock" in
  let devnull =
    match log_path with Some p -> open_out p | None -> open_out "/dev/null"
  in
  let dflt = Daemon.default_config (P.Unix_sock sock) in
  let cfg =
    { dflt with
      Daemon.workers; cache_capacity = cache; spool = Some (Filename.concat dir "spool");
      preempt_stride = (match stride with Some s -> s | None -> dflt.Daemon.preempt_stride);
      log = devnull }
  in
  let t = Thread.create (fun () -> Daemon.serve cfg) () in
  let rec wait n =
    if not (Sys.file_exists sock) then
      if n = 0 then Alcotest.fail "daemon did not come up"
      else begin
        Unix.sleepf 0.01;
        wait (n - 1)
      end
  in
  wait 500;
  (P.Unix_sock sock, sock, t, devnull)

let stop_daemon (address, sock, t, devnull) =
  (match Client.with_connection address (fun c -> Client.call c P.Shutdown) with
   | P.Shutting_down -> ()
   | _ -> Alcotest.fail "shutdown not acknowledged");
  Thread.join t;
  close_out devnull;
  Alcotest.(check bool) "socket removed on drain" false (Sys.file_exists sock)

let test_daemon_concurrent_clients () =
  let ((address, _, _, _) as d) = start_daemon () in
  let sj cycles =
    { P.sj_filename = "gray.fir"; sj_design = gray_fir;
      sj_opts = P.default_engine_opts; sj_cycles = cycles; sj_pokes = [ "en=1" ];
      sj_token = None; sj_tenant = None; sj_deadline = 0. }
  in
  (* The local truth each remote answer must match. *)
  let local cycles =
    let source = Compile.source_of_string ~filename:"gray.fir" gray_fir in
    let compiled = Compile.realize (Compile.prepare (gsim_config ()) source) in
    let out = run_outputs compiled cycles [ ("en", 1) ] in
    compiled.Gsim.destroy ();
    out
  in
  let results = Array.make 2 None in
  let client slot cycles () =
    results.(slot) <-
      Some (Client.with_connection address (fun c ->
                Client.call c (P.Sim (P.Interactive, sj cycles))))
  in
  let t1 = Thread.create (client 0 40) () in
  let t2 = Thread.create (client 1 70) () in
  Thread.join t1;
  Thread.join t2;
  let check slot cycles =
    match results.(slot) with
    | Some (P.Sim_done r) ->
      Alcotest.(check int) "cycles" cycles r.P.sr_cycles;
      Alcotest.(check bool) "matches local gsim sim" true
        (r.P.sr_outputs = local cycles)
    | _ -> Alcotest.failf "client %d failed" slot
  in
  check 0 40;
  check 1 70;
  (* Same design, same config: by now the plan must be cached. *)
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Interactive, sj 10)))
   with
   | P.Sim_done r -> Alcotest.(check bool) "third request hits the cache" true r.P.sr_cache_hit
   | _ -> Alcotest.fail "third request failed");
  (match Client.with_connection address (fun c -> Client.call c P.Status) with
   | P.Status_ok s ->
     Alcotest.(check int) "three jobs completed" 3 s.P.st_completed;
     Alcotest.(check bool) "cache hits counted" true (s.P.st_cache_hits >= 1);
     Alcotest.(check bool) "not draining" false s.P.st_draining
   | _ -> Alcotest.fail "status failed");
  stop_daemon d

let test_daemon_bad_job () =
  let ((address, _, _, _) as d) = start_daemon () in
  let bad =
    { P.sj_filename = "nope.fir"; sj_design = "circuit Broken :\n  module Missing :\n";
      sj_opts = P.default_engine_opts; sj_cycles = 5; sj_pokes = []; sj_token = None;
      sj_tenant = None; sj_deadline = 0. }
  in
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Interactive, bad)))
   with
   | P.Error_resp _ -> ()
   | _ -> Alcotest.fail "broken design must produce Error_resp");
  (* The daemon survives a failed job. *)
  (match Client.with_connection address (fun c -> Client.call c P.Status) with
   | P.Status_ok s -> Alcotest.(check int) "failed job still completes" 1 s.P.st_completed
   | _ -> Alcotest.fail "status after failure");
  stop_daemon d

(* A peer still naming the retired bytecode backend (in engine options or
   in fuzz setup names) is refused before queueing, with a structured
   code and the list of valid backends; the daemon keeps serving. *)
let test_daemon_refuses_unknown_backend () =
  let ((address, _, _, _) as d) = start_daemon () in
  let call req = Client.with_connection address (fun c -> Client.call c req) in
  let sim backend =
    P.Sim
      ( P.Interactive,
        { P.sj_filename = "gray.fir"; sj_design = gray_fir;
          sj_opts = { P.default_engine_opts with P.eo_backend = backend }; sj_cycles = 5;
          sj_pokes = [ "en=1" ]; sj_token = None; sj_tenant = None; sj_deadline = 0. } )
  in
  let fuzz =
    P.Fuzz
      ( P.Batch,
        { P.fj_seed = 1; fj_cases = 1; fj_from = 0; fj_cycles = 8;
          fj_setups = Some "gsim+bytecode"; fj_token = None; fj_tenant = None;
          fj_deadline = 0. } )
  in
  List.iter
    (fun (what, req) ->
      match call req with
      | P.Error_resp e ->
        Alcotest.(check string)
          (what ^ ": structured code") "protocol"
          (P.error_code_to_string e.P.ei_code);
        Alcotest.(check bool)
          (what ^ ": lists the valid backends: " ^ e.P.ei_message) true
          (contains e.P.ei_message "auto, native, or closures")
      | _ -> Alcotest.failf "%s: a bytecode job must be refused" what)
    [ ("sim", sim "bytecode"); ("fuzz", fuzz) ];
  (match call (sim "closures") with
   | P.Sim_done r -> Alcotest.(check int) "valid job still runs" 5 r.P.sr_cycles
   | _ -> Alcotest.fail "closures job failed after the refusals");
  (match call P.Status with
   | P.Status_ok s -> Alcotest.(check int) "refused jobs never ran" 1 s.P.st_completed
   | _ -> Alcotest.fail "status failed");
  stop_daemon d

(* --- daemon restart: persisted batch jobs are re-admitted ----------------- *)

let test_daemon_restart_readmits () =
  let dir = temp_dir () in
  let spool = Filename.concat dir "spool" in
  let jobs_dir = Filename.concat spool "jobs" in
  Store.ensure_dir jobs_dir;
  let sj cycles =
    { P.sj_filename = "gray.fir"; sj_design = gray_fir;
      sj_opts = P.default_engine_opts; sj_cycles = cycles; sj_pokes = [ "en=1" ];
      sj_token = None; sj_tenant = None; sj_deadline = 0. }
  in
  (* Everything a SIGKILLed daemon leaves behind: the persisted batch
     request, a preemption spool ring (keyframe at cycle 20, delta at
     30), and one unreadable leftover whose id must still be retired. *)
  let job7 = Filename.concat jobs_dir "job-000007.gjb" in
  Store.write_atomic job7 (P.encode_request (P.Sim (P.Batch, sj 60)));
  let job9 = Filename.concat jobs_dir "job-000009.gjb" in
  Store.write_atomic job9 "not a protocol frame";
  let ring = Filename.concat spool "sim-job-007" in
  let () =
    let source = Compile.source_of_string ~filename:"gray.fir" gray_fir in
    let compiled = Compile.realize (Compile.prepare (gsim_config ()) source) in
    let sim = compiled.Gsim.sim in
    (match Circuit.find_node sim.Sim.circuit "en" with
     | Some n -> sim.Sim.poke n.Circuit.id (Bits.of_int ~width:1 1)
     | None -> Alcotest.fail "no en input");
    for _ = 1 to 20 do sim.Sim.step () done;
    let ck20 = Checkpoint.with_cycle (Checkpoint.capture sim) 20 in
    for _ = 1 to 10 do sim.Sim.step () done;
    let ck30 = Checkpoint.with_cycle (Checkpoint.capture sim) 30 in
    compiled.Gsim.destroy ();
    let store = Store.create ring in
    let _, crc = Store.save_keyframe store ck20 in
    ignore (Store.save_delta store (Checkpoint.delta_of ~base:ck20 ~base_crc:crc ck30))
  in
  let log_path = Filename.concat dir "daemon.log" in
  let ((address, _, _, _) as d) = start_daemon ~dir ~log_path () in
  (* The recovered job runs with no client attached; wait for it. *)
  let rec poll n =
    if n = 0 then Alcotest.fail "recovered job never completed";
    match Client.with_connection address (fun c -> Client.call c P.Status) with
    | P.Status_ok s when s.P.st_completed >= 1 -> ()
    | _ ->
      Unix.sleepf 0.02;
      poll (n - 1)
  in
  poll 500;
  Alcotest.(check bool) "request file retired on completion" false
    (Sys.file_exists job7);
  Alcotest.(check bool) "unreadable job file dropped" false (Sys.file_exists job9);
  Alcotest.(check bool) "spool ring retired on completion" false
    (Sys.file_exists ring);
  (* New submissions must be numbered above every scanned id (9 was the
     max), even the undecodable one. *)
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Batch, sj 40)))
   with
   | P.Sim_done r -> Alcotest.(check int) "new job runs" 40 r.P.sr_cycles
   | _ -> Alcotest.fail "post-restart submission failed");
  stop_daemon d;
  let log = In_channel.with_open_bin log_path In_channel.input_all in
  Alcotest.(check bool) "boot re-admitted job 7" true
    (contains log "re-admitted interrupted job 7");
  Alcotest.(check bool) "resume came from the delta tip" true
    (contains log "job 7: resumed from spooled delta-000000000030.gcd at cycle 30");
  Alcotest.(check bool) "recovered job completed" true
    (contains log "recovered job 7 completed");
  Alcotest.(check bool) "ids continue above the scan" true
    (contains log "job 10 queued")

(* --- drain waits for worker acks ------------------------------------------ *)

(* Regression: a drain must wait on worker acknowledgements (busy
   supervisor slots), not on queue emptiness.  A preempted batch job
   lives in a worker's hands while the queue is momentarily empty; a
   drain keyed on the queue could stop the pool and lose it.  Here a
   batch job is forced to yield repeatedly (tiny stride, interactive
   traffic) while a shutdown lands mid-flight — both clients must still
   get correct responses. *)
let test_drain_waits_for_inflight () =
  let ((address, _, _, _) as d) = start_daemon ~workers:1 ~stride:500 () in
  let sj cycles =
    { P.sj_filename = "gray.fir"; sj_design = gray_fir;
      sj_opts = P.default_engine_opts; sj_cycles = cycles; sj_pokes = [ "en=1" ];
      sj_token = None; sj_tenant = None; sj_deadline = 0. }
  in
  let batch_cycles = 400_000 in
  let batch_result = ref None in
  let t_batch =
    Thread.create
      (fun () ->
        batch_result :=
          Some (Client.with_connection address (fun c ->
                    Client.call c (P.Sim (P.Batch, sj batch_cycles)))))
      ()
  in
  Unix.sleepf 0.05;
  let inter_result = ref None in
  let t_inter =
    Thread.create
      (fun () ->
        inter_result :=
          Some (Client.with_connection address (fun c ->
                    Client.call c (P.Sim (P.Interactive, sj 20)))))
      ()
  in
  Unix.sleepf 0.02;
  (* Shutdown while the batch job is (very likely) mid-flight. *)
  stop_daemon d;
  Thread.join t_batch;
  Thread.join t_inter;
  (match !inter_result with
   | Some (P.Sim_done r) -> Alcotest.(check int) "interactive cycles" 20 r.P.sr_cycles
   | _ -> Alcotest.fail "interactive job lost in the drain");
  match !batch_result with
  | Some (P.Sim_done r) ->
    Alcotest.(check int) "batch ran to completion through the drain" batch_cycles
      r.P.sr_cycles
  | Some (P.Error_resp e) -> Alcotest.failf "batch job failed: %s" e.P.ei_message
  | _ -> Alcotest.fail "batch job lost in the drain"

(* --- Store SIGTERM cleanup ------------------------------------------------ *)

let test_store_sigterm_cleanup () =
  let dir = temp_dir () in
  let tracked = Filename.concat dir "tracked.tmp" in
  match Unix.fork () with
  | 0 ->
    (* Child: create and track a temp file, then wait to be killed. *)
    let oc = open_out tracked in
    output_string oc "scratch";
    close_out oc;
    Store.track_tmp tracked;
    (try
       while true do
         Unix.sleepf 0.05
       done
     with _ -> ());
    Stdlib.exit 0
  | pid ->
    let rec wait_file n =
      if not (Sys.file_exists tracked) then
        if n = 0 then Alcotest.fail "child never created the file"
        else begin
          Unix.sleepf 0.01;
          wait_file (n - 1)
        end
    in
    wait_file 500;
    Unix.sleepf 0.05;
    Unix.kill pid Sys.sigterm;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED code ->
       Alcotest.(check int) "SIGTERM handler exits 143" 143 code
     | _ -> Alcotest.fail "child did not exit normally");
    Alcotest.(check bool) "tracked temp file removed on SIGTERM" false
      (Sys.file_exists tracked)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "zero-length frame" `Quick test_frame_zero_length;
          Alcotest.test_case "max-size frame" `Quick test_frame_max_size;
          Alcotest.test_case "truncated frames rejected" `Quick test_frame_truncated;
          Alcotest.test_case "bad magic/version rejected" `Quick
            test_frame_bad_magic_version;
          Alcotest.test_case "requests round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "responses round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "channel stream io" `Quick test_channel_io;
          Alcotest.test_case "address parsing" `Quick test_address_parse;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "priority order" `Quick test_scheduler_priority;
          Alcotest.test_case "bound and drain" `Quick test_scheduler_bound_and_drain;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_plan_cache_lru;
          Alcotest.test_case "capacity 0 disables" `Quick test_plan_cache_disabled;
        ] );
      ( "compile",
        [
          Alcotest.test_case "hash stability" `Quick test_compile_hash_stable;
          Alcotest.test_case "plan matches instantiate" `Quick
            test_compile_matches_instantiate;
          Alcotest.test_case "plan shared across instances" `Quick
            test_plan_shared_across_instances;
        ] );
      ( "worker",
        [
          Alcotest.test_case "preemption identity" `Quick test_preemption_identity;
          Alcotest.test_case "spool ring delta-chain resume" `Quick
            test_worker_spool_resume;
        ] );
      (* Must precede the daemon suite: Unix.fork is illegal once any
         Domain has been spawned, and Daemon.serve spawns its pool. *)
      ( "store",
        [ Alcotest.test_case "sigterm cleanup" `Quick test_store_sigterm_cleanup ] );
      ( "daemon",
        [
          Alcotest.test_case "two concurrent clients" `Quick
            test_daemon_concurrent_clients;
          Alcotest.test_case "bad job is an error, not a crash" `Quick
            test_daemon_bad_job;
          Alcotest.test_case "retired backend refused with valid names" `Quick
            test_daemon_refuses_unknown_backend;
          Alcotest.test_case "restart re-admits persisted batch jobs" `Quick
            test_daemon_restart_readmits;
          Alcotest.test_case "drain waits for in-flight worker acks" `Quick
            test_drain_waits_for_inflight;
        ] );
    ]
