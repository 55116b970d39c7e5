(* Overload protection: DRR fairness, per-tenant quotas, admission cost
   estimation, end-to-end deadlines, and brownout under a chaos-driven
   compute stall — the daemon must keep answering when clients misbehave. *)

module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Gsim = Gsim_core.Gsim
module Compile = Gsim_core.Gsim.Compile
module Store = Gsim_resilience.Store
module P = Gsim_server.Protocol
module Admission = Gsim_server.Admission
module Scheduler = Gsim_server.Scheduler
module Chaos = Gsim_server.Chaos
module Daemon = Gsim_server.Daemon
module Client = Gsim_server.Client

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsim-overload-%d-%d" (Unix.getpid ()) !ctr)
    in
    Store.ensure_dir d;
    d

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

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

(* --- scheduler: deficit-round-robin fairness ------------------------------ *)

let test_drr_two_tenants_split () =
  let s = Scheduler.create ~capacity:64 () in
  (* Alice floods first, Bob trickles in after: arrival order must not
     matter — DRR serves one job per tenant per ring visit. *)
  for i = 1 to 10 do
    Alcotest.(check bool) "alice accepted" true
      (Scheduler.submit s ~priority:1 ~tenant:"alice" (Printf.sprintf "a%d" i)
       = Scheduler.Accepted)
  done;
  for i = 1 to 10 do
    Alcotest.(check bool) "bob accepted" true
      (Scheduler.submit s ~priority:1 ~tenant:"bob" (Printf.sprintf "b%d" i)
       = Scheduler.Accepted)
  done;
  (* Drain the first 10: under saturation each tenant gets ~half. *)
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 10 do
    match Scheduler.take s with
    | Some x -> if x.[0] = 'a' then incr a else incr b
    | None -> Alcotest.fail "queue emptied early"
  done;
  Alcotest.(check int) "alice half" 5 !a;
  Alcotest.(check int) "bob half" 5 !b;
  (* Within a tenant, FIFO order is preserved. *)
  Alcotest.(check int) "nothing lost" 10 (Scheduler.queued s)

let test_drr_weights_and_cost () =
  let s = Scheduler.create ~capacity:64 () in
  (* Heavy jobs (cost 2) against unit jobs at equal weight: the costly
     tenant is dispatched half as often. *)
  for i = 1 to 8 do
    ignore (Scheduler.submit s ~priority:1 ~tenant:"cheap" ~cost:1 (Printf.sprintf "c%d" i));
    ignore (Scheduler.submit s ~priority:1 ~tenant:"dear" ~cost:2 (Printf.sprintf "d%d" i))
  done;
  let c = ref 0 and d = ref 0 in
  for _ = 1 to 9 do
    match Scheduler.take s with
    | Some x -> if x.[0] = 'c' then incr c else incr d
    | None -> Alcotest.fail "queue emptied early"
  done;
  Alcotest.(check bool) "cheap tenant dispatched ~2x"
    true (!c >= 2 * !d - 1);
  (* A weight-2 tenant earns double credit and keeps pace with unit cost. *)
  let s2 = Scheduler.create ~capacity:64 () in
  for i = 1 to 6 do
    ignore (Scheduler.submit s2 ~priority:1 ~tenant:"vip" ~weight:2 ~cost:2
              (Printf.sprintf "v%d" i));
    ignore (Scheduler.submit s2 ~priority:1 ~tenant:"std" ~cost:2 (Printf.sprintf "s%d" i))
  done;
  let v = ref 0 and st = ref 0 in
  for _ = 1 to 6 do
    match Scheduler.take s2 with
    | Some x -> if x.[0] = 'v' then incr v else incr st
    | None -> Alcotest.fail "queue emptied early"
  done;
  Alcotest.(check bool) "weighted tenant keeps pace" true (!v >= !st)

let test_tenant_quota () =
  let s = Scheduler.create ~capacity:8 ~tenant_quota:2 () in
  Alcotest.(check bool) "greedy 1" true
    (Scheduler.submit s ~priority:1 ~tenant:"greedy" 1 = Scheduler.Accepted);
  Alcotest.(check bool) "greedy 2" true
    (Scheduler.submit s ~priority:1 ~tenant:"greedy" 2 = Scheduler.Accepted);
  Alcotest.(check bool) "greedy 3 over quota" true
    (Scheduler.submit s ~priority:1 ~tenant:"greedy" 3 = Scheduler.Rejected_quota);
  (* Another tenant is unaffected by greedy's quota. *)
  Alcotest.(check bool) "polite proceeds" true
    (Scheduler.submit s ~priority:1 ~tenant:"polite" 4 = Scheduler.Accepted);
  Alcotest.(check int) "greedy depth" 2 (Scheduler.queued_for s "greedy");
  Alcotest.(check bool) "tenants listed" true
    (Scheduler.tenants s = [ ("greedy", 2); ("polite", 1) ]);
  (* Requeue (preempted work) bypasses the quota. *)
  Scheduler.requeue s ~priority:1 ~tenant:"greedy" 5;
  Alcotest.(check int) "requeue over quota" 3 (Scheduler.queued_for s "greedy")

(* --- admission estimation -------------------------------------------------- *)

let parse_fir text =
  (Compile.source_of_string ~filename:"adm.fir" text).Compile.circuit

let test_admission_estimate_and_check () =
  let c = parse_fir gray_fir in
  let e = Admission.estimate c in
  Alcotest.(check bool) "nodes counted" true (e.Admission.est_nodes > 0);
  Alcotest.(check bool) "width seen" true (e.Admission.est_max_width >= 8);
  Alcotest.(check bool) "arena covers nodes" true
    (e.Admission.est_arena_bytes >= e.Admission.est_nodes * 8);
  Alcotest.(check bool) "unlimited passes" true
    (Admission.check Admission.unlimited e = Ok ());
  Alcotest.(check bool) "unlimited is not limited" false
    (Admission.limited Admission.unlimited);
  (* A one-node budget must refuse and name the limit. *)
  let b = { Admission.unlimited with Admission.max_nodes = 1 } in
  (match Admission.check b e with
   | Error msg ->
     Alcotest.(check bool) "names the budget" true
       (contains msg "exceeds the daemon budget")
   | Ok () -> Alcotest.fail "over-budget estimate accepted");
  (* Spec string round-trips through parse/print. *)
  let spec = "nodes=200000,width=4096,mem-mb=256,arena-mb=512,native-nodes=100000" in
  let parsed = Admission.budgets_of_string spec in
  Alcotest.(check bool) "limited" true (Admission.limited parsed);
  Alcotest.(check bool) "round-trips" true
    (Admission.budgets_of_string (Admission.budgets_to_string parsed) = parsed);
  (match Admission.budgets_of_string "bogus=1" with
   | _ -> Alcotest.fail "unknown key accepted"
   | exception Failure _ -> ())

let test_admission_memory_bomb () =
  (* A 2^20-word memory of 64-bit words: 8 MiB of state from five lines
     of text.  The estimator must see the full footprint. *)
  let bomb =
    "circuit Bomb :\n\
    \  module Bomb :\n\
    \    input clock : Clock\n\
    \    input addr : UInt<20>\n\
    \    output out : UInt<64>\n\n\
    \    mem m :\n\
    \      data-type => UInt<64>\n\
    \      depth => 1048576\n\
    \      read-latency => 0\n\
    \      write-latency => 1\n\
    \      reader => r0\n\
    \    m.r0.addr <= addr\n\
    \    m.r0.en <= UInt<1>(1)\n\
    \    m.r0.clk <= clock\n\
    \    out <= m.r0.data\n"
  in
  let e = Admission.estimate (parse_fir bomb) in
  Alcotest.(check bool) "memory bytes counted" true
    (e.Admission.est_mem_bytes >= 8 * 1024 * 1024);
  let b = { Admission.unlimited with Admission.max_mem_bytes = 1024 * 1024 } in
  (match Admission.check b e with
   | Error msg -> Alcotest.(check bool) "names memory" true (contains msg "memory")
   | Ok () -> Alcotest.fail "memory bomb admitted")

(* --- daemon end-to-end under overload ------------------------------------- *)

let start_daemon ?(workers = 1) ?(queue = 8) ?(stride = 10) ?(chaos = Chaos.none)
    ?(budgets = Admission.unlimited) ?(high_water = 0.) ?(tenant_quota = 0) () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "gsimd.sock" in
  let devnull = open_out "/dev/null" in
  let cfg =
    { (Daemon.default_config (P.Unix_sock sock)) with
      Daemon.workers; queue_capacity = queue; cache_capacity = 16;
      spool = Some (Filename.concat dir "spool"); preempt_stride = stride;
      log = devnull; chaos; budgets; high_water; tenant_quota }
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
  (P.Unix_sock sock, t, devnull)

let stop_daemon (address, t, devnull) =
  (match Client.with_connection address (fun c -> Client.call c P.Shutdown) with
   | P.Shutting_down -> ()
   | _ -> Alcotest.fail "shutdown not acknowledged");
  Thread.join t;
  close_out devnull

let sim_job ?tenant ?(deadline = 0.) cycles =
  { P.sj_filename = "gray.fir"; sj_design = gray_fir;
    sj_opts = P.default_engine_opts; sj_cycles = cycles; sj_pokes = [ "en=1" ];
    sj_token = None; sj_tenant = tenant; sj_deadline = deadline }

(* The locally computed truth a calm daemon and a browning-out daemon
   must both match, bit for bit. *)
let local_outputs cycles =
  let source = Compile.source_of_string ~filename:"gray.fir" gray_fir in
  let config =
    Gsim.config_of_names ~engine:"gsim" ~threads:1 ~level:None ~max_supernode:0
      ~backend:"closures"
  in
  let compiled = Compile.realize (Compile.prepare config source) in
  let sim = compiled.Gsim.sim in
  (match Circuit.find_node sim.Sim.circuit "en" with
   | Some n -> sim.Sim.poke n.Circuit.id (Gsim_bits.Bits.of_int ~width:1 1)
   | None -> Alcotest.fail "no en input");
  for _ = 1 to cycles do
    sim.Sim.step ()
  done;
  let out =
    Circuit.outputs sim.Sim.circuit
    |> List.map (fun (n : Circuit.node) ->
           ( n.Circuit.name,
             Format.asprintf "%a" Gsim_bits.Bits.pp (sim.Sim.peek n.Circuit.id) ))
  in
  compiled.Gsim.destroy ();
  out

let test_daemon_over_budget () =
  let budgets = { Admission.unlimited with Admission.max_nodes = 2 } in
  let ((address, _, _) as d) = start_daemon ~budgets () in
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Interactive, sim_job ~tenant:"alice" 10)))
   with
   | P.Error_resp e ->
     Alcotest.(check string) "over-budget code" "over-budget"
       (P.error_code_to_string e.P.ei_code);
     Alcotest.(check bool) "names the violated limit" true
       (contains e.P.ei_message "exceeds the daemon budget")
   | _ -> Alcotest.fail "over-budget design was admitted");
  (* An unparseable design is admitted so the worker's caret diagnostic
     (not the estimator) reaches the client. *)
  let bad =
    { (sim_job 5) with P.sj_design = "circuit Broken :\n  module Broken :\n    output o : UInt<8>\n    o <= nope(\n" }
  in
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Interactive, bad)))
   with
   | P.Error_resp e ->
     Alcotest.(check bool) "frontend diagnostic, not a budget" false
       (contains e.P.ei_message "budget")
   | _ -> Alcotest.fail "broken design must fail");
  (match Client.with_connection address (fun c -> Client.call c P.Status) with
   | P.Status_ok s ->
     Alcotest.(check int) "over-budget counted" 1 s.P.st_over_budget;
     let alice =
       List.find_opt (fun t -> t.P.tn_tenant = "alice") s.P.st_tenants
     in
     (match alice with
      | Some t ->
        Alcotest.(check int) "tenant saw the submission" 1 t.P.tn_submitted;
        Alcotest.(check int) "tenant shed" 1 t.P.tn_shed
      | None -> Alcotest.fail "tenant missing from status")
   | _ -> Alcotest.fail "status failed");
  stop_daemon d

let test_daemon_deadlines () =
  (* Every eval tick stalls 40 ms, so wall-clock budgets expire long
     before the cycle counts do. *)
  let chaos = { Chaos.none with Chaos.seed = 7; busy = 1.0; busy_ms = 40. } in
  let ((address, _, _) as d) = start_daemon ~chaos ~stride:10 () in
  (* Running expiry: 100 cycles = 10 stalled ticks = ~400 ms of work
     against a 150 ms deadline — the worker must stop at a stride tick. *)
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Interactive, sim_job ~deadline:0.15 100)))
   with
   | P.Error_resp e ->
     Alcotest.(check string) "deadline code" "deadline-exceeded"
       (P.error_code_to_string e.P.ei_code);
     Alcotest.(check bool) "expired while running" true
       (contains e.P.ei_message "cycle")
   | _ -> Alcotest.fail "deadline did not fire while running");
  (* Queued expiry: a long batch job holds the single worker while a
     50 ms-deadline job waits behind it — shed at dispatch, having
     consumed no worker time. *)
  let slow_done = ref None in
  let t_slow =
    Thread.create
      (fun () ->
        slow_done :=
          Some
            (Client.with_connection address (fun c ->
                 Client.call c (P.Sim (P.Batch, sim_job ~tenant:"hog" 100)))))
      ()
  in
  Unix.sleepf 0.1 (* let the hog reach the worker *);
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Batch, sim_job ~tenant:"late" ~deadline:0.05 100)))
   with
   | P.Error_resp e ->
     Alcotest.(check string) "queued deadline code" "deadline-exceeded"
       (P.error_code_to_string e.P.ei_code);
     Alcotest.(check bool) "expired in the queue" true
       (contains e.P.ei_message "queued")
   | _ -> Alcotest.fail "queued job outlived its deadline");
  Thread.join t_slow;
  (match !slow_done with
   | Some (P.Sim_done r) -> Alcotest.(check int) "hog finished" 100 r.P.sr_cycles
   | _ -> Alcotest.fail "hog job failed");
  (match Client.with_connection address (fun c -> Client.call c P.Status) with
   | P.Status_ok s ->
     Alcotest.(check int) "both expiries counted" 2 s.P.st_deadline_expired
   | _ -> Alcotest.fail "status failed");
  stop_daemon d

let test_daemon_brownout_acceptance () =
  (* The chaos overload acceptance test: one stalled worker, a greedy
     batch tenant flooding a tiny queue past its high-water mark, and an
     interactive job riding through.  The daemon must shed batch work
     with a retry-after hint, keep every accepted job correct, and the
     interactive answer must be byte-identical to an unloaded run. *)
  let chaos = { Chaos.none with Chaos.seed = 11; busy = 1.0; busy_ms = 30. } in
  let ((address, _, _) as d) =
    start_daemon ~chaos ~queue:4 ~high_water:0.5 ~stride:10 ()
  in
  let flood = 6 in
  let responses = Array.make flood None in
  let threads =
    List.init flood (fun i ->
        Thread.create
          (fun () ->
            responses.(i) <-
              Some
                (Client.with_connection address (fun c ->
                     Client.call c (P.Sim (P.Batch, sim_job ~tenant:"greedy" 60)))))
          ())
  in
  Unix.sleepf 0.15 (* let the flood land and the backlog build *);
  let interactive =
    Client.with_connection address (fun c ->
        Client.call c (P.Sim (P.Interactive, sim_job ~tenant:"vip" 60)))
  in
  List.iter Thread.join threads;
  (match interactive with
   | P.Sim_done r ->
     Alcotest.(check bool) "interactive byte-identical to calm run" true
       (r.P.sr_outputs = local_outputs 60)
   | P.Error_resp e -> Alcotest.failf "interactive shed under brownout: %s" e.P.ei_message
   | _ -> Alcotest.fail "interactive job lost");
  let shed = ref 0 and completed = ref 0 in
  Array.iter
    (function
      | Some (P.Sim_done r) ->
        incr completed;
        Alcotest.(check bool) "accepted batch job correct" true
          (r.P.sr_outputs = local_outputs 60)
      | Some (P.Error_resp e) ->
        incr shed;
        Alcotest.(check string) "shed code" "overloaded"
          (P.error_code_to_string e.P.ei_code);
        Alcotest.(check bool) "retry-after travels" true (e.P.ei_retry_after > 0.)
      | _ -> Alcotest.fail "batch job lost")
    responses;
  Alcotest.(check bool) "brownout shed some batch work" true (!shed > 0);
  Alcotest.(check bool) "but not all of it" true (!completed > 0);
  (match Client.with_connection address (fun c -> Client.call c P.Status) with
   | P.Status_ok s ->
     Alcotest.(check int) "shed counter matches" !shed s.P.st_shed;
     let greedy = List.find_opt (fun t -> t.P.tn_tenant = "greedy") s.P.st_tenants in
     (match greedy with
      | Some t ->
        Alcotest.(check int) "greedy submissions" flood t.P.tn_submitted;
        Alcotest.(check int) "greedy sheds" !shed t.P.tn_shed;
        Alcotest.(check int) "greedy completions" !completed t.P.tn_completed
      | None -> Alcotest.fail "greedy tenant missing from status");
     Alcotest.(check bool) "vip tenant reported" true
       (List.exists (fun t -> t.P.tn_tenant = "vip") s.P.st_tenants)
   | _ -> Alcotest.fail "status failed");
  stop_daemon d

let test_daemon_tenant_quota () =
  (* A quota of 1 queued job per tenant on a stalled worker: the second
     concurrent submission from the same tenant is refused with a
     retry-after hint while a different tenant's job is accepted. *)
  let chaos = { Chaos.none with Chaos.seed = 3; busy = 1.0; busy_ms = 30. } in
  let ((address, _, _) as d) = start_daemon ~chaos ~tenant_quota:1 ~stride:10 () in
  let first = ref None in
  let t1 =
    Thread.create
      (fun () ->
        first :=
          Some
            (Client.with_connection address (fun c ->
                 Client.call c (P.Sim (P.Batch, sim_job ~tenant:"greedy" 60)))))
      ()
  in
  Unix.sleepf 0.1;
  (* The worker holds job 1; job 2 queues; job 3 trips the quota. *)
  let second = ref None in
  let t2 =
    Thread.create
      (fun () ->
        second :=
          Some
            (Client.with_connection address (fun c ->
                 Client.call c (P.Sim (P.Batch, sim_job ~tenant:"greedy" 60)))))
      ()
  in
  Unix.sleepf 0.05;
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Batch, sim_job ~tenant:"greedy" 60)))
   with
   | P.Error_resp e ->
     Alcotest.(check string) "quota refusal code" "overloaded"
       (P.error_code_to_string e.P.ei_code);
     Alcotest.(check bool) "quota named" true (contains e.P.ei_message "quota");
     Alcotest.(check bool) "retry-after hint" true (e.P.ei_retry_after > 0.)
   | _ -> Alcotest.fail "tenant quota did not trip");
  (match Client.with_connection address (fun c ->
             Client.call c (P.Sim (P.Batch, sim_job ~tenant:"polite" 60)))
   with
   | P.Sim_done _ -> ()
   | _ -> Alcotest.fail "other tenant must not be affected by the quota");
  Thread.join t1;
  Thread.join t2;
  (match (!first, !second) with
   | Some (P.Sim_done _), Some (P.Sim_done _) -> ()
   | _ -> Alcotest.fail "accepted greedy jobs must still complete");
  stop_daemon d

let () =
  Alcotest.run "overload"
    [
      ( "fairness",
        [
          Alcotest.test_case "drr two-tenant split" `Quick test_drr_two_tenants_split;
          Alcotest.test_case "drr weights and cost" `Quick test_drr_weights_and_cost;
          Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
        ] );
      ( "admission",
        [
          Alcotest.test_case "estimate and check" `Quick
            test_admission_estimate_and_check;
          Alcotest.test_case "memory bomb" `Quick test_admission_memory_bomb;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "over-budget refused at admission" `Quick
            test_daemon_over_budget;
          Alcotest.test_case "deadlines: running and queued" `Quick
            test_daemon_deadlines;
          Alcotest.test_case "brownout sheds batch, interactive identical" `Quick
            test_daemon_brownout_acceptance;
          Alcotest.test_case "tenant quota end-to-end" `Quick test_daemon_tenant_quota;
        ] );
    ]
