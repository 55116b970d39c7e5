(* Model-based test of gsimd's pure lifecycle core.  A small model of the
   shell — a bounded two-band queue with a tenant quota, a set of running
   attempts, a clock — drives thousands of seeded random event sequences
   through [Lifecycle.step] and checks the core's invariants after every
   step:
   - per tenant, submitted = completed + refused + expired + gave-up +
     in-flight, and the in-flight total is the live-job count;
   - [completed] and the EWMA move once per job, never per attempt (a
     stale attempt may finish after its worker was declared lost);
   - every waiter gets exactly one reply, and only one;
   - no idempotency token is accepted twice, and a finished one replays
     its response;
   - brownout never refuses interactive work;
   - a draining core refuses new work, and once the model stops
     producing work the drain check settles. *)

module P = Gsim_server.Protocol
module L = Gsim_server.Lifecycle
module Chaos = Gsim_server.Chaos
module Scheduler = Gsim_server.Scheduler
module Supervisor = Gsim_server.Supervisor

let cfg =
  {
    L.workers = 2;
    queue_capacity = 6;
    high_water = 0.5;
    max_backlog_seconds = 0.;
    tenant_quota = 4;
    policy =
      { Supervisor.default_policy with
        max_retries = 2; backoff_base = 0.05; backoff_max = 0.4 };
  }

let tokens = [| "tok-a"; "tok-b"; "tok-c" |]
let tenants = [| Some "alice"; Some "bob"; None |]

let request ~prio ~token ~tenant ~deadline =
  P.Sim
    ( prio,
      { P.sj_filename = "m.fir"; sj_design = "circuit M :"; sj_opts = P.default_engine_opts;
        sj_cycles = 10; sj_pokes = []; sj_token = token; sj_tenant = tenant;
        sj_deadline = deadline } )

let refusal = function
  | P.Error_resp e -> (
    match e.P.ei_code with
    | P.Refused | P.Queue_full | P.Overloaded | P.Protocol_violation | P.Over_budget -> true
    | _ -> false)
  | _ -> false

let fail seed fmt = Printf.ksprintf (fun m -> Alcotest.failf "seed %d: %s" seed m) fmt

(* One sequence.  Waiters are ints (one per submission), a retry is its
   (id, attempt). *)
let run_sequence ~seed ~steps =
  let draw = ref 0 in
  let rnd () =
    incr draw;
    Chaos.hash01 ~seed ~site:"lifecycle-model" [ !draw ]
  in
  let pick a = a.(int_of_float (rnd () *. float_of_int (Array.length a))) in
  let st = ref (L.create cfg) in
  let now = ref 1000. in
  (* The model shell. *)
  let queue = ref [] in  (* (band, tenant, (id, attempt)), oldest first *)
  let running = ref [] in  (* (id, attempt) attempts on some worker *)
  let replies = Hashtbl.create 64 in  (* waiter -> response *)
  let next_waiter = ref 0 in
  let job_token = Hashtbl.create 64 in  (* id -> token *)
  let job_tenant = Hashtbl.create 64 in
  let accepted = Hashtbl.create 8 in  (* token -> accepted jobs *)
  let finished = Hashtbl.create 8 in  (* token -> cached response *)
  let waiter_token = Hashtbl.create 64 in
  let submitting = ref None in  (* the token of the submission being stepped *)
  let completions = ref 0 and ewma = ref 2.0 in
  let rec step ev =
    let st', acts = L.step !st ev in
    st := st';
    List.iter
      (function
        | L.Reply (w, r) ->
          if Hashtbl.mem replies w then fail seed "waiter %d answered twice" w;
          Hashtbl.replace replies w r;
          (match Hashtbl.find_opt waiter_token w with
           | Some tok when not (refusal r) -> Hashtbl.replace finished tok r
           | _ -> ())
        | L.Enqueue e ->
          let band = e.priority in
          let per_tenant = List.length (List.filter (fun (_, t, _) -> t = e.tenant) !queue) in
          let verdict =
            if List.length !queue >= cfg.L.queue_capacity then Scheduler.Rejected_full
            else if per_tenant >= cfg.L.tenant_quota then Scheduler.Rejected_quota
            else Scheduler.Accepted
          in
          Hashtbl.replace job_tenant e.id e.tenant;
          Option.iter (Hashtbl.replace job_token e.id) !submitting;
          if verdict = Scheduler.Accepted then begin
            queue := !queue @ [ (band, e.tenant, (e.id, 1)) ];
            match Hashtbl.find_opt job_token e.id with
            | Some tok ->
              let n = 1 + Option.value (Hashtbl.find_opt accepted tok) ~default:0 in
              if n > 1 then fail seed "token %s accepted twice" tok;
              Hashtbl.replace accepted tok n
            | None -> ()
          end;
          ignore
            (step
               (L.Queued
                  { id = e.id; verdict; queued = List.length !queue;
                    tenant_queued = per_tenant }))
        | L.Requeue (id, attempt) ->
          let tenant = Option.value (Hashtbl.find_opt job_tenant id) ~default:"" in
          queue := !queue @ [ (1, tenant, (id, attempt)) ]
        | L.Run _ | L.Retire _ | L.Discard _ | L.Log _ -> ())
      acts;
    acts
  in
  let check () =
    let total = ref 0 in
    List.iter
      (fun (name, (t : L.tenant)) ->
        if t.inflight < 0 then fail seed "tenant %s: negative in-flight" name;
        total := !total + t.inflight;
        if t.submitted <> t.t_completed + t.refused + t.expired + t.t_gave_up + t.inflight then
          fail seed "tenant %s: %d submitted <> %d completed + %d refused + %d expired + %d \
                     gave up + %d in flight"
            name t.submitted t.t_completed t.refused t.expired t.t_gave_up t.inflight)
      (L.tenants !st);
    List.iter
      (fun t -> if not (P.tenant_conserves t) then fail seed "wire row %s" t.P.tn_tenant)
      (L.tenant_stats !st);
    if !total <> L.live !st then fail seed "in-flight %d <> live %d" !total (L.live !st);
    if L.delayed !st > L.live !st then fail seed "a delayed retry outlived its job";
    let c = L.counts !st in
    if c.L.completed <> !completions then
      fail seed "completed %d, but %d jobs finished" c.L.completed !completions;
    if abs_float (L.ewma_seconds !st -. !ewma) > 1e-9 then fail seed "EWMA fed per attempt"
  in
  let submit () =
    let prio = if rnd () < 0.5 then P.Interactive else P.Batch in
    let token = if rnd () < 0.4 then Some (pick tokens) else None in
    let admission =
      let r = rnd () in
      if r < 0.05 then L.Invalid "bad backend" else if r < 0.1 then L.Over_budget "too big"
      else L.Admit
    in
    let deadline = if rnd () < 0.2 then 0.05 +. rnd () else 0. in
    let w = !next_waiter in
    incr next_waiter;
    Option.iter (Hashtbl.replace waiter_token w) token;
    let replay = Option.bind token (Hashtbl.find_opt finished) in
    let draining = L.draining !st in
    let batch_queued = List.length (List.filter (fun (b, _, _) -> b = 1) !queue) in
    submitting := token;
    let acts =
      step
        (L.Submit
           { conn = w mod 4; prio; req = request ~prio ~token ~tenant:(pick tenants) ~deadline;
             admission; waiter = w; now = !now; queued = List.length !queue; batch_queued })
    in
    let enqueued = List.exists (function L.Enqueue _ -> true | _ -> false) acts in
    let attached = token <> None && (not enqueued) && not (Hashtbl.mem replies w) in
    if draining then begin
      if enqueued then fail seed "draining core admitted work";
      match Hashtbl.find_opt replies w with
      | Some (P.Error_resp e) when e.P.ei_code = P.Refused -> ()
      | _ -> fail seed "draining core did not refuse"
    end
    else begin
      (match replay with
       | Some r ->
         if enqueued then fail seed "finished token ran again";
         if Hashtbl.find_opt replies w <> Some r then fail seed "finished token did not replay"
       | None -> ());
      if prio = P.Interactive && admission = L.Admit && replay = None && not enqueued
         && not attached
      then fail seed "interactive work refused at submit"
    end
  in
  let take () =
    (* Interactive band first, FIFO within a band. *)
    let band = if List.exists (fun (b, _, _) -> b = 0) !queue then 0 else 1 in
    match List.find_opt (fun (b, _, _) -> b = band) !queue with
    | None -> ()
    | Some ((_, _, (id, attempt)) as e) ->
      queue := List.filter (fun x -> x != e) !queue;
      let acts = step (L.Dispatch { worker = 0; id; attempt; now = !now }) in
      if List.mem (L.Run id) acts then running := (id, attempt) :: !running
  in
  let pick_running () =
    match !running with
    | [] -> None
    | l -> Some (List.nth l (int_of_float (rnd () *. float_of_int (List.length l))))
  in
  let drop a = running := List.filter (fun x -> x <> a) !running in
  let complete () =
    match pick_running () with
    | None -> ()
    | Some ((id, attempt) as a) ->
      drop a;
      let resp =
        if rnd () < 0.15 then P.error_resp ~code:P.Deadline_exceeded "deadline exceeded"
        else P.error_resp (Printf.sprintf "result of job %d" id)
      in
      let seconds = 0.01 +. rnd () in
      let acts = step (L.Complete { id; attempt; resp; seconds }) in
      if List.exists (function L.Reply _ -> true | _ -> false) acts then begin
        incr completions;
        ewma := (0.8 *. !ewma) +. (0.2 *. seconds)
      end
  in
  let lose () =
    match pick_running () with
    | None -> ()
    | Some ((id, attempt) as a) ->
      (* A crash takes the attempt with it; a hung attempt may still
         finish later, as a stale completion. *)
      let kind = if rnd () < 0.5 then `Crash else `Hang in
      if kind = `Crash || rnd () < 0.5 then drop a;
      ignore
        (step (L.Lost { id; attempt; kind; cycle = 0; retry = (id, attempt + 1); now = !now }))
  in
  let yield_ () =
    match pick_running () with
    | None -> ()
    | Some ((id, _) as a) ->
      drop a;
      let tenant = Option.value (Hashtbl.find_opt job_tenant id) ~default:"" in
      queue := !queue @ [ (1, tenant, a) ]
  in
  for _ = 1 to steps do
    let r = rnd () in
    (if r < 0.3 then submit ()
     else if r < 0.5 then take ()
     else if r < 0.65 then complete ()
     else if r < 0.72 then lose ()
     else if r < 0.77 then yield_ ()
     else if r < 0.995 then begin
       now := !now +. (0.2 *. rnd ());
       ignore (step (L.Tick !now))
     end
     else ignore (step (L.Drain "model")));
    check ()
  done;
  (* Drain: new work is refused, and once the model runs everything that
     is left the drain check settles. *)
  ignore (step (L.Drain "end of sequence"));
  submit ();
  check ();
  let rounds = ref 0 in
  while not (L.settled !st) do
    incr rounds;
    if !rounds > 10_000 then fail seed "drain never settled (%d live)" (L.live !st);
    if !running <> [] then complete ()
    else if !queue <> [] then take ()
    else begin
      now := !now +. 1.;
      ignore (step (L.Tick !now))
    end;
    check ()
  done;
  for w = 0 to !next_waiter - 1 do
    if not (Hashtbl.mem replies w) then fail seed "waiter %d never answered" w
  done

let test_model () =
  for seed = 0 to 1999 do
    run_sequence ~seed ~steps:80
  done

(* The satellite case spelled out: a hung attempt is declared lost, its
   retry waits out the backoff, and the stale attempt finishes first.
   The job ends once; the retry and its late result are dropped. *)
let test_stale_completion () =
  let st = L.create cfg in
  let req = request ~prio:P.Batch ~token:None ~tenant:(Some "t") ~deadline:0. in
  let st, acts =
    L.step st
      (L.Submit
         { conn = 0; prio = P.Batch; req; admission = L.Admit; waiter = 7; now = 0.;
           queued = 0; batch_queued = 0 })
  in
  let id = match acts with [ L.Enqueue e ] -> e.id | _ -> Alcotest.fail "not enqueued" in
  let st, _ =
    L.step st (L.Queued { id; verdict = Scheduler.Accepted; queued = 1; tenant_queued = 1 })
  in
  let st, acts = L.step st (L.Dispatch { worker = 0; id; attempt = 1; now = 0. }) in
  Alcotest.(check bool) "runs" true (List.mem (L.Run id) acts);
  let st, _ =
    L.step st (L.Lost { id; attempt = 1; kind = `Hang; cycle = 40; retry = (id, 2); now = 1. })
  in
  Alcotest.(check int) "retry delayed" 1 (L.delayed st);
  let resp = P.error_resp "answer" in
  let st, acts = L.step st (L.Complete { id; attempt = 1; resp; seconds = 3. }) in
  Alcotest.(check bool) "stale attempt answers" true (List.mem (L.Reply (7, resp)) acts);
  Alcotest.(check int) "retry withdrawn" 0 (L.delayed st);
  let st, acts = L.step st (L.Tick 100.) in
  Alcotest.(check int) "nothing requeued" 0 (List.length acts);
  let st, acts = L.step st (L.Dispatch { worker = 1; id; attempt = 2; now = 100. }) in
  Alcotest.(check bool) "orphan never runs" false (List.mem (L.Run id) acts);
  let st, acts = L.step st (L.Complete { id; attempt = 2; resp; seconds = 5. }) in
  Alcotest.(check bool) "late result dropped" false
    (List.exists (function L.Reply _ -> true | _ -> false) acts);
  Alcotest.(check int) "completed once" 1 (L.counts st).L.completed;
  Alcotest.(check (float 1e-9)) "EWMA fed once" ((0.8 *. 2.0) +. (0.2 *. 3.)) (L.ewma_seconds st);
  match L.tenant_stats st with
  | [ t ] ->
    Alcotest.(check (list int)) "tenant row" [ 1; 1; 0; 0; 0 ]
      [ t.P.tn_submitted; t.P.tn_completed; t.P.tn_shed; t.P.tn_expired; t.P.tn_inflight ]
  | _ -> Alcotest.fail "one tenant row expected"

let () =
  Alcotest.run "lifecycle"
    [
      ( "model",
        [
          Alcotest.test_case "stale completion after worker loss" `Quick test_stale_completion;
          Alcotest.test_case "random event sequences keep the invariants" `Quick test_model;
        ] );
    ]
