module P = Protocol
module IM = Map.Make (Int)
module SM = Map.Make (String)

type config = {
  workers : int;
  queue_capacity : int;
  high_water : float;
  max_backlog_seconds : float;
  tenant_quota : int;
  policy : Supervisor.policy;
}

type admission = Admit | Invalid of string | Over_budget of string

type ('w, 'j) event =
  | Submit of {
      conn : int; prio : P.priority; req : P.request; admission : admission; waiter : 'w;
      now : float; queued : int; batch_queued : int }
  | Boot of { id : int; file : string; req : P.request option; waiter : 'w; now : float }
  | Queued of { id : int; verdict : Scheduler.verdict; queued : int; tenant_queued : int }
  | Dispatch of { worker : int; id : int; attempt : int; now : float }
  | Complete of { id : int; attempt : int; resp : P.response; seconds : float }
  | Lost of {
      id : int; attempt : int; kind : [ `Crash | `Hang ]; cycle : int; retry : 'j; now : float }
  | Tick of float
  | Drain of string

type ('w, 'j) action =
  | Reply of 'w * P.response
  | Enqueue of {
      id : int; priority : int; tenant : string; deadline : float; req : P.request;
      persist : bool; recovered : bool }
  | Requeue of 'j
  | Run of int
  | Retire of int
  | Discard of int
  | Log of string

type counts = {
  completed : int; rejected : int; retries : int; gave_up : int; shed : int;
  over_budget : int; deadline_expired : int }

type tenant = {
  submitted : int; t_completed : int; refused : int; expired : int; t_gave_up : int;
  inflight : int }

(* A live job: what its terminal transition needs. *)
type 'w job = {
  tenant : string;
  token : string option;
  persisted : bool;  (* has a request file to retire *)
  conn : int option;  (* None: re-admitted by the boot scan *)
  deadline : float;
  attempt : int;  (* the current attempt; older ones are stale *)
  waiters : 'w list;  (* newest first *)
}

type tok = Running of int | Finished of P.response

type ('w, 'j) t = {
  cfg : config;
  next_id : int;
  jobs : 'w job IM.t;
  delayed : (float * int * 'j) list;  (* due time, id, retry *)
  tokens : tok SM.t;
  finished : string IM.t;  (* finished tokens by sequence: the replay FIFO *)
  fin_seq : int;
  tenants : tenant SM.t;
  counts : counts;
  ewma : float;  (* completed-job seconds, the backlog estimator's numerator *)
  draining : bool;
}

let create cfg =
  {
    cfg;
    next_id = 0;
    jobs = IM.empty;
    delayed = [];
    tokens = SM.empty;
    finished = IM.empty;
    fin_seq = 0;
    tenants = SM.empty;
    counts =
      { completed = 0; rejected = 0; retries = 0; gave_up = 0; shed = 0; over_budget = 0;
        deadline_expired = 0 };
    (* Seeded pessimistically so a cold daemon does not under-shed. *)
    ewma = 2.0;
    draining = false;
  }

let token_cap = 512
let sp = Printf.sprintf

let bump st name f =
  let t =
    match SM.find_opt name st.tenants with
    | Some t -> t
    | None ->
      { submitted = 0; t_completed = 0; refused = 0; expired = 0; t_gave_up = 0; inflight = 0 }
  in
  { st with tenants = SM.add name (f t) st.tenants }

let count st f = { st with counts = f st.counts }
let enter st j =
  bump st j.tenant (fun t -> { t with submitted = t.submitted + 1; inflight = t.inflight + 1 })

(* Backlog seconds ≈ ewma × queued / workers. *)
let backlog st ~queued = st.ewma *. float_of_int queued /. float_of_int (max 1 st.cfg.workers)
let retry_after st ~queued = Float.min 60. (Float.max 1. (backlog st ~queued))

let overloaded st ~queued ~batch_queued =
  let c = st.cfg in
  (c.high_water > 0.
  && batch_queued >= max 1 (int_of_float (c.high_water *. float_of_int c.queue_capacity)))
  || (c.max_backlog_seconds > 0. && backlog st ~queued > c.max_backlog_seconds)

(* Cache a finished response for replay; the FIFO keeps the newest
   [token_cap]. *)
let finish_token st tok resp =
  let seq = st.fin_seq + 1 in
  let tokens = SM.add tok (Finished resp) st.tokens in
  let finished = IM.add seq tok st.finished in
  let tokens, finished =
    match IM.find_opt (seq - token_cap) finished with
    | None -> (tokens, finished)
    | Some old ->
      ( (match SM.find_opt old tokens with
         | Some (Finished _) -> SM.remove old tokens
         | _ -> tokens),
        IM.remove (seq - token_cap) finished )
  in
  { st with tokens; finished; fin_seq = seq }

(* The terminal transition.  [id] may name no live job: a refusal at
   submit never became one (the caller has already [enter]ed it). *)
let close st ~id j ending resp =
  let st =
    { st with jobs = IM.remove id st.jobs;
              delayed = List.filter (fun (_, i, _) -> i <> id) st.delayed }
  in
  let st =
    bump st j.tenant (fun t ->
        let t = { t with inflight = t.inflight - 1 } in
        match ending with
        | `Completed -> { t with t_completed = t.t_completed + 1 }
        | `Refused -> { t with refused = t.refused + 1 }
        | `Expired -> { t with expired = t.expired + 1 }
        | `Gave_up -> { t with t_gave_up = t.t_gave_up + 1 })
  in
  let st =
    match ending with
    | `Completed -> st
    | `Refused -> count st (fun c -> { c with rejected = c.rejected + 1 })
    | `Expired -> count st (fun c -> { c with deadline_expired = c.deadline_expired + 1 })
    | `Gave_up -> count st (fun c -> { c with gave_up = c.gave_up + 1 })
  in
  (* A refusal is not cached: the client's retry should get a fresh shot
     at the queue, not a replayed rejection. *)
  let st =
    match j.token with
    | None -> st
    | Some tok when ending = `Refused -> { st with tokens = SM.remove tok st.tokens }
    | Some tok -> finish_token st tok resp
  in
  let replies = List.rev_map (fun w -> Reply (w, resp)) j.waiters in
  (st, if j.persisted then Retire id :: replies else replies)

let level = function P.Interactive -> 0 | P.Batch -> 1
let new_job ~tenant ~token ~persisted ~conn ~rel ~now waiter =
  { tenant; token; persisted; conn; attempt = 1; waiters = [ waiter ];
    deadline = (if rel > 0. then now +. rel else 0.) }

let step st = function
  | Submit { waiter; _ } when st.draining ->
    (* Not counted: it never became a job. *)
    (st, [ Reply (waiter, P.error_resp ~code:P.Refused "server is draining; resubmit elsewhere") ])
  | Submit { conn; prio; req; admission; waiter; now; queued; batch_queued } -> (
    let token = P.request_token req in
    match Option.map (fun tok -> SM.find_opt tok st.tokens) token with
    | Some (Some (Finished r)) ->
      (st, [ Log (sp "conn %d: replaying finished job for token (idempotent resubmission)" conn);
             Reply (waiter, r) ])
    | Some (Some (Running id)) ->
      let j = IM.find id st.jobs in
      ( { st with jobs = IM.add id { j with waiters = waiter :: j.waiters } st.jobs },
        [ Log (sp "conn %d: token already in flight; attaching to its job" conn) ] )
    | Some None | None -> (
      let tenant = Option.value (P.request_tenant req) ~default:(sp "conn-%d" conn) in
      let j =
        new_job ~tenant ~token ~persisted:(prio = P.Batch) ~conn:(Some conn)
          ~rel:(P.request_deadline req) ~now waiter
      in
      let refuse st log resp =
        let st, acts = close (enter st j) ~id:(-1) { j with persisted = false } `Refused resp in
        (st, Log log :: acts)
      in
      (* Engine options first, then admission: a resource bomb is refused
         before it touches the queue, the spool or a worker.  Then the
         brownout: past the high-water mark (or the backlog limit) new
         batch work is shed with a retry-after hint while interactive
         traffic keeps flowing. *)
      match admission with
      | Invalid why ->
        refuse st (sp "conn %d: refusing job for %s: %s" conn tenant why)
          (P.error_resp ~code:P.Protocol_violation why)
      | Over_budget why ->
        refuse
          (count st (fun c -> { c with over_budget = c.over_budget + 1 }))
          (sp "conn %d: refusing over-budget job for %s: %s" conn tenant why)
          (P.error_resp ~code:P.Over_budget why)
      | Admit when prio = P.Batch && overloaded st ~queued ~batch_queued ->
        let ra = retry_after st ~queued in
        refuse
          (count st (fun c -> { c with shed = c.shed + 1 }))
          (sp "conn %d: brownout, shedding batch job for %s (retry in %.0f s)" conn tenant ra)
          (P.error_resp ~code:P.Overloaded ~retry_after:ra
             (sp "overloaded: %d batch job(s) queued, est. backlog %.0f s; retry later"
                batch_queued (backlog st ~queued)))
      | Admit ->
        let id = st.next_id in
        let tokens =
          match token with Some tok -> SM.add tok (Running id) st.tokens | None -> st.tokens
        in
        (* Batch requests are persisted before they queue: from then on a
           daemon crash leaves enough on disk for the next boot to finish
           the job.  Interactive jobs are cheap and their client retries. *)
        ( enter { st with next_id = id + 1; jobs = IM.add id j st.jobs; tokens } j,
          [ Enqueue { id; priority = level prio; tenant; deadline = j.deadline; req;
                      persist = j.persisted; recovered = false } ] )))
  | Boot { id; file; req; waiter; now } -> (
    (* Even an unreadable file retires its id: a stale spool ring under
       that number must never alias a new job.  A recovered job's
       deadline restarts at re-admission: its submitter is gone. *)
    let st = { st with next_id = max st.next_id (id + 1) } in
    match req with
    | None -> (st, [ Log (sp "boot: dropping unreadable job file %s" file); Retire id ])
    | Some (P.Status | P.Shutdown) -> (st, [ Retire id ])
    | Some ((P.Sim _ | P.Campaign _ | P.Fuzz _ | P.Coverage _) as req) ->
      let tenant = Option.value (P.request_tenant req) ~default:Scheduler.default_tenant in
      let j =
        new_job ~tenant ~token:None ~persisted:true ~conn:None ~rel:(P.request_deadline req)
          ~now waiter
      in
      ( enter { st with jobs = IM.add id j st.jobs } j,
        [ Enqueue { id; priority = 1; tenant; deadline = j.deadline; req; persist = false;
                    recovered = true } ] ))
  | Queued { id; verdict; queued; tenant_queued } -> (
    let j = IM.find id st.jobs in
    match (verdict, j.conn) with
    | Scheduler.Accepted, Some conn ->
      (* A connection's job is persisted exactly when it is batch. *)
      let prio = if j.persisted then P.Batch else P.Interactive in
      (st, [ Log (sp "conn %d: job %d queued (%s, tenant %s)" conn id
                    (P.priority_to_string prio) j.tenant) ])
    | Scheduler.Accepted, None -> (st, [ Log (sp "boot: re-admitted interrupted job %d" id) ])
    | (Scheduler.Rejected_full | Scheduler.Rejected_quota), None ->
      (* The request file stays for the next restart. *)
      let st, acts =
        close st ~id { j with persisted = false } `Refused
          (P.error_resp ~code:P.Queue_full "queue full at boot")
      in
      (st, Log (sp "boot: queue full, leaving job %d for the next restart" id) :: acts)
    | Scheduler.Rejected_full, Some _ ->
      close st ~id j `Refused
        (P.error_resp ~code:P.Queue_full ~retry_after:(retry_after st ~queued)
           (sp "queue full (%d job(s) queued); retry later" queued))
    | Scheduler.Rejected_quota, Some _ ->
      close
        (count st (fun c -> { c with shed = c.shed + 1 }))
        ~id j `Refused
        (P.error_resp ~code:P.Overloaded ~retry_after:(retry_after st ~queued)
           (sp "tenant %s has %d job(s) queued (quota %d); retry later" j.tenant
              tenant_queued st.cfg.tenant_quota)))
  | Dispatch { worker; id; attempt; now } -> (
    (* Only the current attempt of a live job runs; anything else is a
       preempted or retried copy whose job has moved on.  An expired job
       is shed here, before it costs a worker anything, and its scratch
       goes with it: nobody resumes a job whose answer is late. *)
    match IM.find_opt id st.jobs with
    | Some j when j.attempt = attempt ->
      if j.deadline > 0. && now > j.deadline then
        let st, acts =
          close st ~id j `Expired
            (P.error_resp ~code:P.Deadline_exceeded ~attempts:attempt
               "deadline exceeded while queued")
        in
        (st, Log (sp "worker %d: job %d expired in the queue; shedding" worker id)
             :: Discard id :: acts)
      else (st, [ Run id ])
    | _ -> (st, [ Log (sp "worker %d: dropping stale attempt %d of job %d" worker attempt id) ]))
  | Complete { id; attempt; resp; seconds } -> (
    (* First answer wins: a stale attempt that finishes before the retry
       ends the job, and whatever finishes later is dropped.  So the EWMA
       and [completed] count jobs, never attempts. *)
    match IM.find_opt id st.jobs with
    | None ->
      (st, [ Log (sp "job %d: attempt %d finished after the job ended; dropped" id attempt) ])
    | Some j ->
      let st =
        count { st with ewma = (0.8 *. st.ewma) +. (0.2 *. seconds) } (fun c ->
            { c with completed = c.completed + 1 })
      in
      let expired =
        match resp with P.Error_resp e -> e.P.ei_code = P.Deadline_exceeded | _ -> false
      in
      close st ~id j (if expired then `Expired else `Completed) resp)
  | Lost { id; attempt; kind; cycle; retry; now } -> (
    (* A lost attempt goes back to the queue after backoff with jitter
       or, past its retry budget, fails with a structured error. *)
    let pol = st.cfg.policy in
    let verb = match kind with `Crash -> "worker lost" | `Hang -> "hung" in
    match IM.find_opt id st.jobs with
    | Some j when j.attempt = attempt && attempt > pol.Supervisor.max_retries ->
      let code = match kind with `Crash -> P.Worker_lost | `Hang -> P.Timeout in
      let st, acts =
        close st ~id j `Gave_up
          (P.error_resp ~code ~attempts:attempt
             (sp "job failed after %d attempt(s): %s each time" attempt verb))
      in
      (st, Log (sp "job %d: giving up after %d attempt(s) (%s every time)" id attempt verb)
           :: Discard id :: acts)
    | Some j when j.attempt = attempt ->
      let jitter = Chaos.hash01 ~seed:id ~site:"retry-jitter" [ attempt ] in
      let delay = Supervisor.backoff pol ~attempt ~jitter in
      ( count
          { st with jobs = IM.add id { j with attempt = attempt + 1 } st.jobs;
                    delayed = (now +. delay, id, retry) :: st.delayed }
          (fun c -> { c with retries = c.retries + 1 }),
        [ Log (sp "job %d: %s at cycle %d on attempt %d/%d; retrying in %.0f ms" id verb cycle
                 attempt (pol.Supervisor.max_retries + 1) (delay *. 1000.)) ] )
    | _ -> (st, []))
  | Tick now ->
    let due, delayed = List.partition (fun (t, _, _) -> t <= now) st.delayed in
    ( { st with delayed },
      List.concat_map
        (fun (_, id, retry) ->
          [ Log (sp "job %d: re-admitted for attempt %d" id (IM.find id st.jobs).attempt);
            Requeue retry ])
        due )
  | Drain _ when st.draining -> (st, [])
  | Drain reason -> ({ st with draining = true }, [ Log ("drain: " ^ reason) ])

let counts st = st.counts
let tenants st = SM.bindings st.tenants

let tenant_stats st =
  List.map
    (fun (name, t) ->
      { P.tn_tenant = name; tn_submitted = t.submitted; tn_completed = t.t_completed + t.t_gave_up;
        tn_shed = t.refused; tn_expired = t.expired; tn_inflight = t.inflight })
    (tenants st)

let draining st = st.draining
let live st = IM.cardinal st.jobs
let delayed st = List.length st.delayed
let ewma_seconds st = st.ewma
let settled st = st.draining && IM.is_empty st.jobs
