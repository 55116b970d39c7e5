exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let version = 1
let magic = "gsim"
let header_size = 10
let max_payload = 16 * 1024 * 1024

(* --- Addresses ----------------------------------------------------------- *)

type address = Unix_sock of string | Tcp of string * int

let address_of_string s =
  if String.contains s '/' then Unix_sock s
  else
    match String.rindex_opt s ':' with
    | None -> Unix_sock s
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Tcp (host, p)
      | _ -> Unix_sock s)

let address_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* --- Payload fields ------------------------------------------------------
   [name ' ' length '\n' bytes '\n'] — binary-safe (the value is read by
   count, not delimiter), human-skimmable in logs, order-preserving for
   repeated names. *)

let put b name value =
  Buffer.add_string b name;
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int (String.length value));
  Buffer.add_char b '\n';
  Buffer.add_string b value;
  Buffer.add_char b '\n'

let put_int b name n = put b name (string_of_int n)
let put_bool b name v = put b name (if v then "1" else "0")
let put_float b name v = put b name (Printf.sprintf "%.17g" v)
let put_list b name vs = List.iter (put b name) vs
let put_opt b name = function None -> () | Some v -> put b name v

let fields_of_string s =
  let len = String.length s in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      match String.index_from_opt s pos '\n' with
      | None -> fail "malformed field header at byte %d" pos
      | Some nl -> (
        let header = String.sub s pos (nl - pos) in
        match String.rindex_opt header ' ' with
        | None -> fail "malformed field header %S" header
        | Some sp -> (
          let name = String.sub header 0 sp in
          let count = String.sub header (sp + 1) (String.length header - sp - 1) in
          match int_of_string_opt count with
          | Some n when n >= 0 && nl + 1 + n < len ->
            if s.[nl + 1 + n] <> '\n' then fail "field %S: missing terminator" name;
            go (nl + n + 2) ((name, String.sub s (nl + 1) n) :: acc)
          | Some n when n >= 0 -> fail "field %S: value truncated" name
          | _ -> fail "field %S: bad length %S" name count))
  in
  go 0 []

let get fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> fail "missing field %S" name

let get_opt fields name = List.assoc_opt name fields

let get_int fields name =
  match int_of_string_opt (get fields name) with
  | Some n -> n
  | None -> fail "field %S: not an integer" name

(* Fields added after protocol version 1 shipped decode with a default,
   so old peers' frames (which lack them) still parse. *)
let get_int_default fields name default =
  match get_opt fields name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "field %S: not an integer" name)

let get_bool fields name = get fields name = "1"

let get_float fields name =
  match float_of_string_opt (get fields name) with
  | Some v -> v
  | None -> fail "field %S: not a float" name

let get_float_default fields name default =
  match get_opt fields name with
  | None -> default
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> f
    | None -> fail "field %S: not a float" name)

let get_list fields name =
  List.filter_map (fun (k, v) -> if k = name then Some v else None) fields

(* --- Messages ------------------------------------------------------------ *)

type priority = Interactive | Batch

let priority_of_string = function
  | "interactive" -> Interactive
  | "batch" -> Batch
  | other -> fail "unknown priority %S (interactive or batch)" other

let priority_to_string = function Interactive -> "interactive" | Batch -> "batch"

type engine_opts = {
  eo_engine : string;
  eo_backend : string;
  eo_level : string option;
  eo_max_supernode : int;
  eo_threads : int;
}

let default_engine_opts =
  { eo_engine = "gsim"; eo_backend = "closures"; eo_level = None;
    eo_max_supernode = 8; eo_threads = 1 }

type sim_job = {
  sj_filename : string;
  sj_design : string;
  sj_opts : engine_opts;
  sj_cycles : int;
  sj_pokes : string list;
  sj_token : string option;
  sj_tenant : string option;
  sj_deadline : float;
}

type campaign_job = {
  cj_filename : string;
  cj_design : string;
  cj_opts : engine_opts;
  cj_horizon : int;
  cj_budget : int;
  cj_faults : string list;
  cj_random : int;
  cj_seed : int;
  cj_duration : int;
  cj_models : string option;
  cj_pokes : string list;
  cj_token : string option;
  cj_tenant : string option;
  cj_deadline : float;
}

type fuzz_job = {
  fj_seed : int;
  fj_cases : int;
  fj_from : int;
  fj_cycles : int;
  fj_setups : string option;
  fj_token : string option;
  fj_tenant : string option;
  fj_deadline : float;
}

type cov_job = {
  vj_filename : string;
  vj_design : string;
  vj_opts : engine_opts;
  vj_cycles : int;
  vj_pokes : string list;
  vj_token : string option;
  vj_tenant : string option;
  vj_deadline : float;
}

type request =
  | Sim of priority * sim_job
  | Campaign of priority * campaign_job
  | Fuzz of priority * fuzz_job
  | Coverage of priority * cov_job
  | Status
  | Shutdown

let request_token = function
  | Sim (_, j) -> j.sj_token
  | Campaign (_, j) -> j.cj_token
  | Fuzz (_, j) -> j.fj_token
  | Coverage (_, j) -> j.vj_token
  | Status | Shutdown -> None

let with_token token = function
  | Sim (p, j) -> Sim (p, { j with sj_token = Some token })
  | Campaign (p, j) -> Campaign (p, { j with cj_token = Some token })
  | Fuzz (p, j) -> Fuzz (p, { j with fj_token = Some token })
  | Coverage (p, j) -> Coverage (p, { j with vj_token = Some token })
  | (Status | Shutdown) as r -> r

let request_design = function
  | Sim (_, j) -> Some j.sj_design
  | Campaign (_, j) -> Some j.cj_design
  | Coverage (_, j) -> Some j.vj_design
  | Fuzz _ | Status | Shutdown -> None

let request_filename = function
  | Sim (_, j) -> Some j.sj_filename
  | Campaign (_, j) -> Some j.cj_filename
  | Coverage (_, j) -> Some j.vj_filename
  | Fuzz _ | Status | Shutdown -> None

let request_tenant = function
  | Sim (_, j) -> j.sj_tenant
  | Campaign (_, j) -> j.cj_tenant
  | Fuzz (_, j) -> j.fj_tenant
  | Coverage (_, j) -> j.vj_tenant
  | Status | Shutdown -> None

let request_deadline = function
  | Sim (_, j) -> j.sj_deadline
  | Campaign (_, j) -> j.cj_deadline
  | Fuzz (_, j) -> j.fj_deadline
  | Coverage (_, j) -> j.vj_deadline
  | Status | Shutdown -> 0.

type sim_result = {
  sr_engine : string;
  sr_cycles : int;
  sr_halted : bool;
  sr_outputs : (string * string) list;
  sr_cache_hit : bool;
  sr_compile_seconds : float;
  sr_preemptions : int;
}

type db_result = {
  dr_kind : string;
  dr_text : string;
  dr_summary : string;
  dr_cache_hit : bool;
  dr_seconds : float;
}

type tenant_stat = {
  tn_tenant : string;
  tn_submitted : int;
  tn_completed : int;
  tn_shed : int;
  tn_expired : int;
  tn_inflight : int;
}

let tenant_conserves t =
  t.tn_submitted = t.tn_completed + t.tn_shed + t.tn_expired + t.tn_inflight

type status = {
  st_workers : int;
  st_queued : int;
  st_running : int;
  st_completed : int;
  st_rejected : int;
  st_cache_entries : int;
  st_cache_capacity : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
  st_golden_hits : int;
  st_golden_misses : int;
  st_preemptions : int;
  st_uptime : float;
  st_draining : bool;
  st_retries : int;
  st_hangs : int;
  st_worker_crashes : int;
  st_worker_restarts : int;
  st_gave_up : int;
  st_quarantined : int;
  st_quarantine_trips : int;
  st_chaos_injected : int;
  st_shed : int;
  st_over_budget : int;
  st_deadline_expired : int;
  st_tenants : tenant_stat list;
}

type error_code =
  | Generic
  | Refused
  | Queue_full
  | Timeout
  | Worker_lost
  | Quarantined
  | Protocol_violation
  | Internal
  | Over_budget
  | Deadline_exceeded
  | Overloaded

let error_code_to_string = function
  | Generic -> "error"
  | Refused -> "refused"
  | Queue_full -> "queue-full"
  | Timeout -> "timeout"
  | Worker_lost -> "worker-lost"
  | Quarantined -> "quarantined"
  | Protocol_violation -> "protocol"
  | Internal -> "internal"
  | Over_budget -> "over-budget"
  | Deadline_exceeded -> "deadline-exceeded"
  | Overloaded -> "overloaded"

(* Unknown codes decode as [Generic]: an old client keeps working when
   a newer daemon grows codes. *)
let error_code_of_string = function
  | "refused" -> Refused
  | "queue-full" -> Queue_full
  | "timeout" -> Timeout
  | "worker-lost" -> Worker_lost
  | "quarantined" -> Quarantined
  | "protocol" -> Protocol_violation
  | "internal" -> Internal
  | "over-budget" -> Over_budget
  | "deadline-exceeded" -> Deadline_exceeded
  | "overloaded" -> Overloaded
  | _ -> Generic

type error_info = {
  ei_code : error_code;
  ei_message : string;
  ei_attempts : int;
  ei_retry_after : float;
}

type response =
  | Sim_done of sim_result
  | Db_done of db_result
  | Status_ok of status
  | Shutting_down
  | Error_resp of error_info

let error_resp ?(code = Generic) ?(attempts = 1) ?(retry_after = 0.) msg =
  Error_resp
    { ei_code = code; ei_message = msg; ei_attempts = attempts;
      ei_retry_after = retry_after }

(* --- Message payloads ---------------------------------------------------- *)

let put_priority b p = put b "priority" (priority_to_string p)
let get_priority fields = priority_of_string (get fields "priority")

let put_opts b (o : engine_opts) =
  put b "engine" o.eo_engine;
  put b "backend" o.eo_backend;
  put_opt b "level" o.eo_level;
  put_int b "max-supernode" o.eo_max_supernode;
  put_int b "threads" o.eo_threads

let get_opts fields =
  {
    eo_engine = get fields "engine";
    eo_backend = get fields "backend";
    eo_level = get_opt fields "level";
    eo_max_supernode = get_int fields "max-supernode";
    eo_threads = get_int fields "threads";
  }

(* Tenant and deadline (both post-v1) ride on every job payload; the
   deadline travels as a relative budget in seconds so a queued frame
   replayed after a daemon restart still means the same thing. *)
let put_tenancy b tenant deadline =
  put_opt b "tenant" tenant;
  if deadline > 0. then put_float b "deadline" deadline

let sim_payload p (j : sim_job) =
  let b = Buffer.create (String.length j.sj_design + 256) in
  put_priority b p;
  put b "filename" j.sj_filename;
  put b "design" j.sj_design;
  put_opts b j.sj_opts;
  put_int b "cycles" j.sj_cycles;
  put_list b "poke" j.sj_pokes;
  put_opt b "token" j.sj_token;
  put_tenancy b j.sj_tenant j.sj_deadline;
  Buffer.contents b

let sim_of_fields fields =
  ( get_priority fields,
    {
      sj_filename = get fields "filename";
      sj_design = get fields "design";
      sj_opts = get_opts fields;
      sj_cycles = get_int fields "cycles";
      sj_pokes = get_list fields "poke";
      sj_token = get_opt fields "token";
      sj_tenant = get_opt fields "tenant";
      sj_deadline = get_float_default fields "deadline" 0.;
    } )

let campaign_payload p (j : campaign_job) =
  let b = Buffer.create (String.length j.cj_design + 256) in
  put_priority b p;
  put b "filename" j.cj_filename;
  put b "design" j.cj_design;
  put_opts b j.cj_opts;
  put_int b "horizon" j.cj_horizon;
  put_int b "budget" j.cj_budget;
  put_list b "fault" j.cj_faults;
  put_int b "random" j.cj_random;
  put_int b "seed" j.cj_seed;
  put_int b "duration" j.cj_duration;
  put_opt b "models" j.cj_models;
  put_list b "poke" j.cj_pokes;
  put_opt b "token" j.cj_token;
  put_tenancy b j.cj_tenant j.cj_deadline;
  Buffer.contents b

let campaign_of_fields fields =
  ( get_priority fields,
    {
      cj_filename = get fields "filename";
      cj_design = get fields "design";
      cj_opts = get_opts fields;
      cj_horizon = get_int fields "horizon";
      cj_budget = get_int fields "budget";
      cj_faults = get_list fields "fault";
      cj_random = get_int fields "random";
      cj_seed = get_int fields "seed";
      cj_duration = get_int fields "duration";
      cj_models = get_opt fields "models";
      cj_pokes = get_list fields "poke";
      cj_token = get_opt fields "token";
      cj_tenant = get_opt fields "tenant";
      cj_deadline = get_float_default fields "deadline" 0.;
    } )

let fuzz_payload p (j : fuzz_job) =
  let b = Buffer.create 128 in
  put_priority b p;
  put_int b "seed" j.fj_seed;
  put_int b "cases" j.fj_cases;
  put_int b "from" j.fj_from;
  put_int b "cycles" j.fj_cycles;
  put_opt b "setups" j.fj_setups;
  put_opt b "token" j.fj_token;
  put_tenancy b j.fj_tenant j.fj_deadline;
  Buffer.contents b

let fuzz_of_fields fields =
  ( get_priority fields,
    {
      fj_seed = get_int fields "seed";
      fj_cases = get_int fields "cases";
      fj_from = get_int fields "from";
      fj_cycles = get_int fields "cycles";
      fj_setups = get_opt fields "setups";
      fj_token = get_opt fields "token";
      fj_tenant = get_opt fields "tenant";
      fj_deadline = get_float_default fields "deadline" 0.;
    } )

let cov_payload p (j : cov_job) =
  let b = Buffer.create (String.length j.vj_design + 256) in
  put_priority b p;
  put b "filename" j.vj_filename;
  put b "design" j.vj_design;
  put_opts b j.vj_opts;
  put_int b "cycles" j.vj_cycles;
  put_list b "poke" j.vj_pokes;
  put_opt b "token" j.vj_token;
  put_tenancy b j.vj_tenant j.vj_deadline;
  Buffer.contents b

let cov_of_fields fields =
  ( get_priority fields,
    {
      vj_filename = get fields "filename";
      vj_design = get fields "design";
      vj_opts = get_opts fields;
      vj_cycles = get_int fields "cycles";
      vj_pokes = get_list fields "poke";
      vj_token = get_opt fields "token";
      vj_tenant = get_opt fields "tenant";
      vj_deadline = get_float_default fields "deadline" 0.;
    } )

let sim_result_payload (r : sim_result) =
  let b = Buffer.create 256 in
  put b "engine" r.sr_engine;
  put_int b "cycles" r.sr_cycles;
  put_bool b "halted" r.sr_halted;
  List.iter
    (fun (name, value) ->
      put b "output-name" name;
      put b "output-value" value)
    r.sr_outputs;
  put_bool b "cache-hit" r.sr_cache_hit;
  put_float b "compile-seconds" r.sr_compile_seconds;
  put_int b "preemptions" r.sr_preemptions;
  Buffer.contents b

let sim_result_of_fields fields =
  let names = get_list fields "output-name" in
  let values = get_list fields "output-value" in
  if List.length names <> List.length values then
    fail "sim result: %d output name(s) but %d value(s)" (List.length names)
      (List.length values);
  {
    sr_engine = get fields "engine";
    sr_cycles = get_int fields "cycles";
    sr_halted = get_bool fields "halted";
    sr_outputs = List.combine names values;
    sr_cache_hit = get_bool fields "cache-hit";
    sr_compile_seconds = get_float fields "compile-seconds";
    sr_preemptions = get_int fields "preemptions";
  }

let db_result_payload (r : db_result) =
  let b = Buffer.create (String.length r.dr_text + 128) in
  put b "kind" r.dr_kind;
  put b "text" r.dr_text;
  put b "summary" r.dr_summary;
  put_bool b "cache-hit" r.dr_cache_hit;
  put_float b "seconds" r.dr_seconds;
  Buffer.contents b

let db_result_of_fields fields =
  {
    dr_kind = get fields "kind";
    dr_text = get fields "text";
    dr_summary = get fields "summary";
    dr_cache_hit = get_bool fields "cache-hit";
    dr_seconds = get_float fields "seconds";
  }

let status_payload (s : status) =
  let b = Buffer.create 256 in
  put_int b "workers" s.st_workers;
  put_int b "queued" s.st_queued;
  put_int b "running" s.st_running;
  put_int b "completed" s.st_completed;
  put_int b "rejected" s.st_rejected;
  put_int b "cache-entries" s.st_cache_entries;
  put_int b "cache-capacity" s.st_cache_capacity;
  put_int b "cache-hits" s.st_cache_hits;
  put_int b "cache-misses" s.st_cache_misses;
  put_int b "cache-evictions" s.st_cache_evictions;
  put_int b "golden-hits" s.st_golden_hits;
  put_int b "golden-misses" s.st_golden_misses;
  put_int b "preemptions" s.st_preemptions;
  put_float b "uptime" s.st_uptime;
  put_bool b "draining" s.st_draining;
  put_int b "retries" s.st_retries;
  put_int b "hangs" s.st_hangs;
  put_int b "worker-crashes" s.st_worker_crashes;
  put_int b "worker-restarts" s.st_worker_restarts;
  put_int b "gave-up" s.st_gave_up;
  put_int b "quarantined" s.st_quarantined;
  put_int b "quarantine-trips" s.st_quarantine_trips;
  put_int b "chaos-injected" s.st_chaos_injected;
  put_int b "shed" s.st_shed;
  put_int b "over-budget" s.st_over_budget;
  put_int b "deadline-expired" s.st_deadline_expired;
  List.iter
    (fun t ->
      put b "tenant-name" t.tn_tenant;
      put b "tenant-counters"
        (Printf.sprintf "%d %d %d %d %d" t.tn_submitted t.tn_completed t.tn_shed
           t.tn_expired t.tn_inflight))
    s.st_tenants;
  Buffer.contents b

let tenant_stats_of_fields fields =
  let names = get_list fields "tenant-name" in
  let counters = get_list fields "tenant-counters" in
  if List.length names <> List.length counters then
    fail "status: %d tenant name(s) but %d counter row(s)" (List.length names)
      (List.length counters);
  List.map2
    (fun name row ->
      match
        String.split_on_char ' ' row |> List.filter (fun s -> s <> "")
        |> List.map int_of_string_opt
      with
      | [ Some sub; Some comp; Some shed; Some exp_; Some infl ] ->
        { tn_tenant = name; tn_submitted = sub; tn_completed = comp; tn_shed = shed;
          tn_expired = exp_; tn_inflight = infl }
      | _ -> fail "status: malformed tenant counters %S" row)
    names counters

let status_of_fields fields =
  {
    st_workers = get_int fields "workers";
    st_queued = get_int fields "queued";
    st_running = get_int fields "running";
    st_completed = get_int fields "completed";
    st_rejected = get_int fields "rejected";
    st_cache_entries = get_int fields "cache-entries";
    st_cache_capacity = get_int fields "cache-capacity";
    st_cache_hits = get_int fields "cache-hits";
    st_cache_misses = get_int fields "cache-misses";
    st_cache_evictions = get_int fields "cache-evictions";
    st_golden_hits = get_int fields "golden-hits";
    st_golden_misses = get_int fields "golden-misses";
    st_preemptions = get_int fields "preemptions";
    st_uptime = get_float fields "uptime";
    st_draining = get_bool fields "draining";
    st_retries = get_int_default fields "retries" 0;
    st_hangs = get_int_default fields "hangs" 0;
    st_worker_crashes = get_int_default fields "worker-crashes" 0;
    st_worker_restarts = get_int_default fields "worker-restarts" 0;
    st_gave_up = get_int_default fields "gave-up" 0;
    st_quarantined = get_int_default fields "quarantined" 0;
    st_quarantine_trips = get_int_default fields "quarantine-trips" 0;
    st_chaos_injected = get_int_default fields "chaos-injected" 0;
    st_shed = get_int_default fields "shed" 0;
    st_over_budget = get_int_default fields "over-budget" 0;
    st_deadline_expired = get_int_default fields "deadline-expired" 0;
    st_tenants = tenant_stats_of_fields fields;
  }

(* --- Frames -------------------------------------------------------------- *)

let frame_to_string ~kind payload =
  let n = String.length payload in
  if n > max_payload then fail "frame payload %d byte(s) exceeds maximum %d" n max_payload;
  if kind < 0 || kind > 255 then fail "frame kind %d out of range" kind;
  let b = Buffer.create (n + header_size) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  Buffer.add_char b (Char.chr kind);
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let parse_header h =
  (* [h] is exactly [header_size] bytes. *)
  if String.sub h 0 4 <> magic then fail "bad magic (not a gsimd peer?)";
  let v = Char.code h.[4] in
  if v <> version then fail "unsupported protocol version %d (this build speaks %d)" v version;
  let kind = Char.code h.[5] in
  let n =
    (Char.code h.[6] lsl 24) lor (Char.code h.[7] lsl 16) lor (Char.code h.[8] lsl 8)
    lor Char.code h.[9]
  in
  if n > max_payload then fail "frame length %d exceeds maximum %d" n max_payload;
  (kind, n)

let frame_of_string s =
  let len = String.length s in
  if len < header_size then
    fail "truncated frame: %d byte(s), header needs %d" len header_size;
  let kind, n = parse_header (String.sub s 0 header_size) in
  if len <> header_size + n then
    fail "truncated frame: payload has %d of %d byte(s)" (len - header_size) n;
  (kind, String.sub s header_size n)

(* Kind tags: requests 0x01-0x3f, responses 0x41-0x7f. *)

let encode_request = function
  | Sim (p, j) -> frame_to_string ~kind:0x01 (sim_payload p j)
  | Campaign (p, j) -> frame_to_string ~kind:0x02 (campaign_payload p j)
  | Fuzz (p, j) -> frame_to_string ~kind:0x03 (fuzz_payload p j)
  | Coverage (p, j) -> frame_to_string ~kind:0x04 (cov_payload p j)
  | Status -> frame_to_string ~kind:0x05 ""
  | Shutdown -> frame_to_string ~kind:0x06 ""

let request_of_frame kind payload =
  let fields () = fields_of_string payload in
  match kind with
  | 0x01 ->
    let p, j = sim_of_fields (fields ()) in
    Sim (p, j)
  | 0x02 ->
    let p, j = campaign_of_fields (fields ()) in
    Campaign (p, j)
  | 0x03 ->
    let p, j = fuzz_of_fields (fields ()) in
    Fuzz (p, j)
  | 0x04 ->
    let p, j = cov_of_fields (fields ()) in
    Coverage (p, j)
  | 0x05 -> Status
  | 0x06 -> Shutdown
  | k -> fail "unknown request kind 0x%02x" k

let decode_request s =
  let kind, payload = frame_of_string s in
  request_of_frame kind payload

let encode_response = function
  | Sim_done r -> frame_to_string ~kind:0x41 (sim_result_payload r)
  | Db_done r -> frame_to_string ~kind:0x42 (db_result_payload r)
  | Status_ok s -> frame_to_string ~kind:0x43 (status_payload s)
  | Shutting_down -> frame_to_string ~kind:0x44 ""
  | Error_resp e ->
    let b = Buffer.create 64 in
    put b "message" e.ei_message;
    put b "code" (error_code_to_string e.ei_code);
    put_int b "attempts" e.ei_attempts;
    if e.ei_retry_after > 0. then put_float b "retry-after" e.ei_retry_after;
    frame_to_string ~kind:0x45 (Buffer.contents b)

let response_of_frame kind payload =
  match kind with
  | 0x41 -> Sim_done (sim_result_of_fields (fields_of_string payload))
  | 0x42 -> Db_done (db_result_of_fields (fields_of_string payload))
  | 0x43 -> Status_ok (status_of_fields (fields_of_string payload))
  | 0x44 -> Shutting_down
  | 0x45 ->
    let fields = fields_of_string payload in
    Error_resp
      {
        ei_message = get fields "message";
        ei_code =
          (match get_opt fields "code" with
           | Some c -> error_code_of_string c
           | None -> Generic);
        ei_attempts = get_int_default fields "attempts" 1;
        ei_retry_after = get_float_default fields "retry-after" 0.;
      }
  | k -> fail "unknown response kind 0x%02x" k

let decode_response s =
  let kind, payload = frame_of_string s in
  response_of_frame kind payload

(* --- Channel I/O --------------------------------------------------------- *)

let read_exact ic n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = input ic buf off (n - off) in
      if r = 0 then fail "truncated frame: connection closed after %d of %d byte(s)" off n;
      go (off + r)
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let read_frame ic =
  match input_char ic with
  | exception End_of_file -> None  (* clean EOF at a frame boundary *)
  | first ->
    let header = String.make 1 first ^ read_exact ic (header_size - 1) in
    let kind, n = parse_header header in
    Some (kind, if n = 0 then "" else read_exact ic n)

let write_frame oc frame =
  output_string oc frame;
  flush oc

let read_request ic =
  Option.map (fun (kind, payload) -> request_of_frame kind payload) (read_frame ic)

let write_request oc r = write_frame oc (encode_request r)

let read_response ic =
  Option.map (fun (kind, payload) -> response_of_frame kind payload) (read_frame ic)

let write_response oc r = write_frame oc (encode_response r)
