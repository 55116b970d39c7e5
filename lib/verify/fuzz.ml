module Bits = Gsim_bits.Bits
module Sim = Gsim_engine.Sim
module Eval = Gsim_engine.Eval
module Pipeline = Gsim_passes.Pipeline
module Gsim = Gsim_core.Gsim
open Gsim_ir

(* ------------------------------------------------------------------ *)
(* Setups: the engine preset x backend matrix under test               *)

type setup = {
  s_name : string;                    (* "<engine>+<backend>" *)
  s_engine : string;                  (* preset name *)
  s_backend : Eval.backend;
  s_level : Pipeline.level;
}

let preset_of_engine = function
  | "verilator" -> Gsim.verilator ()
  | "arcilator" -> Gsim.arcilator
  | "essent" -> Gsim.essent
  | "gsim" -> Gsim.gsim
  | e -> Printf.ksprintf failwith "fuzz: unknown engine preset %S" e

let setup_of_name ?level name =
  match String.split_on_char '+' name with
  | [ engine; backend ] -> (
    match Eval.of_string backend with
    | Some b ->
      let preset = preset_of_engine engine in
      { s_name = name;
        s_engine = engine;
        s_backend = b;
        s_level = Option.value level ~default:preset.Gsim.opt_level }
    | None -> Printf.ksprintf failwith "fuzz: unknown backend in %S (%s)" name Eval.names)
  | _ -> Printf.ksprintf failwith "fuzz: bad setup name %S (want engine+backend)" name

(* Closures on every preset; native joins the sweep only when a C
   compiler is present (two presets are enough: full-cycle covers the plan
   path, gsim the per-node activity path).  Without [cc] the matrix
   shrinks cleanly rather than filling the campaign with
   fallback-degraded subjects. *)
let default_setups =
  let make engine backend =
    let preset = preset_of_engine engine in
    { s_name = Printf.sprintf "%s+%s" engine (Eval.to_string backend);
      s_engine = engine;
      s_backend = backend;
      s_level = preset.Gsim.opt_level }
  in
  List.map
    (fun engine -> make engine `Closures)
    [ "verilator"; "arcilator"; "essent"; "gsim" ]
  @ (if Gsim_engine.Native.available () then
       [ make "verilator" `Native; make "gsim" `Native ]
     else [])

let setups_of_string = function
  | None -> default_setups
  | Some s -> List.map (fun name -> setup_of_name name) (String.split_on_char ',' s)

let setup_config ?level s =
  let preset = preset_of_engine s.s_engine in
  { preset with
    Gsim.config_name = s.s_name;
    backend = s.s_backend;
    opt_level = Option.value level ~default:s.s_level }

(* Engines run the optimized circuit; the oracle speaks original node
   ids.  Translate through the instantiation id map. *)
let wrap_compiled (compiled : Gsim.compiled) : Sim.t =
  let m = compiled.Gsim.id_map in
  let tr id =
    if id >= 0 && id < Array.length m && m.(id) >= 0 then m.(id)
    else Printf.ksprintf failwith "fuzz: node %d was optimized away" id
  in
  let sim = compiled.Gsim.sim in
  { sim with
    Sim.poke = (fun id v -> sim.Sim.poke (tr id) v);
    peek = (fun id -> sim.Sim.peek (tr id));
    peek_int = (fun id -> sim.Sim.peek_int (tr id));
    write_reg = (fun id v -> sim.Sim.write_reg (tr id) v);
    force = (fun ?mask id v -> sim.Sim.force ?mask (tr id) v);
    release = (fun id -> sim.Sim.release (tr id)) }

let subject_of_setup ?level ?(forcible = []) s =
  { Oracle.subject_name = s.s_name;
    build =
      (fun c ->
        let compiled = Gsim.instantiate ~forcible (setup_config ?level s) c in
        (wrap_compiled compiled, compiled.Gsim.destroy)) }

(* ------------------------------------------------------------------ *)
(* Campaign configuration                                              *)

type campaign = {
  seed : int;
  cases : int;                (* case indices [start_case, start_case+cases) *)
  start_case : int;
  seconds : float option;     (* wall-clock budget for the whole campaign *)
  cycles : int;               (* stimulus length per case *)
  gen : Rand_circuit.config;
  setups : setup list;
  watchdog : float;
  shrink_budget : int;
  dir : string;
  inject_miscompile : bool;   (* test-only canary: Simplify.test_miscompile *)
}

let default_campaign =
  { seed = 1;
    cases = 200;
    start_case = 0;
    seconds = None;
    cycles = 12;
    gen = Rand_circuit.default_config;
    setups = default_setups;
    watchdog = 10.0;
    shrink_budget = 400;
    dir = "fuzz-out";
    inject_miscompile = false }

let with_miscompile enabled f =
  if not enabled then f ()
  else begin
    let saved = !Gsim_passes.Simplify.test_miscompile in
    Gsim_passes.Simplify.test_miscompile := true;
    Fun.protect
      ~finally:(fun () -> Gsim_passes.Simplify.test_miscompile := saved)
      f
  end

(* Deterministic per-case variety: cycle through circuit shapes so one
   campaign covers narrow/wide, with/without memory, small/large. *)
let vary_gen base idx =
  let sizes = [| 12; 24; 40; 64 |] in
  let widths = [| 8; 16; 33; 70 |] in
  { base with
    Rand_circuit.logic_nodes = sizes.(idx mod 4);
    num_registers = 2 + (idx mod 5);
    max_width = widths.((idx / 4) mod 4);
    with_memory = idx mod 3 <> 2 }

(* ------------------------------------------------------------------ *)
(* Diagnosis: shrink, then bisect                                      *)

type diagnosis = {
  d_circuit : Circuit.t;             (* shrunk, compacted *)
  d_steps : Oracle.step array;
  d_failure : Oracle.failure;        (* on the shrunk pair *)
  d_culprit : Bisect.culprit;
  d_checks : int;
}

let single_outcome = function
  | [ { Oracle.o_failure; _ } ] -> o_failure
  | _ -> None

let diagnose ~watchdog ~shrink_budget setup circuit steps failure =
  let subj = subject_of_setup setup in
  let check c s =
    try
      match single_outcome (Oracle.run ~watchdog c s [ subj ]) with
      | Some f -> Oracle.same_class f failure
      | None -> false
    with _ -> false
  in
  let sh = Shrink.run ~budget:shrink_budget ~check circuit steps in
  let final_failure =
    try
      match
        single_outcome (Oracle.run ~watchdog sh.Shrink.circuit sh.Shrink.steps [ subj ])
      with
      | Some f -> f
      | None -> failure
    with _ -> failure
  in
  (* Bisection tests every candidate against the ORIGINAL (shrunk,
     unoptimized) reference trace — see Oracle.run_against. *)
  let observe = Oracle.default_observe sh.Shrink.circuit in
  let expected =
    try Some (Oracle.reference_trace sh.Shrink.circuit sh.Shrink.steps observe)
    with _ -> None
  in
  let test_with s c =
    match expected with
    | None -> false
    | Some expected -> (
      try
        match
          single_outcome
            (Oracle.run_against ~watchdog ~observe ~expected c sh.Shrink.steps
               [ subject_of_setup ~level:Pipeline.O0 s ])
        with
        | Some f -> Oracle.same_class f failure
        | None -> false
      with _ -> false)
  in
  let test_alt =
    (* The bisection's alternate flips closures <-> native (auto runs
       fuzz-sized circuits through closures).  Without a C compiler there
       is no alternate, and backend bisection is skipped. *)
    if not (Gsim_engine.Native.available ()) then None
    else
      let alt_backend =
        match setup.s_backend with `Native -> `Closures | `Closures | `Auto -> `Native
      in
      Some
        (test_with
           { setup with
             s_backend = alt_backend;
             s_name = Printf.sprintf "%s+%s" setup.s_engine (Eval.to_string alt_backend) })
  in
  let culprit =
    Bisect.run ~level:setup.s_level ~engine_name:setup.s_engine
      ~backend_name:(Eval.to_string setup.s_backend)
      ?test_alt ~test:(test_with setup) sh.Shrink.circuit
  in
  { d_circuit = sh.Shrink.circuit;
    d_steps = sh.Shrink.steps;
    d_failure = final_failure;
    d_culprit = culprit;
    d_checks = sh.Shrink.checks_used }

(* ------------------------------------------------------------------ *)
(* The campaign loop                                                   *)

let level_string l = Pipeline.level_to_string l

let run_case camp idx =
  let st = Random.State.make [| camp.seed; idx; 0x5eed |] in
  let gen = vary_gen camp.gen idx in
  let circuit = Rand_circuit.generate st gen in
  let steps =
    Oracle.steps_of_stimulus
      (Rand_circuit.random_stimulus st circuit ~cycles:camp.cycles)
  in
  let subjects = List.map (fun s -> subject_of_setup s) camp.setups in
  match Oracle.run ~watchdog:camp.watchdog circuit steps subjects with
  | exception _ -> (`Ok, None) (* the reference itself rejected the case *)
  | outcomes -> (
    match Oracle.first_failure outcomes with
    | None -> (`Ok, None)
    | Some (subject_name, failure) ->
      let setup = List.find (fun s -> s.s_name = subject_name) camp.setups in
      let d =
        diagnose ~watchdog:camp.watchdog ~shrink_budget:camp.shrink_budget
          setup circuit steps failure
      in
      let repro =
        Repro.of_failure ~seed:camp.seed ~case:idx ~subject:subject_name
          ~level:(level_string setup.s_level) ~culprit:d.d_culprit d.d_circuit
          d.d_steps d.d_failure
      in
      (`Fail (subject_name, d), Some repro))

let next_repro_number dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 1
  | entries ->
    Array.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "fuzz-%d.rpt" (fun n -> n) with
        | Some n -> max acc (n + 1)
        | None -> acc)
      1 entries

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

type result = {
  db : Corpus.t;
  ran : int;                  (* cases executed this invocation *)
  skipped : int;              (* already present in the corpus *)
  out_of_time : bool;
}

let run ?(resume = false) ?(log = fun _ -> ()) camp =
  ensure_dir camp.dir;
  let db_path = Filename.concat camp.dir "fuzz.db" in
  let db =
    if resume && Sys.file_exists db_path then begin
      let db = Corpus.load ~lenient:true db_path in
      if db.Corpus.seed <> 0 && db.Corpus.seed <> camp.seed then
        Printf.ksprintf failwith
          "fuzz: corpus %s was recorded with seed %d, not %d" db_path
          db.Corpus.seed camp.seed;
      db.Corpus.seed <- camp.seed;
      db
    end
    else Corpus.create ~seed:camp.seed ()
  in
  Corpus.init_file db_path db;
  let seen_buckets = Hashtbl.create 8 in
  List.iter
    (fun (_, f) -> Hashtbl.replace seen_buckets (Corpus.bucket_of f) ())
    (Corpus.failures db);
  let repro_no = ref (next_repro_number camp.dir) in
  let start = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> start +. s) camp.seconds in
  let ran = ref 0 and skipped = ref 0 in
  let out_of_time = ref false in
  with_miscompile camp.inject_miscompile (fun () ->
      let idx = ref camp.start_case in
      let stop = camp.start_case + camp.cases in
      while !idx < stop && not !out_of_time do
        (match deadline with
         | Some d when Unix.gettimeofday () > d -> out_of_time := true
         | _ -> ());
        if not !out_of_time then begin
          if Corpus.mem db !idx then incr skipped
          else begin
            let outcome, repro = run_case camp !idx in
            let entry =
              match (outcome, repro) with
              | `Ok, _ -> Corpus.Ok
              | `Fail (subject_name, d), Some repro ->
                let bucket = repro.Repro.bucket in
                let filename =
                  if Hashtbl.mem seen_buckets bucket then None
                  else begin
                    Hashtbl.replace seen_buckets bucket ();
                    let name = Printf.sprintf "fuzz-%03d.rpt" !repro_no in
                    incr repro_no;
                    Repro.save (Filename.concat camp.dir name) repro;
                    Some name
                  end
                in
                log
                  (Printf.sprintf
                     "case %d: %s FAILED (%s) -> %s, shrunk to %d nodes / %d cycles%s"
                     !idx subject_name
                     (Oracle.failure_kind d.d_failure)
                     (Bisect.culprit_to_string d.d_culprit)
                     (Circuit.node_count d.d_circuit)
                     (Array.length d.d_steps)
                     (match filename with
                      | Some f -> ", repro " ^ f
                      | None -> " (duplicate bucket)"));
                Corpus.Fail
                  { Corpus.f_subject = subject_name;
                    f_kind = Oracle.failure_kind d.d_failure;
                    f_culprit = Bisect.culprit_token d.d_culprit;
                    f_nodes = Circuit.node_count d.d_circuit;
                    f_cycles = Array.length d.d_steps;
                    f_repro = filename }
              | `Fail _, None -> assert false
            in
            Corpus.add db !idx entry;
            Corpus.append_record db_path !idx entry;
            incr ran
          end;
          incr idx
        end
      done);
  Corpus.save db_path db;
  { db; ran = !ran; skipped = !skipped; out_of_time = !out_of_time }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let failure_signature circuit = function
  | Oracle.Mismatch m ->
    Printf.sprintf "mismatch:%s@%d"
      (Circuit.node circuit m.Oracle.node_id).Circuit.name m.Oracle.at_cycle
  | Oracle.Crash _ -> "crash"
  | Oracle.Hang _ -> "hang"

type replay_result = {
  rp_repro : Repro.t;
  rp_expected_signature : string;
  rp_actual : string;          (* signature, or "no failure" *)
  rp_reproduced : bool;
}

let replay ?(watchdog = 10.0) ?(inject_miscompile = false) path =
  let r = Repro.load path in
  let circuit, steps = Repro.rebuild r in
  let level =
    match Pipeline.level_of_string r.Repro.level with
    | Some l -> l
    | None -> Printf.ksprintf failwith "fuzz: bad level %S in repro" r.Repro.level
  in
  let setup = setup_of_name ~level r.Repro.subject in
  let subj = subject_of_setup setup in
  with_miscompile inject_miscompile (fun () ->
      let actual =
        match single_outcome (Oracle.run ~watchdog circuit steps [ subj ]) with
        | Some f -> failure_signature circuit f
        | None -> "no failure"
        | exception e -> "replay error: " ^ Printexc.to_string e
      in
      let expected = Repro.signature r in
      { rp_repro = r;
        rp_expected_signature = expected;
        rp_actual = actual;
        rp_reproduced = String.equal expected actual })

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

let report_text (db : Corpus.t) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let failures = Corpus.failures db in
  add "fuzz corpus: seed %d, %d cases, %d failing\n" db.Corpus.seed
    (Corpus.count db) (List.length failures);
  let buckets = Corpus.buckets db in
  if buckets <> [] then begin
    add "buckets:\n";
    List.iter
      (fun (s : Corpus.bucket_stats) ->
        add "  %-32s %4d case(s)  min %d nodes / %d cycles  %s\n" s.Corpus.b_bucket
          s.Corpus.b_count s.Corpus.b_min_nodes s.Corpus.b_min_cycles
          (match s.Corpus.b_repro with Some r -> r | None -> "-"))
      buckets
  end;
  Buffer.contents b

let report_json (db : Corpus.t) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let failures = Corpus.failures db in
  add "{\"seed\":%d,\"cases\":%d,\"failing\":%d,\"buckets\":[" db.Corpus.seed
    (Corpus.count db) (List.length failures);
  List.iteri
    (fun i (s : Corpus.bucket_stats) ->
      if i > 0 then add ",";
      add
        "{\"bucket\":%S,\"count\":%d,\"min_nodes\":%d,\"min_cycles\":%d,\"repro\":%s}"
        s.Corpus.b_bucket s.Corpus.b_count s.Corpus.b_min_nodes
        s.Corpus.b_min_cycles
        (match s.Corpus.b_repro with
         | Some r -> Printf.sprintf "%S" r
         | None -> "null"))
    (Corpus.buckets db);
  add "]}";
  Buffer.contents b
