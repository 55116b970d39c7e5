module Pipeline = Gsim_passes.Pipeline
module Pass = Gsim_passes.Pass
module Partition = Gsim_partition.Partition
module Sim = Gsim_engine.Sim
module Activity = Gsim_engine.Activity
module Full_cycle = Gsim_engine.Full_cycle
module Parallel = Gsim_engine.Parallel
module Runtime = Gsim_engine.Runtime
module Reference = Gsim_ir.Reference
open Gsim_ir

type engine_kind =
  | Reference_engine
  | Full_cycle_engine of int
  | Essent_engine
  | Gsim_engine_kind

type config = {
  config_name : string;
  opt_level : Pipeline.level;
  engine : engine_kind;
  partition_algorithm : string;
  max_supernode : int;
  activation : Activity.activation_strategy;
  packed_exam : bool;
  backend : Gsim_engine.Eval.backend;
}

let verilator ?(threads = 1) () =
  {
    config_name = (if threads = 1 then "verilator" else Printf.sprintf "verilator-%dT" threads);
    opt_level = Pipeline.O1;
    engine = Full_cycle_engine threads;
    partition_algorithm = "none";
    max_supernode = 1;
    activation = Activity.Branch;
    packed_exam = false;
    backend = Gsim_engine.Eval.default;
  }

let arcilator =
  {
    config_name = "arcilator";
    opt_level = Pipeline.O2;
    engine = Full_cycle_engine 1;
    partition_algorithm = "none";
    max_supernode = 1;
    activation = Activity.Branch;
    packed_exam = false;
    backend = Gsim_engine.Eval.default;
  }

let essent =
  {
    config_name = "essent";
    opt_level = Pipeline.O1;
    engine = Essent_engine;
    partition_algorithm = "mffc";
    max_supernode = 20;
    activation = Activity.Branchless;
    packed_exam = false;
    backend = Gsim_engine.Eval.default;
  }

let gsim =
  (* Max supernode 8: the Fig. 9 sweep's optimum on this substrate, where
     examining an active bit is an array test rather than a
     branch-predictor-limited branch, sits at smaller sizes than the
     paper's 20-50. *)
  {
    config_name = "gsim";
    opt_level = Pipeline.O3;
    engine = Gsim_engine_kind;
    partition_algorithm = "gsim";
    max_supernode = 8;
    activation = Activity.Cost_model;
    packed_exam = true;
    backend = Gsim_engine.Eval.default;
  }

let gsim_with ?(max_supernode = 8) ?(partition_algorithm = "gsim")
    ?(opt_level = Pipeline.O3) ?(activation = Activity.Cost_model) ?(packed_exam = true)
    ?(backend = Gsim_engine.Eval.default) () =
  {
    gsim with
    config_name =
      Printf.sprintf "gsim[%s,%d,%s]" partition_algorithm max_supernode
        (Pipeline.level_to_string opt_level);
    max_supernode;
    partition_algorithm;
    opt_level;
    activation;
    packed_exam;
    backend;
  }

let reference =
  {
    config_name = "reference";
    opt_level = Pipeline.O0;
    engine = Reference_engine;
    partition_algorithm = "none";
    max_supernode = 1;
    activation = Activity.Branch;
    packed_exam = false;
    backend = Gsim_engine.Eval.default;
  }

let all_presets =
  [ reference; verilator (); verilator ~threads:2 (); verilator ~threads:4 ();
    verilator ~threads:8 (); arcilator; essent; gsim ]

type compiled = {
  sim : Sim.t;
  id_map : int array;
  outcomes : Pass.outcome list;
  supernodes : int;
  activity : Activity.t option;
  runtime : Runtime.t option;
  destroy : unit -> unit;
}

(* The compile pipeline is split in two so that its expensive front half
   (copy, output marking, acyclicity check, pass pipeline, partitioning)
   can be cached and shared — [realize_prepared] only {e reads} the
   prepared circuit, so one [prepared] can back any number of concurrent
   engine instances (the daemon's plan cache relies on this). *)
type prepared = {
  p_config : config;
  p_circuit : Circuit.t;  (* optimized private copy *)
  p_partition : Partition.t option;  (* for the activity engines *)
  p_id_map : int array;
  p_outcomes : Pass.outcome list;
  p_forcible : int list;  (* forcible ids mapped into the optimized circuit *)
  p_digest : Digest.t option Atomic.t;
      (* [Circuit.digest p_circuit], walked on the first realize that asks
         for the native object and shared by every later one *)
}

let prepare_exn ~compact ~forcible ~keep config circuit =
  let c = Circuit.copy circuit in
  (* Fault-injection targets must survive optimization with their
     consumers still reading them: output-marked nodes are never aliased,
     inlined or dead-code eliminated, at any opt level — which is what
     keeps per-fault behaviour identical across presets.  [keep] nodes
     get the same survival guarantee without the engines' force plumbing
     (campaigns keep every register so the architectural-state compare
     sees the same state set under every preset). *)
  List.iter
    (fun id ->
      match Circuit.node_opt c id with
      | Some _ -> Circuit.mark_output c id
      | None -> ())
    (keep @ forcible);
  let original_max = Circuit.max_id c in
  (* Detect combinational loops up front, while node ids still match the
     caller's circuit (compaction would renumber the witness). *)
  Circuit.check_acyclic c;
  let outcomes = Pipeline.optimize ~level:config.opt_level c in
  let id_map =
    if compact then begin
      let map = Circuit.compact c in
      Circuit.validate c;
      map
    end
    else Array.init (Circuit.max_id c) (fun i -> i)
  in
  let id_map =
    (* Identity-extend so callers can index with original ids. *)
    Array.init original_max (fun i -> if i < Array.length id_map then id_map.(i) else -1)
  in
  let forcible_ids =
    List.filter_map
      (fun id ->
        if id >= 0 && id < Array.length id_map && id_map.(id) >= 0 then Some id_map.(id)
        else None)
      forcible
    |> List.sort_uniq compare
  in
  let partition =
    match config.engine with
    | Essent_engine | Gsim_engine_kind -> (
      match Partition.algorithm_of_string config.partition_algorithm with
      | Some algo -> Some (algo c ~max_size:config.max_supernode)
      | None ->
        invalid_arg
          (Printf.sprintf "Gsim.instantiate: unknown partition %S"
             config.partition_algorithm))
    | Reference_engine | Full_cycle_engine _ -> None
  in
  {
    p_config = config;
    p_circuit = c;
    p_partition = partition;
    p_id_map = id_map;
    p_outcomes = outcomes;
    p_forcible = forcible_ids;
    p_digest = Atomic.make None;
  }

(* Concurrent first realizes may both walk; they store the same value. *)
let prepared_digest p () =
  match Atomic.get p.p_digest with
  | Some d -> d
  | None ->
    let d = Circuit.digest p.p_circuit in
    Atomic.set p.p_digest (Some d);
    d

let realize_prepared p =
  let config = p.p_config in
  let c = p.p_circuit in
  let digest = prepared_digest p in
  let sim, supernodes, activity, runtime, destroy =
    match (config.engine, p.p_partition) with
    | Reference_engine, _ ->
      (Sim.of_reference (Reference.create c), 0, None, None, fun () -> ())
    | Full_cycle_engine 1, _ ->
      let t = Full_cycle.create ~backend:config.backend ~digest ~forcible:p.p_forcible c in
      (Full_cycle.sim t, 0, None, Some (Full_cycle.runtime t), fun () -> ())
    | Full_cycle_engine threads, _ ->
      let t = Parallel.create ~backend:config.backend ~digest ~forcible:p.p_forcible ~threads c in
      (Parallel.sim t, 0, None, Some (Parallel.runtime t), fun () -> Parallel.destroy t)
    | (Essent_engine | Gsim_engine_kind), Some part ->
      let t =
        Activity.create
          ~config:{ Activity.packed_exam = config.packed_exam; activation = config.activation }
          ~backend:config.backend ~digest ~forcible:p.p_forcible c part
      in
      ( Activity.sim ~name:config.config_name t,
        Array.length part.Partition.supernodes,
        Some t,
        Some (Activity.runtime t),
        fun () -> () )
    | (Essent_engine | Gsim_engine_kind), None ->
      (* prepare_exn always computes a partition for activity engines. *)
      assert false
  in
  let sim = { sim with Sim.sim_name = config.config_name } in
  { sim; id_map = p.p_id_map; outcomes = p.p_outcomes; supernodes; activity; runtime; destroy }

let instantiate_exn ~compact ~forcible ~keep config circuit =
  realize_prepared (prepare_exn ~compact ~forcible ~keep config circuit)

let instantiate ?(compact = false) ?(forcible = []) ?(keep = []) config circuit =
  (* A combinational loop surfaces as [Circuit.Combinational_cycle] from
     whichever stage first needs a topological order (passes, partitioning
     or engine construction); turn it into a [Failure] that names the
     nodes on the loop instead of escaping as a raw exception. *)
  match instantiate_exn ~compact ~forcible ~keep config circuit with
  | compiled -> compiled
  | exception Circuit.Combinational_cycle ids ->
    failwith (Circuit.cycle_diagnostic circuit ids)

let load_firrtl_string src =
  let { Gsim_firrtl.Firrtl.circuit; halt } = Gsim_firrtl.Firrtl.load_string src in
  (circuit, halt)

let load_firrtl_file path =
  let { Gsim_firrtl.Firrtl.circuit; halt } = Gsim_firrtl.Firrtl.load_file path in
  (circuit, halt)

let load_verilog_string src = Gsim_verilog.Verilog.load_string src

let load_verilog_file path = Gsim_verilog.Verilog.load_file path

let load_design_file path =
  if Filename.check_suffix path ".v" then (load_verilog_file path, None)
  else load_firrtl_file path

let config_of_names ~engine ~threads ~level ~max_supernode ~backend =
  let level =
    Option.map
      (fun l ->
        match Pipeline.level_of_string l with
        | Some l -> l
        | None -> failwith (Printf.sprintf "unknown optimization level %S" l))
      level
  in
  let backend =
    match Gsim_engine.Eval.of_string backend with
    | Some b -> b
    | None ->
      failwith
        (Printf.sprintf "unknown backend %S (%s)" backend Gsim_engine.Eval.names)
  in
  let base =
    match engine with
    | "verilator" -> verilator ~threads ()
    | "arcilator" -> arcilator
    | "essent" -> essent
    | "gsim" -> gsim_with ~max_supernode ()
    | "reference" -> reference
    | other -> failwith (Printf.sprintf "unknown engine %S" other)
  in
  let base = { base with backend } in
  match level with Some opt_level -> { base with opt_level } | None -> base

module Compile = struct
  type source = { circuit : Circuit.t; halt : int option; hash : string }

  let hash_circuit c = Digest.to_hex (Circuit.digest c)

  let of_circuit ?halt circuit = { circuit; halt; hash = hash_circuit circuit }

  let source_of_string ~filename text =
    if Filename.check_suffix filename ".v" then of_circuit (load_verilog_string text)
    else
      let circuit, halt = load_firrtl_string text in
      of_circuit ?halt circuit

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let source_of_file path = source_of_string ~filename:path (read_file path)

  let fingerprint (config : config) =
    let engine =
      match config.engine with
      | Reference_engine -> "reference"
      | Full_cycle_engine threads -> Printf.sprintf "full-cycle:%d" threads
      | Essent_engine -> "essent"
      | Gsim_engine_kind -> "gsim"
    in
    let activation =
      match config.activation with
      | Activity.Branch -> "branch"
      | Activity.Branchless -> "branchless"
      | Activity.Cost_model -> "cost-model"
    in
    Printf.sprintf "%s|%s|%s|%d|%s|%b|%s" engine
      (Pipeline.level_to_string config.opt_level)
      config.partition_algorithm config.max_supernode activation config.packed_exam
      (Gsim_engine.Eval.to_string config.backend)

  type plan = { plan_prepared : prepared; plan_hash : string; plan_halt : int option }

  let prepare ?(forcible = []) ?(keep = []) config source =
    match prepare_exn ~compact:false ~forcible ~keep config source.circuit with
    | p ->
      let halt =
        Option.bind source.halt (fun h ->
            if h >= 0 && h < Array.length p.p_id_map && p.p_id_map.(h) >= 0 then
              Some p.p_id_map.(h)
            else None)
      in
      { plan_prepared = p; plan_hash = source.hash; plan_halt = halt }
    | exception Circuit.Combinational_cycle ids ->
      failwith (Circuit.cycle_diagnostic source.circuit ids)

  let realize plan = realize_prepared plan.plan_prepared
  let plan_halt plan = plan.plan_halt
  let plan_hash plan = plan.plan_hash
  let plan_circuit plan = plan.plan_prepared.p_circuit
  let plan_config plan = plan.plan_prepared.p_config
  let key source config = source.hash ^ "#" ^ fingerprint config
  let plan_key plan = plan.plan_hash ^ "#" ^ fingerprint plan.plan_prepared.p_config

  let load ?forcible ?keep config path =
    let source = source_of_file path in
    let plan = prepare ?forcible ?keep config source in
    (source, realize plan)
end

let emit_cpp config circuit =
  let c = Circuit.copy circuit in
  ignore (Pipeline.optimize ~level:config.opt_level c);
  (* Dense ids: the unit's narrow arena has one slot per id. *)
  ignore (Circuit.compact c);
  let mode =
    match config.engine with
    | Reference_engine | Full_cycle_engine _ -> Gsim_emit.Emit.Full_cycle_mode
    | Essent_engine -> Gsim_emit.Emit.Essent_mode
    | Gsim_engine_kind -> Gsim_emit.Emit.Gsim_mode
  in
  let partition =
    match config.engine with
    | Essent_engine | Gsim_engine_kind ->
      Partition.algorithm_of_string config.partition_algorithm
      |> Option.map (fun algo -> algo c ~max_size:config.max_supernode)
    | Reference_engine | Full_cycle_engine _ -> None
  in
  Gsim_emit.Emit.emit ~mode ?partition c
