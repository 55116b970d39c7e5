(** GSIM — top-level compilation pipeline.

    This is the library's primary entry point: load a design (FIRRTL text
    or an in-memory {!Gsim_ir.Circuit.t}), pick a simulator configuration,
    and get a runnable {!Gsim_engine.Sim.t}.

    The presets reproduce the simulator families the paper evaluates:

    - {!verilator} (optionally multi-threaded): full-cycle evaluation of
      every node with baseline expression optimization;
    - {!arcilator}: full-cycle with aggressive IR optimization;
    - {!essent}: essential-signal simulation with MFFC supernodes and
      branch-free activation;
    - {!gsim}: the paper's simulator — every node/bit-level optimization,
      correlation-aware supernodes, packed active-bit examination,
      cost-model activation, slow-path reset. *)

open Gsim_ir

type engine_kind =
  | Reference_engine
  | Full_cycle_engine of int  (** thread count; 1 = single-threaded *)
  | Essent_engine
  | Gsim_engine_kind

type config = {
  config_name : string;
  opt_level : Gsim_passes.Pipeline.level;
  engine : engine_kind;
  partition_algorithm : string;  (** "none" | "kernighan" | "mffc" | "gsim" *)
  max_supernode : int;
  activation : Gsim_engine.Activity.activation_strategy;
  packed_exam : bool;
  backend : Gsim_engine.Eval.backend;
      (** Per-node evaluation strategy (see {!Gsim_engine.Eval}): closure
          trees ([`Closures]), AOT-compiled C ([`Native]), or [`Auto], the
          default everywhere — native when a C compiler works and the
          circuit is big enough, otherwise closures.  The reference
          engine ignores it. *)
}

val verilator : ?threads:int -> unit -> config
val arcilator : config
val essent : config
val gsim : config
(** The paper's simulator: O3, gsim partitioning.  The default maximum
    supernode size (8) is this substrate's Fig. 9 optimum. *)

val gsim_with : ?max_supernode:int -> ?partition_algorithm:string ->
  ?opt_level:Gsim_passes.Pipeline.level ->
  ?activation:Gsim_engine.Activity.activation_strategy -> ?packed_exam:bool ->
  ?backend:Gsim_engine.Eval.backend ->
  unit -> config

val reference : config

val all_presets : config list

type compiled = {
  sim : Gsim_engine.Sim.t;
  id_map : int array;
      (** original node id -> id in the optimized circuit (-1 if the node
          was optimized away); identity-extended for unoptimized levels. *)
  outcomes : Gsim_passes.Pass.outcome list;
  supernodes : int;
  activity : Gsim_engine.Activity.t option;
      (** The underlying activity engine for essent/gsim configurations —
          lets observers (coverage collection) hook its change events
          instead of resampling every cycle.  [None] for full-cycle and
          reference engines. *)
  runtime : Gsim_engine.Runtime.t option;
      (** The engine's shared value arena — the hook for dirty-memory
          write tracking and bulk checkpoint capture ({!Gsim_engine.Checkpoint}).
          [None] only for the reference interpreter, which keeps its own
          state representation. *)
  destroy : unit -> unit;
      (** Joins worker domains for multi-threaded engines; otherwise a
          no-op. *)
}

val instantiate :
  ?compact:bool -> ?forcible:int list -> ?keep:int list -> config -> Circuit.t -> compiled
(** Runs the configured pass pipeline on (a private copy of) the circuit,
    partitions it, and builds the engine.  Inputs and output-marked nodes
    always survive; look them up through [id_map].

    [forcible] (node ids in the {e original} circuit) declares
    fault-injection targets for [sim.force]/[sim.release]: they are
    output-marked before optimization so they survive at every level, and
    the engines route them around native runs and guard their latches.
    Ids that do not exist are ignored (the campaign layer reports them as
    uninjectable).

    [keep] (also original node ids) get the same survive-optimization
    guarantee without any engine-level force support — fault campaigns
    keep every register so the architectural state a checkpoint captures
    is the same set under every preset and fault subset.

    A combinational loop in the design raises [Failure] with a diagnostic
    naming the nodes on the loop. *)

val load_firrtl_string : string -> Circuit.t * int option
(** Circuit and optional ["$halt"] node (see {!Gsim_firrtl.Firrtl}). *)

val load_firrtl_file : string -> Circuit.t * int option

val load_verilog_string : string -> Circuit.t
(** Synthesizable-subset Verilog (see {!Gsim_verilog.Verilog}). *)

val load_verilog_file : string -> Circuit.t

val load_design_file : string -> Circuit.t * int option
(** Dispatches on the extension: [.v] Verilog, anything else FIRRTL. *)

val config_of_names : engine:string -> threads:int -> level:string option ->
  max_supernode:int -> backend:string -> config
(** Build a configuration from command-line-style strings: [engine] is a
    preset name (gsim/essent/verilator/arcilator/reference), [threads]
    applies to verilator, [level] optionally overrides the preset's
    optimization level ("O0".."O3"), [backend] is "auto", "native",
    or "closures".  Raises [Failure] on unknown names —
    shared by the CLI and the daemon so both reject inputs
    identically. *)

(** The compile pipeline split into cacheable halves.

    {!Compile.prepare} runs everything that depends only on the design
    and the configuration — frontend output copy, output marking,
    acyclicity check, pass pipeline, partitioning — and {!Compile.realize}
    builds an engine instance from the result.  A {!Compile.plan} is
    immutable once built: [realize] only reads it, so one plan can back
    any number of concurrent simulator instances (each [realize] call
    allocates its own runtime arena).  This is what the daemon's
    compiled-plan cache stores, keyed by {!Compile.key} — the circuit's
    structural {!Gsim_ir.Circuit.digest} plus the config
    {!Compile.fingerprint}.  The plan walks its optimized circuit's digest
    once, on the first [realize] that loads the native object, and hands
    it to every later one, so a warm native memo hit walks nothing. *)
module Compile : sig
  type source = {
    circuit : Circuit.t;
    halt : int option;  (** ["$halt"] node id in [circuit], if any *)
    hash : string;      (** hex of {!Gsim_ir.Circuit.digest} [circuit] *)
  }

  val of_circuit : ?halt:int -> Circuit.t -> source
  val source_of_string : filename:string -> string -> source
  (** [filename] only selects the frontend ([.v] Verilog, else FIRRTL). *)

  val source_of_file : string -> source

  type plan

  val prepare : ?forcible:int list -> ?keep:int list -> config -> source -> plan
  (** The expensive front half; same guarantees as {!instantiate}
      (including the combinational-loop [Failure] diagnostic). *)

  val realize : plan -> compiled
  (** The cheap back half: engine construction only.  Thread-safe with
      respect to other [realize] calls on the same plan. *)

  val plan_halt : plan -> int option
  (** The source's halt node mapped through the plan's id map. *)

  val plan_hash : plan -> string
  val plan_circuit : plan -> Circuit.t
  (** The optimized circuit (original node ids; not compacted). *)

  val plan_config : plan -> config
  val fingerprint : config -> string
  (** Every config field that changes compilation output. *)

  val key : source -> config -> string
  (** [hash ^ "#" ^ fingerprint] — the plan-cache key. *)

  val plan_key : plan -> string

  val load : ?forcible:int list -> ?keep:int list -> config -> string -> source * compiled
  (** [source_of_file] + [prepare] + [realize] — the one-shot CLI path. *)
end

val emit_cpp : config -> Circuit.t -> Gsim_emit.Emit.result
(** Optimize per the config (on a copy, compacted) and emit the standalone
    C unit in the matching mode; the backend and thread count play no
    part. *)
