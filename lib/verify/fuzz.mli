(** Differential fuzz campaigns.

    A campaign draws seeded random circuits and stimulus
    ({!Gsim_ir.Rand_circuit}), runs them through every configured engine
    preset x evaluation backend in lockstep against the reference
    interpreter ({!Oracle}), and on the first divergence per case:
    delta-debugs the circuit and stimulus to a minimal failing pair
    ({!Shrink}), bisects the pass pipeline and engine/backend matrix to
    name the culprit ({!Bisect}), and records a replayable repro report
    ({!Repro}) — one per failure bucket — plus a crash-safe corpus entry
    ({!Corpus}).

    Determinism: case [i] of seed [s] always generates the same circuit
    and stimulus ([Random.State.make [|s; i; _|]]), independent of which
    other cases ran, so interrupted campaigns resume exactly and shards
    over disjoint case ranges can be merged. *)

open Gsim_ir

type setup = {
  s_name : string;                    (** ["<engine>+<backend>"] *)
  s_engine : string;                  (** preset: verilator/arcilator/essent/gsim *)
  s_backend : Gsim_engine.Eval.backend;
  s_level : Gsim_passes.Pipeline.level;
}

val default_setups : setup list
(** All four presets on closures, plus verilator and gsim on native when
    a C compiler is available (4 or 6 subjects). *)

val setup_of_name : ?level:Gsim_passes.Pipeline.level -> string -> setup
(** Parse ["gsim+closures"]; level defaults to the preset's. *)

val setups_of_string : string option -> setup list
(** A comma-separated list of {!setup_of_name} names; [None] is
    {!default_setups}. *)

val subject_of_setup :
  ?level:Gsim_passes.Pipeline.level -> ?forcible:int list -> setup -> Oracle.subject
(** An oracle subject that instantiates the setup's full pipeline+engine
    on the circuit and translates ids through the instantiation map, so
    the oracle can keep speaking original node ids. *)

type campaign = {
  seed : int;
  cases : int;                (** case indices [[start_case, start_case+cases)] *)
  start_case : int;
  seconds : float option;     (** wall-clock budget for the whole campaign *)
  cycles : int;
  gen : Rand_circuit.config;
  setups : setup list;
  watchdog : float;           (** per-subject, per-case *)
  shrink_budget : int;
  dir : string;               (** corpus + repro output directory *)
  inject_miscompile : bool;
      (** CI canary: enable {!Gsim_passes.Simplify.test_miscompile} for
          the duration of the run. *)
}

val default_campaign : campaign

val with_miscompile : bool -> (unit -> 'a) -> 'a
(** Run with the test-only Simplify miscompile enabled; always restores. *)

type diagnosis = {
  d_circuit : Circuit.t;
  d_steps : Oracle.step array;
  d_failure : Oracle.failure;
  d_culprit : Bisect.culprit;
  d_checks : int;
}

val diagnose :
  watchdog:float ->
  shrink_budget:int ->
  setup ->
  Circuit.t ->
  Oracle.step array ->
  Oracle.failure ->
  diagnosis
(** Shrink then bisect one failing (circuit, stimulus, subject) triple —
    also usable directly by tests that found a failure elsewhere. *)

type result = {
  db : Corpus.t;
  ran : int;
  skipped : int;
  out_of_time : bool;
}

val run : ?resume:bool -> ?log:(string -> unit) -> campaign -> result
(** Runs (or resumes) a campaign; maintains [<dir>/fuzz.db] crash-safely
    and writes [fuzz-NNN.rpt] for the first case of each failure bucket. *)

type replay_result = {
  rp_repro : Repro.t;
  rp_expected_signature : string;
  rp_actual : string;
  rp_reproduced : bool;
}

val replay :
  ?watchdog:float -> ?inject_miscompile:bool -> string -> replay_result
(** Rebuild a repro file and re-run its subject; reproduced when the
    recorded failure signature recurs.  Repros recorded under the canary
    need [~inject_miscompile:true]. *)

val failure_signature : Circuit.t -> Oracle.failure -> string

val report_text : Corpus.t -> string
val report_json : Corpus.t -> string
