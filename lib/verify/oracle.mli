(** The single differential-checking code path.

    Every equivalence check in the project — the fuzzer, the torture
    tests, the closure/native comparison — runs a circuit and a
    stimulus through a list of {e subjects} (engine configurations) in
    lockstep against the {!Gsim_ir.Reference} interpreter and reports the
    first divergence per subject:

    - [Mismatch] — an observed node differs from the reference;
    - [Crash]    — the subject raised while building or stepping;
    - [Hang]     — the per-subject wall-clock watchdog tripped (checked
      between cycles; a single cycle cannot be preempted).

    Subjects receive a private copy of the circuit, so oracle runs never
    mutate the input and can be repeated (shrinking re-runs the same
    check hundreds of times). *)

module Bits = Gsim_bits.Bits
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
open Gsim_ir

type action =
  | Force of { target : int; mask : Bits.t option; value : Bits.t }
  | Release of int

type step = { pokes : (int * Bits.t) list; actions : action list }

val steps_of_stimulus : (int * Bits.t) list array -> step array
(** Wrap a plain poke stimulus (e.g. {!Gsim_ir.Rand_circuit.random_stimulus})
    as actionless steps. *)

type mismatch = {
  at_cycle : int;
  node_id : int;             (** in the circuit handed to {!run} *)
  node_name : string;
  expected : Bits.t;
  got : Bits.t;
}

type failure =
  | Mismatch of mismatch
  | Crash of string
  | Hang of float            (** seconds elapsed when the watchdog fired *)

val failure_kind : failure -> string
(** ["mismatch"], ["crash"] or ["hang"]. *)

val same_class : failure -> failure -> bool
(** Same {!failure_kind} — the equivalence the shrinker preserves. *)

val failure_to_string : failure -> string

type subject = {
  subject_name : string;
  build : Circuit.t -> Sim.t * (unit -> unit);
      (** Build a simulator for (a private copy of) the circuit; the
          second component is the cleanup ([Gsim.compiled.destroy]).
          Node ids in the returned [Sim.t] must be {e original} ids —
          wrap [Gsim.instantiate]'s sim through its [id_map]
          (see {!Fuzz.subject_of_setup}). *)
}

type outcome = {
  o_subject : string;
  o_failure : failure option;
  o_counters : Counters.t option;
      (** Engine counters after the run; [None] if the sim died. *)
}

val default_observe : Circuit.t -> int list
(** The circuit's output-marked nodes. *)

val run :
  ?watchdog:float ->
  ?observe:int list ->
  ?prepare:(Sim.t -> unit) ->
  Circuit.t ->
  step array ->
  subject list ->
  outcome list
(** [run c steps subjects] computes the reference trace of [observe]
    (default: the outputs) over [steps], then replays each subject in
    lockstep, stopping it at its first failure.  [prepare] runs once per
    simulator before the first step (program/memory loading).  Default
    watchdog: 10 seconds per subject.

    Raises only if the {e reference} cannot run the circuit. *)

val reference_trace :
  ?prepare:(Sim.t -> unit) ->
  Circuit.t ->
  step array ->
  int list ->
  Bits.t list array
(** The interpreter's values of the observed nodes after each step. *)

val run_against :
  ?watchdog:float ->
  ?prepare:(Sim.t -> unit) ->
  observe:int list ->
  expected:Bits.t list array ->
  Circuit.t ->
  step array ->
  subject list ->
  outcome list
(** Like {!run} but against an externally captured expected trace.  This
    is what pipeline bisection needs: a pass-transformed circuit must be
    compared against the {e original} circuit's reference trace — a
    reference re-run on the transformed circuit would faithfully execute
    the miscompiled graph and mask the bug.  [observe] ids must be valid
    in both (inputs and output-marked nodes keep their ids through the
    pipeline). *)

val first_failure : outcome list -> (string * failure) option
