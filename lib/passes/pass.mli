(** Pass framework.

    A pass mutates the circuit in place and reports how many rewrites it
    performed.  {!run_fixpoint} iterates a pipeline until nothing changes,
    each {!outcome} records its rewrites, node delta and time, and
    {!totals} sums them per pass. *)

open Gsim_ir

type t = { pass_name : string; run : Circuit.t -> int }

type outcome = {
  outcome_pass : string;
  rewrites : int;
  nodes_before : int;
  nodes_after : int;
  seconds : float;  (** processor time of the application ([Sys.time]) *)
}

val apply : t -> Circuit.t -> outcome

val run_pipeline : t list -> Circuit.t -> outcome list
(** One application of each pass in order. *)

val run_fixpoint : ?max_rounds:int -> t list -> Circuit.t -> outcome list
(** Repeats the pipeline until a full round performs no rewrites (or the
    round bound is hit).  It does not validate: {!Pipeline.optimize}
    validates the result once, and the fuzzer's bisection validates after
    every single application. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** Per-pass totals over a pipeline's outcomes (e.g. {!Pipeline.optimize}'s
    result): what [gsim stats] prints. *)
type total = {
  total_pass : string;
  applications : int;
  total_rewrites : int;
  node_delta : int;  (** sum of [nodes_after - nodes_before] *)
  total_seconds : float;
}

val totals : outcome list -> total list
(** One row per pass name, in order of first application. *)
