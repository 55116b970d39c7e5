(** Pass-pipeline and engine/backend bisection.

    Given a failing (circuit, subject) pair, decide {e what} to blame:

    - test the subject's engine at O0 on the unoptimized circuit — if it
      already fails, the pass pipeline is innocent: flip the evaluation
      backend; if the failure disappears it is [Guilty_backend],
      otherwise [Guilty_engine];
    - otherwise replay the failing level's exact stage plan
      ({!Gsim_passes.Pipeline.plan}, same fixpoint bounds) one pass
      application at a time on a private copy, validating the IR after
      every application and re-running the O0 subject after every one
      that rewrote something.  The first application after which the IR
      is invalid or the failure class appears names the [Guilty_pass]. *)

open Gsim_ir

type culprit =
  | Guilty_pass of { pass : string; application : int }
      (** [application] counts pass applications across the whole
          linearized plan, starting at 1. *)
  | Guilty_backend of string
  | Guilty_engine of string
  | Inconclusive of string

val culprit_token : culprit -> string
(** Stable bucket key: ["pass:simplify"], ["backend:native"],
    ["engine:gsim"] or ["unknown"]. *)

val culprit_to_string : culprit -> string

val run :
  level:Gsim_passes.Pipeline.level ->
  engine_name:string ->
  backend_name:string ->
  ?test_alt:(Circuit.t -> bool) ->
  test:(Circuit.t -> bool) ->
  Circuit.t ->
  culprit
(** [test] runs the failing engine+backend at O0 on the given circuit and
    reports whether the failure reproduces; [test_alt] is the same with
    the other backend.  Neither may mutate the circuit. *)
