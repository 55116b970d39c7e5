(** Standard optimization pipelines.

    - [O0] — nothing (the Table III/Fig. 8 baseline).
    - [O1] — redundant-node elimination and expression simplification:
      simplify, alias, constant forwarding, dead code.
    - [O2] — [O1] plus the inline/extract cost model and the reset
      slow-path transform (the paper's full node level).
    - [O3] — [O2] plus bit-level node splitting (the paper's default).

    Bit-split parts are protected from being re-inlined: the splitting
    stage runs after the node-level fixpoint and is followed only by a
    cleanup fixpoint without the inliner. *)

open Gsim_ir

type level = O0 | O1 | O2 | O3

val level_of_string : string -> level option
val level_to_string : level -> string

type stage = { stage_passes : Pass.t list; stage_max_rounds : int }
(** One fixpoint of a pass list, bounded by [stage_max_rounds] rounds
    ({!Pass.run_fixpoint} semantics: stop early when a round performs no
    rewrites). *)

val plan : level -> stage list
(** The exact stage sequence {!optimize} runs for a level.  The fuzzer's
    pass-pipeline bisection replays this plan one pass application at a
    time to name the first application after which a failure appears. *)

val optimize : ?level:level -> Circuit.t -> Pass.outcome list
(** Runs the pipeline in place (default [O3]) and validates the result,
    once, after the last stage.
    Node ids of inputs and output-marked nodes are preserved. *)

val optimize_and_compact : ?level:level -> Circuit.t -> int array
(** Like {!optimize} but renumbers the graph densely afterwards; returns
    the old-id -> new-id map. *)
