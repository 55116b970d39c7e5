(** Coverage collection.

    Wraps a {!Gsim_engine.Sim.t} (like {!Gsim_engine.Vcd}) so that each
    [step] accumulates toggle, node, mux-condition and register-reset
    coverage into a {!Db.t}.  Two collection strategies produce
    bit-identical databases for the same trace:

    - {!create} works on {e any} engine by resampling every observed node
      after every cycle — cost O(design size) per cycle, like a waveform
      dump of everything;
    - {!of_activity} hooks the activity engine's change events
      ({!Gsim_engine.Activity.set_change_hook}) and samples only the nodes
      whose evaluator reported a change (plus the conditions and resets
      watching them), so collection cost follows the activity factor
      rather than the design size.

    All coverage is defined over cycle-end samples.  The initial values at
    creation time form the baseline: they set observation flags but count
    no transitions, so coverage of a run split across two collectors sums
    exactly to the coverage of the unsplit run. *)

open Gsim_ir

type t

val default_observed : Circuit.t -> int list
(** Every live node of the circuit. *)

val create : ?observe:int list -> Gsim_engine.Sim.t -> t * Gsim_engine.Sim.t
(** Engine-independent resampling collector.  [observe] defaults to
    {!default_observed}.  Returns the collector and the wrapped simulator
    to drive instead of the original. *)

val of_activity :
  ?observe:int list -> ?name:string -> Gsim_engine.Activity.t -> t * Gsim_engine.Sim.t
(** Activity-engine fast path.  Installs the engine's change hook (so call
    at most once per engine, before simulation).  The wrapped simulator
    additionally tracks pokes, checkpoint restores ([write_reg]) and
    [invalidate] so no value change escapes sampling. *)

val of_sim :
  ?activity:Gsim_engine.Activity.t -> Gsim_engine.Sim.t -> t * Gsim_engine.Sim.t
(** {!of_activity} on [activity] when the engine exposes one (keeping
    the simulator's name), otherwise {!create} on the simulator. *)

val db : t -> Db.t
(** The live database — updated in place as the wrapped simulator steps;
    read (or save) it at any point. *)
