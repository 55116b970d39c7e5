(** Fault-injection campaign runner.

    A campaign runs one {e golden} (fault-free) simulation of the design
    over [horizon] cycles and keeps a golden model of it: the per-cycle
    values of the design's outputs, the inputs and registers at every
    cycle a fault forks at or compares at, the memory image at cycle 0,
    and a log of the memory words the run stored.  Each fault is then
    {e forked} into the same engine instance, injected (registers: latch
    the flipped value; wires and inputs: force/release through the
    engine's override layer), and run in lockstep against the golden
    trace for at most [budget] cycles — the per-fault watchdog that
    bounds every fault's cost.

    The engine runs with its memory write barrier on
    ({!Gsim_engine.Sim.t} [take_dirty_mem]), so its memories always equal
    the golden memories of the last fork's cycle plus the words the
    barrier saw stored.  A fork writes back only those words and the ones
    golden stored between the two cycles; the latent/masked compare reads
    only the words stored since the fork and those golden stored in the
    window.  Forks and compares cost O(inputs + registers + words
    written), not O(memory depth), on every preset alike.

    Classification ({!Db.classification}):
    - outputs diverge at cycle [c] → [Detected c];
    - no divergence by the window end, architectural state differs from
      the golden state there → [Latent];
    - state also matches → [Masked];
    - the faulty run raises → [Hang] (the campaign never crashes);
    - unresolvable target / out-of-range bit / bad cycle →
      [Uninjectable].

    The engine is built by {!Gsim_core.Gsim.instantiate} with every
    resolvable target [forcible] and every register kept, so the
    classification of each fault is identical across engine presets and
    evaluation backends. *)

module Bits = Gsim_bits.Bits

type config = {
  horizon : int;  (** golden-run length, in cycles *)
  budget : int;  (** max cycles a fault is observed after injection *)
}

val default_config : config
(** 100 cycles, budget 50. *)

val run :
  ?skip:(string -> bool) ->
  ?on_record:(string -> Db.record -> unit) ->
  ?progress:(int -> int -> unit) ->
  ?stop_after:int ->
  ?stimulus:(int -> (int * Bits.t) list) ->
  ?golden_dir:string ->
  config ->
  Gsim_core.Gsim.config ->
  Gsim_ir.Circuit.t ->
  Fault.t list ->
  Db.t
(** [run cfg sim_config circuit faults] classifies every fault and
    returns the database.

    [skip key] — pre-classified faults to omit ([--resume]);
    [on_record key record] — called as each fault is classified (append
    to the on-disk db for crash safety);
    [progress done total] — called after each injectable fault;
    [stop_after n] — process at most [n] not-skipped faults ([--stop-after],
    sharding / CI interruption);
    [stimulus cycle] — pokes (original-circuit node id, value) applied
    before each cycle's step, identically in the golden and every faulty
    run;
    [golden_dir] — persist the golden model ([golden 2]: one cycle-0
    keyframe in the crash-safe store of {!Gsim_resilience.Store}, plus
    the output trace, SEU samples, fork/compare state and memory write
    log in [golden.gtr]), and reuse it when a valid covering model is
    already there — an interrupted campaign resumed with [skip] restarts
    from the recorded model instead of re-simulating the golden run.
    The model is recomputed if the design, engine configuration, horizon
    or format changes, or if its keyframe differs from the engine's
    cycle-0 state. *)
