(** Activity-driven engines (the essential-signal approach).

    Supernodes carry active bits; a supernode is evaluated only when some
    producer changed.  This module implements both the ESSENT baseline and
    the GSIM engine — they differ in the partition supplied and in the
    configuration:

    - [packed_exam]: GSIM's fast path — active bits are packed 62 per word
      and a whole word is examined with a single condition (paper §III-A,
      Listing 4);
    - [activation]: how a changed node sets its successors' active bits —
      with a branch, branch-free logical operations (ESSENT's choice), or
      per-node selection by the paper's cost model (§III-B).

    Slow-path resets (registers whose [reset.slow_path] is set) are applied
    once per reset signal at the end of each cycle.

    Under the native backend ({!Eval.select} returned a native unit) the
    whole sweep runs in C: one stub call examines the active bits,
    evaluates every active supernode's members through their generated
    functions (narrow memory reads inline), counts changes, marks
    pending registers and sets successor bits; a second call latches the
    pending registers, narrow and wide, and wakes their readers.
    Members and registers C cannot run (forcible members and registers,
    wide memory reads) are yielded one at a time to their OCaml
    closures, and the sweep resumes right after them.  Counters,
    supernode hits and values are identical to the closures backend,
    and a steady-state {!step} allocates nothing when nothing yields.
    Installing {!set_change_hook} switches an engine back to the OCaml
    sweep. *)

module Bits = Gsim_bits.Bits
open Gsim_ir
open Gsim_partition

type activation_strategy = Branch | Branchless | Cost_model

type config = {
  packed_exam : bool;
  activation : activation_strategy;
}

val essent_config : config
(** Unpacked examination, branch-free activation — ESSENT's published
    design. *)

val gsim_config : config
(** Packed examination, cost-model activation. *)

type t

val create :
  ?config:config -> ?backend:Eval.backend -> ?digest:(unit -> Digest.t) ->
  ?forcible:int list -> Circuit.t -> Partition.t -> t
(** [backend] defaults to {!Eval.default} ([`Auto]); [digest] is passed
    to {!Eval.select}.
    The partition must be valid for the circuit (see
    {!Partition.validate}); all supernodes start active.
    [forcible] declares fault-injection targets: those nodes evaluate
    through guarded closures (never native functions) and get
    supernode-aware wake closures for {!force}/{!release}. *)

val poke : t -> int -> Bits.t -> unit
val peek : t -> int -> Bits.t

val force : t -> ?mask:Bits.t -> int -> Bits.t -> unit
(** Pin the masked bits of a node until {!release}.  Marks the consumers'
    active bits when the stored value changes, so the override propagates
    on the next {!step} exactly as an organic change would.  Non-input
    targets must appear in [create]'s [forcible] list. *)

(** Remove an override: re-activates the node's own supernode (or
    re-latches its register) so it recomputes next step. *)
val release : t -> int -> unit
val step : t -> unit
val load_mem : t -> int -> Bits.t array -> unit
val counters : t -> Counters.t
val runtime : t -> Runtime.t
val supernode_count : t -> int

val supernode_hits : t -> int array
(** How many times each supernode was evaluated since creation (profiling
    input for {!Profile}). *)

val invalidate_all : t -> unit
(** Mark every supernode active and every register pending — used after a
    checkpoint restore. *)

val set_change_hook : t -> (int -> unit) -> unit
(** [set_change_hook t f] arranges for [f id] to run whenever a node
    evaluation, register latch or slow-path reset changes the stored value
    of node [id].  Because the engine already computes "did the value
    change" for every evaluation, observers (coverage collection) that hang
    off this hook pay a cost proportional to the activity factor instead of
    resampling the whole design every cycle.

    Install at most once, before simulation starts.  Pokes are not
    reported — intercept them at the {!Sim.t} layer.  A hooked engine
    runs the OCaml sweep even under the native backend. *)

val sim : ?name:string -> t -> Sim.t
