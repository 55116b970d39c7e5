(** Backend selection for per-node evaluation.

    Engines build their per-node step functions through this module rather
    than calling {!Runtime.node_evaluator} directly, so one switch selects
    between the evaluation strategies:

    - [`Closures] — the tree of specialized closures built by
      {!Runtime.node_evaluator}; works everywhere;
    - [`Native] — ahead-of-time compiled C ({!Native}): each node's
      expression tree becomes a machine-code function over the same arena,
      with a per-node closure fallback for nodes the emitter skips.
      Degrades to closures (with a one-line diagnostic) when no C compiler
      is available or compilation fails;
    - [`Auto] — the documented default: native when a C compiler works
      and the circuit is big enough to amortize a [cc] run, otherwise
      closures.

    Every backend is bit-identical by construction.  Engines resolve the
    requested backend with {!select} once per instance, then build
    evaluators or plans from the selection. *)

open Gsim_ir

type backend = [ `Closures | `Native | `Auto ]

val default : backend
(** [`Auto]. *)

val to_string : backend -> string

val of_string : string -> backend option
(** Accepts ["auto"], ["native"], ["closures"] (and ["closure"]). *)

val names : string
(** Human-readable list of accepted backend names, for error messages. *)

(** A resolved backend choice for one circuit. *)
type selected = {
  native : Native.unit_t option;  (** [None] when closures run *)
  cache : string;
      (** under native: ["hit"] when the compiled object came from the
          in-process memo or the disk cache (no [cc] run), ["miss"] on a
          fresh compile; [""] otherwise — surfaced via
          {!Counters.t.native_cache} *)
}

val select : ?digest:(unit -> Digest.t) -> backend -> Circuit.t -> selected
(** Resolve [backend] for [c], loading (or compiling) the native unit
    when called for; native falls back to closures when unavailable.
    [digest], when given, returns {!Circuit.digest} [c]; it is called
    only when the native object is loaded, so a caller that already holds
    the digest spares {!Native.load} its walk over [c]. *)

val effective_string : selected -> string
(** ["native"] or ["closures"]: the backend that actually runs. *)

val native_threshold : int
(** [`Auto] goes native only when {!circuit_size} reaches this. *)

val circuit_size : Circuit.t -> int
(** Σ ([Expr.size] + 1) over the evaluated nodes: a compile-free size
    measure, the quantity the auto heuristic thresholds. *)

val node_evaluator :
  sel:selected -> ?forcible:(int -> bool) -> Runtime.t -> Circuit.node ->
  unit -> bool
(** The node's step function: evaluate, store, report change.  Nodes for
    which [forcible] holds (fault-injection targets) are wrapped with
    {!Runtime.guard} and always evaluate through closures, so a force
    override is visible to every consumer under every backend. *)

(** A sweep over a node sequence: maximal runs of natively compiled nodes
    as dense native runs, every other node in closure runs. *)
type plan

val plan : ?forcible:(int -> bool) -> selected -> int array -> plan
(** [plan sel ids] groups [ids] (evaluated in order, back-to-back)
    according to [sel].  [forcible] nodes are excluded from native runs
    and realized as guarded closure steps (see {!node_evaluator}). *)

val realize : Runtime.t -> plan -> (unit -> int) array
(** Bind a plan to a runtime.  Each returned step evaluates its run and
    returns how many node values changed; calling all steps in order
    evaluates exactly the planned ids in order. *)
