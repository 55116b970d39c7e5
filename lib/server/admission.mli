(** Admission cost estimation: the resource-bomb gate.

    Before a design-carrying job touches the queue, the daemon runs the
    frontend alone (parse + elaborate — no pass pipeline, no partitioning,
    no engine construction) and takes one cheap fold over the raw circuit
    to bound what executing the job would cost:

    - node count and maximum declared width;
    - memory-array footprint, [Σ depth × ⌈width/64⌉ × 8] bytes;
    - estimated runtime arena, [nodes × 8 + Σ_wide 2 × ⌈width/64⌉ × 8 +
      mem] bytes (one narrow slot per node; wide nodes also own boxed
      limbs plus the flat mirror the native backend writes through);
    - a native-compile estimate: the count of narrow [Logic]/[Reg_next]
      nodes the C emitter would generate functions for — a proxy for how
      long [cc -O2] would chew on the generated translation unit.

    All estimates are taken on the unoptimized graph, so they are upper
    bounds: passes only shrink the circuit.  A job whose estimate crosses
    any configured budget is refused with [Over_budget] naming the
    violated limit, before any worker tick runs. *)

type estimate = {
  est_nodes : int;
  est_max_width : int;
  est_mem_bytes : int;
  est_arena_bytes : int;
  est_native_nodes : int;
}

(** Daemon-side limits; [0] in any field means that limit is not
    enforced. *)
type budgets = {
  max_nodes : int;
  max_width : int;
  max_mem_bytes : int;
  max_arena_bytes : int;
  max_native_nodes : int;
}

val unlimited : budgets

val limited : budgets -> bool
(** At least one limit is enforced. *)

val estimate : Gsim_ir.Circuit.t -> estimate

val check : budgets -> estimate -> (unit, string) result
(** [Error msg] names the first violated limit with both the estimate
    and the budget, ready to travel as the [over-budget] error text. *)

val check_request : budgets -> estimate Plan_cache.t -> Protocol.request -> string option
(** The daemon's gate: [Some why] if the request's design is over
    budget.  Estimates are memoized in [memo] by design digest; a design
    the frontend rejects passes (the worker reports the real error). *)

val budgets_of_string : string -> budgets
(** Parses ["nodes=200000,width=4096,mem-mb=512,arena-mb=1024,native-nodes=50000"];
    every key optional, [""] means {!unlimited}.  Raises [Failure] on an
    unknown key or a malformed value. *)

val budgets_to_string : budgets -> string
