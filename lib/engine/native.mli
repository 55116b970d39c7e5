(** Ahead-of-time native backend.

    Serializes a circuit's expression nodes, narrow and wide, to C
    ({!Gsim_emit.Emit_c}), shells out to [cc -O2 -shared -fPIC], binds
    the resulting shared object via [dlopen], and exposes each node's
    generated function over the runtime's arenas — bit-identical to the
    closures backend by construction.  Three consumers call the
    functions: {!node_evaluator} (one node), {!run_step} (a dense run,
    used by the full-cycle and parallel engines), and the activity
    engines' native sweep, which reads {!unit_t.fns} directly into its
    own tables ({!Activity}).

    Compiled objects are cached on disk keyed by the structural
    {!Circuit.digest} (the key {!Gsim.Compile} uses too) tagged with the
    emitter's ABI version, and memoized in-process: daemon workers and
    repeated jobs on the same circuit share one warm handle with no
    compiler or filesystem traffic.  The memo's lock covers only its
    table, so a memo hit never waits for another circuit's compile;
    concurrent loads of one circuit share a single compile.  Handles are
    never [dlclose]d (live evaluators capture table entries); the memo
    bounds the leak to one handle per distinct circuit per process.

    Environment switches, re-read on every call so tests can flip them:
    - [GSIM_NATIVE=off] disables the backend (engines run closures);
    - [GSIM_CC] overrides compiler discovery (default: first of [cc],
      [gcc], [clang] on [PATH]);
    - [GSIM_NATIVE_CACHE] overrides the cache directory (default:
      [$XDG_CACHE_HOME/gsim/native], then [$HOME/.cache/gsim/native],
      then a temp-dir fallback);
    - [GSIM_CC_TIMEOUT] caps one [cc] run in seconds (default 120).
      Past the deadline the compiler driver gets SIGTERM (which cc
      forwards to its cc1/as/ld children) then SIGKILL; the job falls
      back to closures with a one-line diagnostic;
    - [GSIM_NATIVE_CACHE_MB] bounds the on-disk object cache in MiB
      (default 512; 0 = unlimited).  After each fresh compile, cold
      digests (LRU by mtime; disk hits refresh recency) are evicted
      until the cache fits. *)

open Gsim_ir

type unit_t = {
  digest : string;         (** cache key: MD5 of ABI tag + {!Circuit.digest} *)
  so_path : string;        (** cached shared object *)
  c_path : string;         (** generated source, kept for inspection/CI *)
  fns : int array;         (** per node id: tagged fn pointer, 0 = none *)
  compiled_nodes : int;
}

(** How {!load} satisfied the request: in-process memo, on-disk object
    (no [cc] run), or a fresh compile. *)
type origin = Memo_hit | Disk_hit | Compiled

val available : unit -> bool
(** The backend can run: not disabled via [GSIM_NATIVE=off] and a C
    compiler is present. *)

val find_compiler : unit -> string option
(** The C compiler the backend runs: [GSIM_CC] when set, else the first
    of [cc], [gcc], [clang] on [PATH]. *)

val cache_dir : unit -> string

val object_path : Circuit.t -> string
(** Where the circuit's compiled object lives in {!cache_dir}. *)

val load : ?digest:Digest.t -> Circuit.t -> (unit_t * origin) option
(** Emit, compile (or reuse a cached object), and bind the circuit's
    native unit.  [digest] is {!Circuit.digest} of the circuit when the
    caller already holds it; without it [load] walks the circuit once.  [None] when the backend is disabled, no compiler is
    found, or compilation/binding fails — callers degrade to an
    interpreted backend.  Failures print a one-line diagnostic and are
    memoized per circuit, so a broken toolchain is probed once.  A
    cached object that no longer loads (a truncated [.so]) is deleted
    and rebuilt once within the same call. *)

val has_fn : unit_t -> int -> bool
(** The unit contains a generated function for this node id. *)

val node_evaluator : unit_t -> Runtime.t -> int -> unit -> bool
(** Evaluate one node through its generated function: stores the result
    in the node's arena slot and reports change — a drop-in replacement
    for {!Runtime.node_evaluator}.  Raises [Invalid_argument] if the
    node has no native function (check {!has_fn}). *)

val run_step : unit_t -> Runtime.t -> int array -> unit -> int
(** One step evaluating a dense run of node ids back-to-back inside C
    (a single stub call), returning the changed count. *)

type stats = {
  mutable compiles : int;
  mutable disk_hits : int;
  mutable memo_hits : int;
  mutable failures : int;
  mutable timeouts : int;  (** [cc] runs killed at [GSIM_CC_TIMEOUT] *)
  mutable evictions : int;  (** cached objects removed by the disk quota *)
}

val stats : stats
(** Process-wide counters, exposed for tests and benches. *)

val prune_cache : ?keep:string -> string -> unit
(** Enforce [GSIM_NATIVE_CACHE_MB] over a cache directory, evicting
    [.so]/[.c] pairs oldest-first ([keep] is never evicted).  Called
    automatically after each fresh compile; exposed for tests. *)
