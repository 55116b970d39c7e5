(** Shared engine runtime: value arenas and closure compilation.

    The "compiled simulation" backend.  Signals of width <= 62 bits live in
    a flat int arena and are evaluated by specialized native-int closures;
    wider signals live in a boxed {!Gsim_bits.Bits} arena.  Each node's
    expression is compiled once into a closure that evaluates it, stores
    the result and reports whether the value changed — the unit of work the
    engines schedule. *)

module Bits = Gsim_bits.Bits
open Gsim_ir

type t

val create : Circuit.t -> t

val circuit : t -> Circuit.t

(** {1 Values} *)

val poke : t -> int -> Bits.t -> bool
(** Set an input; returns [true] when the stored value changed. *)

val peek : t -> int -> Bits.t

val peek_int : t -> int -> int
(** Low 62 bits of a node's value, read in place: allocates nothing. *)

val load_mem : t -> int -> Bits.t array -> unit

val read_mem : t -> int -> int -> Bits.t

val write_mem_word : t -> int -> int -> Bits.t -> unit
(** Overwrite a single memory word; sparse (delta) checkpoint restore.
    Marks the word dirty when tracking is on. *)

val poke_register : t -> int -> Bits.t -> unit
(** Overwrite a register's current value (by read-node id); checkpoint
    restore. *)

(** {1 Memory-word dirty tracking (delta checkpoints)}

    Every memory store funnels through this module ({!write_committer}
    on all engines and backends, {!load_mem} for external loads), so a
    write barrier here sees the complete set of mutated words.  While
    tracking is on, each committed store records its word in a
    per-memory dirty set — a bitmap for O(1) dedup plus an index
    vector, so draining costs O(dirty) rather than O(depth).  The
    barrier costs one load and one predictable branch per committed
    store when tracking is off. *)

val set_mem_tracking : t -> bool -> unit
(** Turn the write barrier on or off.  Turning it on clears any marks
    left from a previous tracking episode. *)

val mem_tracking : t -> bool

val take_dirty_mem : t -> (int * int array) list
(** Drain the dirty set: [(memory index, sorted word indices)] for every
    memory with recorded stores since the last drain, and clear it.
    Indices are sorted ascending and duplicate-free. *)

val drain_mem : t -> (int * int array) list
(** {!Sim.t}'s drain: {!take_dirty_mem} when the barrier is on;
    otherwise switch it on and return [[]]. *)

val snapshot_mem : t -> int -> Bits.t array
(** Bulk copy of a memory's current contents (checkpoint capture fast
    path — no per-word circuit lookups). *)

(** {1 Force overrides (fault injection)}

    While a node is forced, its arena slot always holds
    [(computed land lnot mask) lor (value land mask)].  [poke] and
    [poke_register] re-apply the override; evaluators and register
    copiers must be wrapped with {!guard} for every node that may be
    forced (engines do this for their declared forcible set). *)

val force : t -> ?mask:Bits.t -> int -> Bits.t -> bool
(** [force t ?mask id v] pins the masked bits of the node to [v]
    (default mask: all ones).  Applies immediately to the stored value
    and returns whether it changed. *)

val release : t -> int -> bool
(** Remove the override.  The stored value keeps the last forced bits
    until the node is next evaluated (or latched / poked); returns
    whether an override was active. *)

val is_forced : t -> int -> bool

val guard : t -> int -> (unit -> bool) -> (unit -> bool)
(** [guard t id step] wraps a step writing node [id]'s slot so the
    override is re-applied after evaluation and change is reported
    against the overridden value. *)

val narrow_values : t -> int array
(** The raw narrow arena itself (indexed by node id), not a copy.  Engine
    internals only: the {!Native} backend passes it to generated code,
    which reads and writes packed values through it directly; everything
    else should go through {!peek} and the compiled evaluators. *)

val is_wide : t -> int -> bool
(** Whether the node's value lives in the wide (boxed) arena. *)

val wide_values : t -> Bits.t array
(** The raw wide arena itself (indexed by node id), not a copy.  Engine
    internals only: the {!Native} backend passes it to generated code,
    which mutates the stored vectors' limbs in place.  Narrow ids hold a
    shared placeholder — never read them through this array. *)

val wide_flat : t -> Bytes.t
(** The flat mirror of the wide arena: every wide node's value stored
    as raw little-endian 64-bit limbs at the offset assigned by
    [Gsim_emit.Emit_c.wide_offsets].  Engine internals only: the
    {!Native} backend passes it to generated code, whose wide loads are
    direct indexed reads from it; all runtime store paths keep it
    identical to the boxed slots. *)

val wide_offset : t -> int -> int
(** A wide node's offset in {!wide_flat}, in 64-bit limbs ([-1] for a
    narrow node). *)

val narrow_mems : t -> int array array
(** The narrow memories' contents (indexed by memory, then word; [[||]]
    for a wide memory), not copies.  Engine internals only: the
    activity engine's native sweep reads memory ports from them. *)

val data_size_bytes : t -> int
(** Bytes of mutable simulation state excluding memory contents (the
    paper's Table IV "data size" convention, which also excludes the main
    memory array). *)

val mem_size_bytes : t -> int

(** {1 Packed-value primitives} *)

val mask : int -> int
(** [mask w] is the all-ones pattern of [w] bits, [1 <= w <= 62]. *)

val popcount_int : int -> int
(** Constant-time (SWAR) population count of a packed value: nonnegative,
    at most 62 significant bits. *)

(** {1 Compiled evaluation} *)

val node_evaluator : t -> Circuit.node -> (unit -> bool)
(** Evaluate the node's expression (or memory read), store the value,
    report change.  Only for expression-carrying and [Mem_read] nodes. *)

val reg_copier : t -> Circuit.register -> (unit -> bool)
(** Latch: read-slot := next-slot; reports change. *)

val reg_committer :
  t -> forcible:(int -> bool) -> Circuit.register list -> unit -> int
(** Latch every register in the list, returning how many changed.
    Narrow registers whose read node is not [forcible] commit in one
    plain loop over (next, read) slot pairs; wide and forcible ones go
    through {!reg_copier} (guarded when forcible). *)

val reset_applier : t -> Circuit.register -> (unit -> bool)
(** Slow-path reset: read-slot := reset value; reports change. *)

val signal_is_set : t -> int -> (unit -> bool)
(** Nonzero test of a node's current value (used for reset signals). *)

val write_committer : t -> int -> Circuit.write_port -> (unit -> bool)
(** [write_committer t mem port] commits the port if enabled; reports
    whether the memory contents changed. *)

val write_committers : t -> (unit -> bool) array
(** One {!write_committer} per memory write port, memories in order. *)

val reset_groups :
  t -> forcible:(int -> bool) -> ((unit -> bool) * (unit -> bool) array) array
(** Slow-path resets grouped by reset signal: (signal test, per-register
    {!reset_applier}s), so one check per signal per cycle suffices.
    Appliers of [forcible] read nodes are guarded, so a stuck-at override
    survives a reset. *)
