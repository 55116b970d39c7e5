(** Simulation checkpoints.

    Captures architectural state — inputs, registers, memory contents —
    from any simulator and restores it into any other, the
    SimPoint-checkpoint workflow the paper uses for its SPEC evaluation
    (run a fast simulator to the region of interest, snapshot, and resume
    anywhere).  Checkpoints can also be saved to and loaded from a simple
    self-describing text format; version 2 of the format ends in a CRC32
    footer so a torn or corrupted file is detected at load time (the
    {!Gsim_resilience.Store} ring relies on this to fall back to an older
    generation).

    Restoring leaves combinational values stale by design; the wrapped
    engines re-derive them on the next [step] (activity engines are fully
    invalidated).  Both circuits must be the same elaboration (node ids
    are matched by register/input name, so differently-optimized variants
    of one design interoperate as long as the state-holding nodes
    survived). *)


type t

val capture : ?rt:Runtime.t -> Sim.t -> t
(** [rt], when the engine exposes its {!Runtime} arena, routes memory
    capture through {!Runtime.snapshot_mem} — a bulk copy with no
    per-word circuit lookups, several times faster on memory-heavy
    designs.  State captured is identical either way. *)

val restore : Sim.t -> t -> unit
(** Raises [Failure] when a register, input or memory recorded in the
    checkpoint has no same-named counterpart in the target, or when its
    width or depth does not match the design's.  Every error names the
    offending signal and both geometries. *)

val format_version : int
(** Current on-disk format version (2).  Version-1 files (no CRC footer)
    still load. *)

val crc32 : string -> int
(** IEEE 802.3 CRC32, the checksum of the version-2 footer. *)

val to_string : t -> string
(** Serializes in the current format version, CRC footer included. *)

val of_string : ?lenient:bool -> string -> t
(** Raises [Failure] on malformed input — with distinct messages for a
    missing/CRC-failing footer, truncated memory blocks, duplicate
    register/input/memory lines, bad values and bad lines.  With
    [~lenient:true] (the [--resume] torn-write mode) a trailing
    malformed portion is dropped instead: every section completed before
    the first error is kept, and a missing or mismatching CRC footer is
    tolerated. *)

val save : string -> t -> unit

val load : ?lenient:bool -> string -> t

val cycle : t -> int
(** Cycle count recorded at capture time. *)

val with_cycle : t -> int -> t
(** Same state, different recorded cycle — sessions track absolute cycle
    counts across resumes, while each engine's counter restarts at 0. *)

val equal : t -> t -> bool
(** Same architectural state (used by the determinism tests).  Ignores
    the recorded cycle. *)

val diff : t -> t -> (string * string * string) list
(** [(signal, value_in_a, value_in_b)] for every architectural mismatch;
    memory words appear as ["name[index]"].  Empty iff {!equal}. *)

(** {1 Delta checkpoints}

    A delta records only the state that changed since a {e base}
    generation: scalars that differ plus sparse memory words.  Applied in
    order on top of a full keyframe, a chain of deltas reconstructs the
    newest state at a fraction of a keyframe's serialization cost.  Each
    delta pins its base by (cycle, CRC32 of the base file's raw bytes) so
    recovery can prove every link intact before applying anything.
    Deltas parse {e strictly} — there is deliberately no lenient mode: a
    partially-applied delta would reconstruct wrong state silently, so a
    torn delta is a broken link and the {!Gsim_resilience.Store} recovery
    walk falls back to an older generation instead. *)

type delta

val delta_format_version : int

val capture_delta :
  Sim.t -> cycle:int -> dirty:(int * int array) list -> base:t -> base_crc:int -> delta
(** Capture the live simulator's divergence from [base]: inputs and
    registers are compared exhaustively (cheap — there are few); memory
    words are read only at the indices named by [dirty] (memory index ×
    sorted word indices, from {!Runtime.take_dirty_mem}).  [dirty] must
    cover every word that may differ from [base] — with the write
    barrier on since [base] was captured, it does by construction.
    [cycle] is the absolute cycle recorded in the delta ({!delta_cycle});
    [base_crc] the CRC32 of [base]'s serialized file bytes. *)

val delta_of : base:t -> base_crc:int -> t -> delta
(** Compare-based delta between two full checkpoints — no dirty set
    needed, costs one pass over every memory word.  Raises [Failure]
    when a memory of [cur] is absent or resized in [base]. *)

val apply_delta : t -> delta -> t
(** Reconstruct the full state one link forward.  Raises [Failure] when
    the delta's recorded base cycle does not match, or it names state the
    base lacks. *)

val restore_delta : Sim.t -> delta -> unit
(** Sparse in-place restore: bring a sim {e already sitting at the
    delta's base state} to the delta's state by writing only the changed
    scalars and memory words.  The base link is not checked — the caller
    vouches the sim is at the base. *)

val delta_cycle : delta -> int

val delta_base : delta -> int * int
(** [(base_cycle, base_file_crc32)] — the link this delta chains to. *)

val delta_size : delta -> int
(** Changed scalars + memory words recorded (bench instrumentation). *)

val delta_to_string : delta -> string

val delta_of_string : string -> delta
(** Strict: raises [Failure] on any malformation, including a missing or
    mismatching CRC footer. *)

val load_delta : string -> delta
