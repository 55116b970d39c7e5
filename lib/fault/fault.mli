(** Fault descriptions for injection campaigns.

    A fault names a target signal (by hierarchical name in the {e
    unoptimized} design), a fault model, and the cycle at which it is
    injected.  Faults serialize to a compact key —
    [<target>#<model>@<cycle>] — used as the primary key of the campaign
    database ({!Db}), on the command line ([--fault KEY]), and in
    reports.

    Models:
    - [seu:B] — transient single-event upset: bit [B] flips once at the
      injection cycle.  On a register the flipped value is latched and
      the state evolves from it; on a wire or input the flip lasts one
      cycle.
    - [stuck0:B+D] / [stuck1:B+D] — bit [B] is pinned to 0/1 for [D]
      cycles.
    - [word:<W'hHEX>+D] — the whole word is pinned to the given constant
      for [D] cycles. *)

module Bits = Gsim_bits.Bits
open Gsim_ir

type model =
  | Seu of int  (** bit index *)
  | Stuck of bool * int * int  (** stuck value, bit index, duration *)
  | Word_force of Bits.t * int  (** forced value, duration *)

type t = { target : string; model : model; cycle : int }

val model_to_string : model -> string

val model_of_string : string -> model
(** Raises [Failure] on malformed input. *)

val key : t -> string
(** [<target>#<model>@<cycle>], e.g. ["cpu.pc#seu:3@120"]. *)

val of_key : string -> t
(** Inverse of {!key}; raises [Failure] on malformed input.  The target
    is split at the {e last} ['#'] so names containing ['#'] survive. *)

val candidates : Circuit.t -> (string * int) list
(** Named registers and logic nodes (name, width) — the population
    {!random} samples from.  Compiler-generated names (leading ['_'])
    are excluded so fault keys stay meaningful across optimization
    levels. *)

val random :
  ?models:[ `Seu | `Stuck0 | `Stuck1 | `Word ] list ->
  ?duration:int ->
  seed:int -> count:int -> horizon:int -> Circuit.t -> t list
(** [random ~seed ~count ~horizon c] draws [count] faults (deduplicated,
    sorted by key order) over the candidate signals, with injection
    cycles in [\[0, horizon)].  Deterministic in [seed]. *)

val select :
  keys:string list ->
  random:int ->
  ?models:string ->
  duration:int ->
  seed:int -> horizon:int -> Circuit.t -> t list
(** A campaign's fault list: the explicit [keys] ({!of_key}) followed by
    [random] draws of {!random}, restricted to [models], a
    comma-separated subset of [seu,stuck0,stuck1,word].  Raises
    [Failure] on a bad key or model name, or when the list is empty. *)

val inject :
  ?before:(unit -> Bits.t) ->
  Gsim_engine.Sim.t -> register:bool -> width:int -> int -> t -> unit
(** Apply the fault to node [id] (of [width] bits) now: an SEU on a
    [register] latches the flipped value, every other model forces the
    node through the engine's override layer until {!release_cycle}.
    [before] is the node's fault-free value this cycle for an SEU on a
    non-register (default: peek it).  Raises [Failure] when the fault's
    bit is out of range. *)

val release_cycle : register:bool -> t -> int option
(** The cycle at which {!inject}'s force must be released; [None] for a
    latched register SEU. *)
