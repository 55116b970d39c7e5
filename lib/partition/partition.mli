(** Supernode construction.

    A partition groups the circuit's evaluated nodes (logic, register-next,
    memory-read) into supernodes.  Each supernode carries one active bit in
    the activity-driven engines; activating any member evaluates the whole
    supernode, so grouping trades examination overhead ([A_exam]) against
    activity factor ([af]).

    All partitions produced here are {e schedulable}: supernodes are
    numbered so that every combinational dependency between two supernodes
    goes from a lower to a higher index, and members are listed in
    evaluation order.  A single left-to-right sweep per cycle therefore
    suffices.

    Three algorithms are provided, matching the paper's Table III:

    - {!kernighan}: Kernighan's optimal sequential partition — a dynamic
      program over the topological order that minimizes the number of cut
      edges under a segment-size bound.
    - {!mffc}: maximal fanout-free cones, ESSENT's approach.
    - {!gsim}: the paper's enhanced algorithm — nodes with strong activation
      correlation (out-degree 1 with its successor, in-degree 1 with its
      predecessor, same-predecessor siblings) are pre-merged into clusters
      protected from being split, and the Kernighan dynamic program then
      runs over the cluster sequence. *)

open Gsim_ir

type t = {
  supernodes : int array array;
      (** [supernodes.(k)] lists member node ids in evaluation order. *)
  of_node : int array;
      (** node id -> supernode index; -1 for nodes not evaluated
          (inputs, register reads, deleted ids). *)
}

val singleton : Circuit.t -> t
(** One node per supernode (the "None" row of Table III: no grouping). *)

val monolithic : Circuit.t -> t
(** All nodes in one supernode (degenerate; for tests). *)

val kernighan : Circuit.t -> max_size:int -> t

val mffc : Circuit.t -> max_size:int -> t

val gsim : Circuit.t -> max_size:int -> t

val algorithm_of_string : string -> (Circuit.t -> max_size:int -> t) option
(** ["none" | "kernighan" | "mffc" | "gsim"]. *)

val target_supers : t -> ?exclude:int -> int list -> int array
(** The distinct supernodes holding the given node ids, ascending,
    without [exclude]: the active bits a change to a node with these
    successors must set.  Shared by the activity engines and the emitted
    C units, so both wake the same supernodes. *)

val validate : Circuit.t -> t -> unit
(** Checks coverage (every evaluated node in exactly one supernode, others
    in none), member evaluation order, and schedulability.  Raises
    [Failure] with a description otherwise. *)

type quality = {
  supernode_count : int;
  cut_edges : int;          (** dependency edges crossing supernodes *)
  max_size : int;
  mean_size : float;
}

val quality : Circuit.t -> t -> quality

val pp_quality : Format.formatter -> quality -> unit
