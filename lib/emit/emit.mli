(** Standalone C simulation units ([gsim emit], Table IV).

    Every node is rendered through {!Emit_c.emit_expr}, the native
    backend's lowering, over its value layout; this module adds only the
    scheduling of the three simulator families Table IV compares:

    - {!Full_cycle_mode} (Verilator/Arcilator): one [gsim_eval()]
      computing every node in topological order;
    - {!Essent_mode}: supernode functions behind [bool] active flags;
    - {!Gsim_mode}: supernode functions behind word-packed active bits,
      dispatched by count-trailing-zeros.

    In the partitioned modes every supernode starts active, and a changed
    value — computed, committed ([gsim_commit()]: memory writes, register
    latches, slow-path resets) or poked ([gsim_poke(id, limbs)]) — wakes
    the supernodes of its consumers, the sets the activity engines use.
    [gsim_peek(id, limbs)] reads any node; [gsim_cycle()] runs
    [gsim_eval()] then [gsim_commit()].  Like the native unit, the source
    needs a GNU C compiler (gcc or clang). *)

open Gsim_ir

type mode = Full_cycle_mode | Essent_mode | Gsim_mode

type result = {
  source : string;
  emission_seconds : float;
  code_bytes : int;
      (** bytes of generated code after the fixed helper preamble (the
          .text proxy) *)
  data_bytes : int;   (** bytes of simulation state, memories excluded *)
  mem_bytes : int;
}

val emit : ?mode:mode -> ?partition:Gsim_partition.Partition.t -> Circuit.t -> result
(** [Essent_mode]/[Gsim_mode] require a partition (defaults to
    {!Gsim_partition.Partition.gsim} with max size 32).  Raises
    [Invalid_argument] naming the node when a node has a subexpression
    {!Emit_c.emit_expr} cannot lower (wider than {!Emit_c.wide_max}). *)

val mode_of_string : string -> mode option
