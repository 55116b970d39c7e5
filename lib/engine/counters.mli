(** Per-simulation event counters.

    These are the observable quantities of the paper's overhead model
    [T = ((E + A_succ) * af + A_exam) * N]: node evaluations (active
    nodes), active-bit examinations, successor activations, and register
    traffic. *)

type t = {
  mutable cycles : int;
  mutable evals : int;         (** node evaluations performed ("active node") *)
  mutable changed : int;       (** evaluations whose value changed *)
  mutable exams : int;         (** active-bit examinations ([A_exam] events) *)
  mutable activations : int;   (** successor activations ([A_succ] events) *)
  mutable reg_commits : int;   (** registers actually latched with a new value *)
  mutable reset_checks : int;  (** reset-signal examinations *)
  mutable backend : string;
      (** the backend that actually ran ("closures" / "native"), set by
          engines at build time from the resolved {!Eval.selected} — observable proof of what [`Auto] or a
          fallback picked.  Empty on the reference engine; not reset by
          {!clear}. *)
  mutable native_cache : string;
      (** under the native backend: ["hit"] when the compiled [.so] came
          from the in-process memo or the disk cache (no [cc] run),
          ["miss"] on a fresh compile; empty otherwise.  Not reset by
          {!clear}. *)
}

val create : unit -> t

val clear : t -> unit

val activity_factor : t -> total_nodes:int -> float
(** Mean fraction of evaluated nodes per cycle. *)

val to_json : t -> string
(** One flat JSON object with every counter field — the CLI embeds it in
    its [--json] output so bench tooling can script the counters.
    [backend]/[native_cache] appear only when set, keeping
    reference-engine output unchanged. *)

val pp : Format.formatter -> t -> unit
