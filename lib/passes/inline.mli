(** Node inline and extraction (paper §III-B, Figure 3).

    Whether a logic node's computation should live in its own node
    (extraction — pay one node of overhead, compute once) or be inlined
    into each consumer (fewer nodes, repeated computation) is decided by
    the paper's cost model: extract when

      [cost f * refs > cost f + cost_node]

    and inline otherwise.  The pass works in both directions: existing
    multiply-referenced cheap nodes are dissolved into their consumers, and
    repeated subexpressions whose cost clears the bound are hoisted into
    fresh nodes (common-subexpression extraction).

    Extraction considers subexpressions of 2 to 24 operators, counted by
    structure ({!Gsim_ir.Expr.equal}, {!Gsim_ir.Expr.hash}) in one
    bottom-up walk per node.  It takes winners largest first, ties by
    first occurrence in node order, and at most 64 per run; the
    fixpoint takes the rest.  The result is deterministic. *)

val cost_node : int
(** The modeled overhead of one extra node: an activation, an examination
    and a store. *)

val inline_pass : Pass.t

val extract_pass : Pass.t

val should_extract : cost:int -> refs:int -> bool
(** The decision rule, exposed for tests and the ablation bench. *)
