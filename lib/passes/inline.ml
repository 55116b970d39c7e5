open Gsim_ir

let cost_node = 3

let should_extract ~cost ~refs = cost * refs > cost + cost_node

(* Cap on the size of an expression produced by inlining; beyond this the
   node is worth its activation overhead regardless of the model. *)
let max_inlined_size = 64

(* ------------------------------------------------------------------ *)
(* Inline direction                                                    *)
(* ------------------------------------------------------------------ *)

let inline_run c =
  let counts = Analysis.use_counts c in
  let protected = Analysis.port_protected c in
  let nmax = Circuit.max_id c in
  (* Candidate bodies, substituted transitively in one sweep (an inlined
     body may itself mention inlinable nodes; resolve bodies first). *)
  let body : Expr.t option array = Array.make nmax None in
  Circuit.iter_nodes c (fun n ->
      if
        n.Circuit.kind = Circuit.Logic
        && (not n.Circuit.is_output)
        && (not protected.(n.Circuit.id))
        && counts.(n.Circuit.id) > 0
      then begin
        match n.Circuit.expr with
        | Some e
          when (not (should_extract ~cost:(Expr.cost e) ~refs:counts.(n.Circuit.id)))
               && Expr.size e <= max_inlined_size ->
          body.(n.Circuit.id) <- Some e
        | Some _ | None -> ()
      end);
  (* Resolve nested candidates bottom-up with memoization. *)
  let resolved = Array.make nmax false in
  let rec resolve id =
    if not resolved.(id) then begin
      resolved.(id) <- true;
      match body.(id) with
      | Some e ->
        let e' =
          Expr.map_vars
            (fun ~width v ->
              match resolve v with
              | Some b when Expr.size b + Expr.size e <= max_inlined_size -> b
              | Some _ | None -> Expr.var ~width v)
            e
        in
        body.(id) <- Some e'
      | None -> ()
    end;
    body.(id)
  in
  for id = 0 to nmax - 1 do
    ignore (resolve id)
  done;
  let changed = ref 0 in
  let subst ~width v =
    match if v < nmax then body.(v) else None with
    | Some b -> b
    | None -> Expr.var ~width v
  in
  Circuit.iter_nodes c (fun n ->
      match n.Circuit.expr with
      | Some e when body.(n.Circuit.id) = None ->
        (* Only rewrite nodes that survive; dissolved nodes are deleted. *)
        let has_candidate = List.exists (fun v -> v < nmax && body.(v) <> None) (Expr.vars e) in
        if has_candidate then begin
          let e' = Expr.map_vars subst e in
          if Expr.size e' <= max_inlined_size || Expr.size e' <= Expr.size e then begin
            n.Circuit.expr <- Some e';
            incr changed
          end
        end
      | Some _ | None -> ());
  (* Delete nodes that no longer have uses (their consumers absorbed the
     body); nodes that kept a use stay. *)
  let counts' = Analysis.use_counts c in
  for id = 0 to nmax - 1 do
    if body.(id) <> None && counts'.(id) = 0 then begin
      Circuit.delete_node c id;
      incr changed
    end
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* Extraction direction (cross-node CSE)                               *)
(* ------------------------------------------------------------------ *)

(* Subexpressions eligible for extraction: at least two operators (a
   single operator on leaves is cheaper than a node of its own) and at most
   [max_extract_size]. *)
let min_extract_size = 2
let max_extract_size = 24

(* Extractions per run; the fixpoint extracts the rest in later rounds. *)
let max_extract_per_run = 64

(* Occurrence-table key: a subexpression with its structural hash
   ([Expr.hash]), computed once bottom-up so neither counting nor rewriting
   rehashes a subtree. *)
type key = { hash : int; expr : Expr.t }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.hash = b.hash && Expr.equal a.expr b.expr
  let hash k = k.hash
end)

(* Walks [e] bottom-up, computing each subexpression's size once and its
   hash only up to the window (every enclosing expression is larger
   still).  [visit ~size k] sees each window subexpression, operands
   before their parent, and may answer a replacement; a replaced parent
   drops its rewritten operands, so the outermost match wins.  Returns
   [e]'s size, hash and rewritten form ([== e] when nothing changed). *)
let window_hash e size h1 h2 h3 =
  if size <= max_extract_size then Expr.hash_node e h1 h2 h3 else 0

let rec walk visit (e : Expr.t) =
  let size, h, e' =
    match e.Expr.desc with
    | Expr.Const _ | Expr.Var _ -> (0, Expr.hash_node e 0 0 0, e)
    | Expr.Unop (op, a) ->
      let sa, ha, a' = walk visit a in
      let size = 1 + sa in
      (size, window_hash e size ha 0 0, if a' == a then e else Expr.unop op a')
    | Expr.Binop (op, a, b) ->
      let sa, ha, a' = walk visit a in
      let sb, hb, b' = walk visit b in
      let size = 1 + sa + sb in
      (size, window_hash e size ha hb 0, if a' == a && b' == b then e else Expr.binop op a' b')
    | Expr.Mux (s, a, b) ->
      let ss, hs, s' = walk visit s in
      let sa, ha, a' = walk visit a in
      let sb, hb, b' = walk visit b in
      let size = 1 + ss + sa + sb in
      ( size,
        window_hash e size hs ha hb,
        if s' == s && a' == a && b' == b then e else Expr.mux s' a' b' )
  in
  let e' =
    if size < min_extract_size || size > max_extract_size then e'
    else match visit ~size { hash = h; expr = e } with Some r -> r | None -> e'
  in
  (size, h, e')

type occurrences = { mutable refs : int; size : int; first : int }

let extract_run c =
  (* Count occurrences of window subexpressions across every node,
     remembering each one's first occurrence in node order. *)
  let table = Tbl.create 1024 in
  let count ~size k =
    (match Tbl.find_opt table k with
     | Some o -> o.refs <- o.refs + 1
     | None -> Tbl.add table k { refs = 1; size; first = Tbl.length table });
    None
  in
  Circuit.iter_nodes c (fun n ->
      match n.Circuit.expr with Some e -> ignore (walk count e) | None -> ());
  (* Winners by the cost model, bigger expressions first so nested
     candidates defer to their enclosing winner, ties by first occurrence:
     a total order, so the result never depends on table iteration. *)
  let winners =
    Tbl.fold
      (fun k o acc ->
        if o.refs >= 2 && should_extract ~cost:(Expr.cost k.expr) ~refs:o.refs then (k, o) :: acc
        else acc)
      table []
    |> List.sort (fun (_, a) (_, b) ->
        if a.size <> b.size then compare b.size a.size else compare a.first b.first)
    |> List.filteri (fun i _ -> i < max_extract_per_run)
  in
  let first_fresh = Circuit.max_id c in
  let extracted = Tbl.create 64 in
  List.iter
    (fun (k, _) ->
      let node = Circuit.add_logic c ~name:(Circuit.fresh_name c "cse") k.expr in
      Tbl.add extracted k node.Circuit.id)
    winners;
  if winners <> [] then begin
    (* Rewrite every occurrence, outermost first, to reference the new
       nodes.  The fresh CSE nodes keep their bodies verbatim; operands
       nested in them that also won are reconsidered next round. *)
    let replace ~size:_ k =
      Option.map (fun id -> Expr.var ~width:(Expr.width k.expr) id) (Tbl.find_opt extracted k)
    in
    Circuit.iter_nodes c (fun n ->
        match n.Circuit.expr with
        | Some e when n.Circuit.id < first_fresh ->
          let _, _, e' = walk replace e in
          if e' != e then n.Circuit.expr <- Some e'
        | Some _ | None -> ())
  end;
  List.length winners

let inline_pass = { Pass.pass_name = "inline"; run = inline_run }
let extract_pass = { Pass.pass_name = "extract"; run = extract_run }
