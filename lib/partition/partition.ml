open Gsim_ir

type t = { supernodes : int array array; of_node : int array }

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

(* Evaluated nodes in topological order, their rank, and the dependency
   edges that stay between evaluated nodes. *)
type graph = {
  order : int array;           (* topo order of evaluated node ids *)
  rank : int array;            (* node id -> position in [order], -1 otherwise *)
  edges : (int * int) list;    (* (u, v): v depends on u, both evaluated *)
}

let build_graph c =
  let order = Circuit.eval_order c in
  let rank = Array.make (Circuit.max_id c) (-1) in
  Array.iteri (fun i id -> rank.(id) <- i) order;
  let edges = ref [] in
  Array.iter
    (fun v ->
      List.iter
        (fun u -> if rank.(u) >= 0 then edges := (u, v) :: !edges)
        (List.sort_uniq compare (Circuit.dependencies c v)))
    order;
  { order; rank; edges = !edges }

(* Assemble the result from groups of node ids.  Groups are topologically
   ordered by Kahn's algorithm on the group condensation (our construction
   algorithms always produce an acyclic condensation; any leftover is
   appended by minimum rank as a safety net, the engines tolerate it). *)
let of_groups c g groups =
  let ngroups = Array.length groups in
  let of_node = Array.make (Circuit.max_id c) (-1) in
  Array.iteri (fun k members -> List.iter (fun id -> of_node.(id) <- k) members) groups;
  let succs = Array.make ngroups [] and indeg = Array.make ngroups 0 in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (u, v) ->
      let gu = of_node.(u) and gv = of_node.(v) in
      if gu <> gv && not (Hashtbl.mem seen (gu, gv)) then begin
        Hashtbl.add seen (gu, gv) ();
        succs.(gu) <- gv :: succs.(gu);
        indeg.(gv) <- indeg.(gv) + 1
      end)
    g.edges;
  let queue = Queue.create () in
  Array.iteri (fun k d -> if d = 0 then Queue.add k queue) indeg;
  let topo = ref [] and count = ref 0 in
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    topo := k :: !topo;
    incr count;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succs.(k)
  done;
  let sequence =
    if !count = ngroups then Array.of_list (List.rev !topo)
    else begin
      (* Cycle in the condensation: fall back to min-rank order. *)
      let keyed =
        Array.mapi
          (fun k members ->
            (List.fold_left (fun acc id -> min acc g.rank.(id)) max_int members, k))
          groups
      in
      Array.sort compare keyed;
      Array.map snd keyed
    end
  in
  let supernodes =
    Array.map
      (fun k ->
        let members = Array.of_list groups.(k) in
        Array.sort (fun a b -> compare g.rank.(a) g.rank.(b)) members;
        members)
      sequence
  in
  Array.iteri
    (fun k members -> Array.iter (fun id -> of_node.(id) <- k) members)
    supernodes;
  { supernodes; of_node }

let singleton c =
  let g = build_graph c in
  of_groups c g (Array.map (fun id -> [ id ]) g.order)

let monolithic c =
  let g = build_graph c in
  if Array.length g.order = 0 then { supernodes = [||]; of_node = Array.make (Circuit.max_id c) (-1) }
  else of_groups c g [| Array.to_list g.order |]

(* ------------------------------------------------------------------ *)
(* Kernighan's optimal sequential partition (DP)                       *)
(* ------------------------------------------------------------------ *)

(* Clusters form a sequence with forward-only edges.  Choose cut points
   minimizing the number of edges crossing a cut, subject to each segment's
   total node count being at most [max_size] (a cluster larger than the
   bound gets a segment of its own).  Returns the segments as lists of
   cluster indices. *)
let sequential_dp ~cluster_sizes ~cluster_edges ~max_size =
  let m = Array.length cluster_sizes in
  if m = 0 then []
  else begin
    (* crossing.(b) = number of edges over the boundary before cluster b. *)
    let diff = Array.make (m + 2) 0 in
    List.iter
      (fun (cu, cv) ->
        if cu < cv then begin
          diff.(cu + 1) <- diff.(cu + 1) + 1;
          diff.(cv + 1) <- diff.(cv + 1) - 1
        end)
      cluster_edges;
    let crossing = Array.make (m + 1) 0 in
    for b = 1 to m do
      crossing.(b) <- crossing.(b - 1) + diff.(b)
    done;
    let prefix_w = Array.make (m + 1) 0 in
    for i = 0 to m - 1 do
      prefix_w.(i + 1) <- prefix_w.(i) + cluster_sizes.(i)
    done;
    let inf = max_int / 2 in
    let f = Array.make (m + 1) inf in
    let back = Array.make (m + 1) (-1) in
    f.(0) <- 0;
    for i = 1 to m do
      let j = ref (i - 1) in
      let continue = ref true in
      while !continue && !j >= 0 do
        let weight = prefix_w.(i) - prefix_w.(!j) in
        if weight > max_size && !j < i - 1 then continue := false
        else begin
          let cost = f.(!j) + (if !j = 0 then 0 else crossing.(!j)) in
          if cost < f.(i) then begin
            f.(i) <- cost;
            back.(i) <- !j
          end;
          decr j
        end
      done
    done;
    let rec cuts i acc = if i = 0 then acc else cuts back.(i) (back.(i) :: acc) in
    let boundaries = cuts m [ m ] in
    (* boundaries = [0; b1; ...; m]; segments are consecutive pairs. *)
    let rec segments = function
      | b0 :: (b1 :: _ as rest) -> List.init (b1 - b0) (fun k -> b0 + k) :: segments rest
      | [ _ ] | [] -> []
    in
    segments boundaries
  end

(* Run the DP over a topologically ordered cluster sequence and produce
   final groups of node ids. *)
let dp_partition c g ~clusters ~max_size =
  (* [clusters]: array of node-id lists, already in a sequence with
     forward-only inter-cluster edges. *)
  let cluster_of = Array.make (Circuit.max_id c) (-1) in
  Array.iteri (fun k members -> List.iter (fun id -> cluster_of.(id) <- k) members) clusters;
  let cluster_edges =
    List.filter_map
      (fun (u, v) ->
        let cu = cluster_of.(u) and cv = cluster_of.(v) in
        if cu <> cv then Some (cu, cv) else None)
      g.edges
  in
  let cluster_sizes = Array.map List.length clusters in
  let segments = sequential_dp ~cluster_sizes ~cluster_edges ~max_size in
  let groups =
    List.map (fun ks -> List.concat_map (fun k -> clusters.(k)) ks) segments
  in
  of_groups c g (Array.of_list groups)

(* Topologically sequence clusters (Kahn over the cluster condensation,
   min-rank fallback on a cycle) so the sequential DP sees forward-only
   edges. *)
let order_clusters c g clusters =
  let n = Array.length clusters in
  let cluster_of = Array.make (Circuit.max_id c) (-1) in
  Array.iteri (fun k ms -> List.iter (fun id -> cluster_of.(id) <- k) ms) clusters;
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (u, v) ->
      let cu = cluster_of.(u) and cv = cluster_of.(v) in
      if cu <> cv && not (Hashtbl.mem seen (cu, cv)) then begin
        Hashtbl.add seen (cu, cv) ();
        succs.(cu) <- cv :: succs.(cu);
        indeg.(cv) <- indeg.(cv) + 1
      end)
    g.edges;
  (* Prefer low-rank clusters first for locality of the DP's cut costs. *)
  let key k =
    List.fold_left (fun acc id -> min acc g.rank.(id)) max_int clusters.(k)
  in
  let module Pq = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let ready = ref Pq.empty in
  for k = 0 to n - 1 do
    if indeg.(k) = 0 then ready := Pq.add (key k, k) !ready
  done;
  let out = ref [] and count = ref 0 in
  while not (Pq.is_empty !ready) do
    let ((_, k) as elt) = Pq.min_elt !ready in
    ready := Pq.remove elt !ready;
    out := k :: !out;
    incr count;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := Pq.add (key s, s) !ready)
      succs.(k)
  done;
  if !count = n then Array.of_list (List.rev_map (fun k -> clusters.(k)) !out)
  else begin
    (* Cycle: order by minimum rank; the engine's re-sweep keeps this
       correct, only performance could suffer. *)
    let keyed = Array.init n (fun k -> (key k, k)) in
    Array.sort compare keyed;
    Array.map (fun (_, k) -> clusters.(k)) keyed
  end

let kernighan c ~max_size =
  let g = build_graph c in
  dp_partition c g ~clusters:(Array.map (fun id -> [ id ]) g.order) ~max_size

(* ------------------------------------------------------------------ *)
(* GSIM's enhanced algorithm: correlation pre-merge + sequential DP    *)
(* ------------------------------------------------------------------ *)

module Union_find = struct
  type t = { parent : int array; size : int array }

  let create n = { parent = Array.init n (fun i -> i); size = Array.make n 1 }

  let rec find u i = if u.parent.(i) = i then i else begin
      u.parent.(i) <- find u u.parent.(i);
      u.parent.(i)
    end

  (* Merge refusing to grow past [cap]; returns whether merged. *)
  let union ~cap u a b =
    let ra = find u a and rb = find u b in
    if ra = rb then true
    else if u.size.(ra) + u.size.(rb) > cap then false
    else begin
      let big, small = if u.size.(ra) >= u.size.(rb) then (ra, rb) else (rb, ra) in
      u.parent.(small) <- big;
      u.size.(big) <- u.size.(big) + u.size.(small);
      true
    end
end

(* Tarjan SCC over a small adjacency list graph; returns the component id
   per vertex, components numbered in reverse topological order. *)
let scc nvertices succs =
  let index = Array.make nvertices (-1) in
  let lowlink = Array.make nvertices 0 in
  let on_stack = Array.make nvertices false in
  let comp = Array.make nvertices (-1) in
  let stack = ref [] in
  let next_index = ref 0 and next_comp = ref 0 in
  (* Iterative Tarjan to avoid stack overflow on big graphs. *)
  let strongconnect v =
    let work = Stack.create () in
    Stack.push (v, ref succs.(v)) work;
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    while not (Stack.is_empty work) do
      let u, rest = Stack.top work in
      match !rest with
      | w :: tl ->
        rest := tl;
        if index.(w) < 0 then begin
          index.(w) <- !next_index;
          lowlink.(w) <- !next_index;
          incr next_index;
          stack := w :: !stack;
          on_stack.(w) <- true;
          Stack.push (w, ref succs.(w)) work
        end
        else if on_stack.(w) then lowlink.(u) <- min lowlink.(u) index.(w)
      | [] ->
        ignore (Stack.pop work);
        if lowlink.(u) = index.(u) then begin
          let rec pop () =
            match !stack with
            | w :: tl ->
              stack := tl;
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w <> u then pop ()
            | [] -> assert false
          in
          pop ();
          incr next_comp
        end;
        (match Stack.top_opt work with
         | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(u)
         | None -> ())
    done
  in
  for v = 0 to nvertices - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (comp, !next_comp)

let gsim c ~max_size =
  let g = build_graph c in
  let n = Circuit.max_id c in
  let uf = Union_find.create n in
  (* Successor/dependency counts restricted to evaluated nodes. *)
  let succ_list = Array.make n [] and dep_list = Array.make n [] in
  List.iter
    (fun (u, v) ->
      succ_list.(u) <- v :: succ_list.(u);
      dep_list.(v) <- u :: dep_list.(v))
    g.edges;
  let cap = max_size in
  (* Rule 1: out-degree 1 — a node is activated along with its only
     successor. *)
  Array.iter
    (fun u ->
      match succ_list.(u) with
      | [ s ] -> ignore (Union_find.union ~cap uf u s)
      | [] | _ :: _ -> ())
    g.order;
  (* Rule 2: in-degree 1 — activated when its only predecessor is. *)
  Array.iter
    (fun v ->
      match dep_list.(v) with
      | [ p ] -> ignore (Union_find.union ~cap uf v p)
      | [] | _ :: _ -> ())
    g.order;
  (* Rule 3: siblings sharing the same predecessor set activate together.
     Buckets are keyed by the sorted dependency list; oversized buckets are
     merged greedily until the cap refuses. *)
  let buckets = Hashtbl.create 256 in
  Array.iter
    (fun v ->
      let deps = List.sort_uniq compare dep_list.(v) in
      if deps <> [] then begin
        let key = String.concat "," (List.map string_of_int deps) in
        Hashtbl.replace buckets key
          (v :: (try Hashtbl.find buckets key with Not_found -> []))
      end)
    g.order;
  Hashtbl.iter
    (fun _ members ->
      match members with
      | first :: rest -> List.iter (fun v -> ignore (Union_find.union ~cap uf first v)) rest
      | [] -> ())
    buckets;
  (* Collect clusters; merge strongly connected clusters so that the
     condensation is a DAG the sequential DP can order. *)
  let root_ids = Hashtbl.create 256 in
  let nclusters = ref 0 in
  Array.iter
    (fun id ->
      let r = Union_find.find uf id in
      if not (Hashtbl.mem root_ids r) then begin
        Hashtbl.add root_ids r !nclusters;
        incr nclusters
      end)
    g.order;
  let cluster_of id = Hashtbl.find root_ids (Union_find.find uf id) in
  let csuccs = Array.make !nclusters [] in
  List.iter
    (fun (u, v) ->
      let cu = cluster_of u and cv = cluster_of v in
      if cu <> cv then csuccs.(cu) <- cv :: csuccs.(cu))
    g.edges;
  let comp, ncomp = scc !nclusters csuccs in
  (* A cyclic cluster condensation cannot be sequenced.  Clusters caught in
     a multi-cluster strongly connected component lose their protection and
     dissolve back into singleton nodes — a refinement never creates new
     cycles, so one pass restores a DAG while keeping the correlation
     clusters everywhere else. *)
  let comp_cluster_count = Array.make ncomp 0 in
  Array.iter (fun k -> comp_cluster_count.(k) <- comp_cluster_count.(k) + 1) comp;
  let keep id = comp_cluster_count.(comp.(cluster_of id)) = 1 in
  let members = Hashtbl.create 256 in
  let singles = ref [] in
  (* Reverse iteration keeps each member list in topological order. *)
  for i = Array.length g.order - 1 downto 0 do
    let id = g.order.(i) in
    if keep id then begin
      let k = cluster_of id in
      Hashtbl.replace members k (id :: (try Hashtbl.find members k with Not_found -> []))
    end
    else singles := [ id ] :: !singles
  done;
  let clusters =
    Array.of_list
      (Hashtbl.fold (fun _ ms acc -> ms :: acc) members [] @ !singles)
  in
  let clusters = order_clusters c g clusters in
  dp_partition c g ~clusters ~max_size

(* ------------------------------------------------------------------ *)
(* MFFC-based partitioning (ESSENT)                                    *)
(* ------------------------------------------------------------------ *)

let mffc c ~max_size =
  let g = build_graph c in
  let n = Circuit.max_id c in
  let succ_count = Array.make n 0 in
  let dep_list = Array.make n [] in
  List.iter
    (fun (u, v) ->
      succ_count.(u) <- succ_count.(u) + 1;
      dep_list.(v) <- u :: dep_list.(v))
    g.edges;
  let assigned = Array.make n false in
  let groups = ref [] in
  (* Seeds are taken in reverse topological order; a predecessor joins the
     cone when every one of its successors is already inside. *)
  let in_cone = Array.make n 0 in
  (* in_cone.(u) counts u's successors currently inside the growing cone. *)
  for i = Array.length g.order - 1 downto 0 do
    let seed = g.order.(i) in
    if not assigned.(seed) then begin
      let cone = ref [ seed ] in
      let size = ref 1 in
      assigned.(seed) <- true;
      let frontier = Queue.create () in
      let consider u =
        if g.rank.(u) >= 0 && not assigned.(u) then begin
          in_cone.(u) <- in_cone.(u) + 1;
          if in_cone.(u) = succ_count.(u) then Queue.add u frontier
        end
      in
      List.iter consider dep_list.(seed);
      while not (Queue.is_empty frontier) && !size < max_size do
        let u = Queue.pop frontier in
        if not assigned.(u) then begin
          assigned.(u) <- true;
          cone := u :: !cone;
          incr size;
          List.iter consider dep_list.(u)
        end
      done;
      (* Reset counters touched while growing this cone. *)
      let reset_from ids =
        List.iter
          (fun v ->
            List.iter
              (fun u -> if in_cone.(u) > 0 then in_cone.(u) <- 0)
              dep_list.(v))
          ids
      in
      reset_from !cone;
      Queue.iter (fun u -> in_cone.(u) <- 0) frontier;
      groups := !cone :: !groups
    end
  done;
  of_groups c g (Array.of_list !groups)

let algorithm_of_string = function
  | "none" -> Some (fun c ~max_size:_ -> singleton c)
  | "kernighan" -> Some kernighan
  | "mffc" -> Some mffc
  | "gsim" -> Some gsim
  | _ -> None

(* Distinct supernodes of a node list, ascending, excluding [exclude]. *)
let target_supers t ?(exclude = -1) ids =
  List.filter_map
    (fun id ->
      let k = if id < Array.length t.of_node then t.of_node.(id) else -1 in
      if k >= 0 && k <> exclude then Some k else None)
    ids
  |> List.sort_uniq compare |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Validation and quality metrics                                      *)
(* ------------------------------------------------------------------ *)

let validate c t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let g = build_graph c in
  let seen = Array.make (Circuit.max_id c) false in
  Array.iteri
    (fun k members ->
      let last_rank = ref (-1) in
      Array.iter
        (fun id ->
          if g.rank.(id) < 0 then fail "supernode %d contains non-evaluated node %d" k id;
          if seen.(id) then fail "node %d in two supernodes" id;
          seen.(id) <- true;
          if t.of_node.(id) <> k then fail "of_node inconsistent for %d" id;
          if g.rank.(id) <= !last_rank then fail "supernode %d members out of order" k;
          last_rank := g.rank.(id))
        members)
    t.supernodes;
  Array.iter
    (fun id -> if not seen.(id) then fail "evaluated node %d not covered" id)
    g.order;
  List.iter
    (fun (u, v) ->
      if t.of_node.(u) > t.of_node.(v) then
        fail "edge %d -> %d goes backwards (supernode %d -> %d)" u v t.of_node.(u)
          t.of_node.(v))
    g.edges

type quality = {
  supernode_count : int;
  cut_edges : int;
  max_size : int;
  mean_size : float;
}

let quality c t =
  let g = build_graph c in
  let cut =
    List.fold_left
      (fun acc (u, v) -> if t.of_node.(u) <> t.of_node.(v) then acc + 1 else acc)
      0 g.edges
  in
  let sizes = Array.map Array.length t.supernodes in
  let total = Array.fold_left ( + ) 0 sizes in
  {
    supernode_count = Array.length t.supernodes;
    cut_edges = cut;
    max_size = Array.fold_left max 0 sizes;
    mean_size =
      (if Array.length sizes = 0 then 0.
       else float_of_int total /. float_of_int (Array.length sizes));
  }

let pp_quality fmt q =
  Format.fprintf fmt "supernodes=%d cut_edges=%d max=%d mean=%.1f" q.supernode_count
    q.cut_edges q.max_size q.mean_size
