open Gsim_ir

type t = { pass_name : string; run : Circuit.t -> int }

type outcome = {
  outcome_pass : string;
  rewrites : int;
  nodes_before : int;
  nodes_after : int;
  seconds : float;
}

let apply p c =
  let nodes_before = Circuit.node_count c in
  let t0 = Sys.time () in
  let rewrites = p.run c in
  let seconds = Sys.time () -. t0 in
  { outcome_pass = p.pass_name; rewrites; nodes_before; nodes_after = Circuit.node_count c; seconds }

let run_pipeline passes c = List.map (fun p -> apply p c) passes

let run_fixpoint ?(max_rounds = 8) passes c =
  let rec go round acc =
    if round >= max_rounds then List.rev acc
    else begin
      let outcomes = run_pipeline passes c in
      let changed = List.exists (fun o -> o.rewrites > 0) outcomes in
      let acc = List.rev_append outcomes acc in
      if changed then go (round + 1) acc else List.rev acc
    end
  in
  go 0 []

let pp_outcome fmt o =
  Format.fprintf fmt "%-16s rewrites=%-6d nodes %d -> %d  %.4fs" o.outcome_pass o.rewrites
    o.nodes_before o.nodes_after o.seconds

type total = {
  total_pass : string;
  applications : int;
  total_rewrites : int;
  node_delta : int;
  total_seconds : float;
}

let totals outcomes =
  let names =
    List.fold_left
      (fun acc o -> if List.mem o.outcome_pass acc then acc else o.outcome_pass :: acc)
      [] outcomes
    |> List.rev
  in
  List.map
    (fun name ->
      let os = List.filter (fun o -> o.outcome_pass = name) outcomes in
      let sum f = List.fold_left (fun a o -> a + f o) 0 os in
      {
        total_pass = name;
        applications = List.length os;
        total_rewrites = sum (fun o -> o.rewrites);
        node_delta = sum (fun o -> o.nodes_after - o.nodes_before);
        total_seconds = List.fold_left (fun a o -> a +. o.seconds) 0. os;
      })
    names
