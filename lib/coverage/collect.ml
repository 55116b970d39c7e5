module Bits = Gsim_bits.Bits
module Sim = Gsim_engine.Sim
module Activity = Gsim_engine.Activity
open Gsim_ir

type sig_point = {
  sp_node : int;
  mutable sp_last : Bits.t;
  sp_toggle : Db.toggle;
  sp_cov : Db.node_cov;
}

type cond_point = {
  cp_sel : Expr.t;
  mutable cp_last : bool;
  cp_cond : Db.cond;
}

type reset_point = {
  rp_signal : int;
  mutable rp_last : bool;
  rp_cov : Db.reset_cov;
}

type t = {
  cdb : Db.t;
  peek : int -> Bits.t;
  sigs : sig_point array;
  conds : cond_point array;
  resets : reset_point array;
  (* Fast path: point indexes are 0..nsigs-1 for signals, then conditions,
     then resets; [watchers.(id)] lists the points to re-sample when node
     [id] changes. *)
  watchers : int array array;
  dirty : bool array;
  dirty_stack : int array;
  mutable dirty_len : int;
}

let db t = t.cdb

let default_observed c =
  Circuit.fold_nodes c ~init:[] ~f:(fun acc n -> n.Circuit.id :: acc) |> List.rev

let point_name c id =
  let name = (Circuit.node c id).Circuit.name in
  if name = "" then Printf.sprintf "n%d" id else name

(* Pre-order mux enumeration of a node expression: (index, selector). *)
let muxes_of expr =
  let acc = ref [] in
  let idx = ref 0 in
  let rec go (e : Expr.t) =
    match e.Expr.desc with
    | Expr.Mux (sel, a, b) ->
      let i = !idx in
      incr idx;
      acc := (i, sel) :: !acc;
      go sel;
      go a;
      go b
    | Expr.Unop (_, x) -> go x
    | Expr.Binop (_, x, y) ->
      go x;
      go y
    | Expr.Const _ | Expr.Var _ -> ()
  in
  go expr;
  List.rev !acc

(* --- Sampling ----------------------------------------------------------- *)

let sample_sig t p =
  let v = t.peek p.sp_node in
  if not (Bits.equal v p.sp_last) then begin
    let flipped = Bits.logxor v p.sp_last in
    let tg = p.sp_toggle in
    for b = 0 to tg.Db.t_width - 1 do
      if Bits.bit flipped b then
        if Bits.bit v b then tg.Db.rise.(b) <- tg.Db.rise.(b) + 1
        else tg.Db.fall.(b) <- tg.Db.fall.(b) + 1
    done;
    p.sp_cov.Db.changes <- p.sp_cov.Db.changes + 1;
    p.sp_last <- v
  end

let sample_cond t p =
  let v = not (Bits.is_zero (Expr.eval t.peek p.cp_sel)) in
  let c = p.cp_cond in
  if v then c.Db.seen_true <- true else c.Db.seen_false <- true;
  if v <> p.cp_last then begin
    if v then c.Db.taken_true <- c.Db.taken_true + 1
    else c.Db.taken_false <- c.Db.taken_false + 1;
    p.cp_last <- v
  end

let sample_reset t p =
  let v = not (Bits.is_zero (t.peek p.rp_signal)) in
  let r = p.rp_cov in
  if v then r.Db.seen_on <- true else r.Db.seen_off <- true;
  if v <> p.rp_last then begin
    if v then r.Db.asserts <- r.Db.asserts + 1
    else r.Db.deasserts <- r.Db.deasserts + 1;
    p.rp_last <- v
  end

let sample_point t pi =
  let nsigs = Array.length t.sigs in
  let nconds = Array.length t.conds in
  if pi < nsigs then sample_sig t t.sigs.(pi)
  else if pi < nsigs + nconds then sample_cond t t.conds.(pi - nsigs)
  else sample_reset t t.resets.(pi - nsigs - nconds)

let sample_all t =
  Array.iter (sample_sig t) t.sigs;
  Array.iter (sample_cond t) t.conds;
  Array.iter (sample_reset t) t.resets

(* Baseline: record current values and observation flags, count nothing. *)
let baseline t =
  Array.iter (fun p -> p.sp_last <- t.peek p.sp_node) t.sigs;
  Array.iter
    (fun p ->
      let v = not (Bits.is_zero (Expr.eval t.peek p.cp_sel)) in
      if v then p.cp_cond.Db.seen_true <- true else p.cp_cond.Db.seen_false <- true;
      p.cp_last <- v)
    t.conds;
  Array.iter
    (fun p ->
      let v = not (Bits.is_zero (t.peek p.rp_signal)) in
      if v then p.rp_cov.Db.seen_on <- true else p.rp_cov.Db.seen_off <- true;
      p.rp_last <- v)
    t.resets

(* --- Dirty tracking (fast path) ----------------------------------------- *)

let mark t pi =
  if not t.dirty.(pi) then begin
    t.dirty.(pi) <- true;
    t.dirty_stack.(t.dirty_len) <- pi;
    t.dirty_len <- t.dirty_len + 1
  end

let mark_watchers t id =
  if id >= 0 && id < Array.length t.watchers then
    Array.iter (mark t) t.watchers.(id)

let mark_all t =
  let n = Array.length t.dirty in
  for pi = 0 to n - 1 do
    mark t pi
  done

let flush_dirty t =
  for i = 0 to t.dirty_len - 1 do
    let pi = t.dirty_stack.(i) in
    t.dirty.(pi) <- false;
    sample_point t pi
  done;
  t.dirty_len <- 0

(* --- Construction ------------------------------------------------------- *)

let build ?observe ~fast circuit peek =
  let cdb = Db.create ~design:(Circuit.name circuit) () in
  cdb.Db.runs <- 1;
  let observe = match observe with Some o -> o | None -> default_observed circuit in
  let sigs =
    observe
    |> List.map (fun id ->
           let name = point_name circuit id in
           let width = (Circuit.node circuit id).Circuit.width in
           {
             sp_node = id;
             sp_last = Bits.zero width;
             sp_toggle = Db.toggle_entry cdb name ~width;
             sp_cov = Db.node_entry cdb name ~width;
           })
    |> Array.of_list
  in
  let conds =
    observe
    |> List.concat_map (fun id ->
           match (Circuit.node circuit id).Circuit.expr with
           | None -> []
           | Some e ->
             let name = point_name circuit id in
             List.map
               (fun (idx, sel) ->
                 { cp_sel = sel; cp_last = false; cp_cond = Db.cond_entry cdb name idx })
               (muxes_of e))
    |> Array.of_list
  in
  let resets =
    Circuit.registers circuit
    |> List.filter_map (fun (r : Circuit.register) ->
           match r.reset with
           | None -> None
           | Some rst ->
             Some
               {
                 rp_signal = rst.Circuit.reset_signal;
                 rp_last = false;
                 rp_cov = Db.reset_entry cdb r.Circuit.reg_name;
               })
    |> Array.of_list
  in
  let npoints = Array.length sigs + Array.length conds + Array.length resets in
  let watchers =
    if not fast then [||]
    else begin
      let lists = Array.make (Circuit.max_id circuit) [] in
      let watch id pi =
        if id >= 0 && id < Array.length lists then lists.(id) <- pi :: lists.(id)
      in
      Array.iteri (fun i p -> watch p.sp_node i) sigs;
      let nsigs = Array.length sigs in
      Array.iteri
        (fun j p -> List.iter (fun v -> watch v (nsigs + j)) (Expr.vars p.cp_sel))
        conds;
      let nconds = Array.length conds in
      Array.iteri (fun k p -> watch p.rp_signal (nsigs + nconds + k)) resets;
      Array.map (fun l -> Array.of_list (List.rev l)) lists
    end
  in
  let t =
    {
      cdb;
      peek;
      sigs;
      conds;
      resets;
      watchers;
      dirty = Array.make (max npoints 1) false;
      dirty_stack = Array.make (max npoints 1) 0;
      dirty_len = 0;
    }
  in
  baseline t;
  t

let create ?observe (sim : Sim.t) =
  let t = build ?observe ~fast:false sim.Sim.circuit sim.Sim.peek in
  let wrapped =
    {
      sim with
      Sim.sim_name = sim.Sim.sim_name ^ "+cov";
      step =
        (fun () ->
          sim.Sim.step ();
          t.cdb.Db.total_cycles <- t.cdb.Db.total_cycles + 1;
          sample_all t);
    }
  in
  (t, wrapped)

let of_activity ?observe ?name engine =
  let sim = Activity.sim ?name engine in
  let t = build ?observe ~fast:true sim.Sim.circuit sim.Sim.peek in
  Activity.set_change_hook engine (fun id -> mark_watchers t id);
  let wrapped =
    {
      sim with
      Sim.sim_name = sim.Sim.sim_name ^ "+cov";
      poke =
        (fun id v ->
          sim.Sim.poke id v;
          mark_watchers t id);
      step =
        (fun () ->
          sim.Sim.step ();
          t.cdb.Db.total_cycles <- t.cdb.Db.total_cycles + 1;
          flush_dirty t);
      write_reg =
        (fun id v ->
          sim.Sim.write_reg id v;
          mark_all t);
      invalidate =
        (fun () ->
          sim.Sim.invalidate ();
          mark_all t);
    }
  in
  (t, wrapped)

let of_sim ?activity sim =
  match activity with
  | Some engine -> of_activity ~name:sim.Sim.sim_name engine
  | None -> create sim
