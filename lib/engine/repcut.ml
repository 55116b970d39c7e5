module Bits = Gsim_bits.Bits
open Gsim_ir

module Barrier = Parallel.Barrier

type t = {
  rt : Runtime.t;
  threads : int;
  cones : (unit -> bool) array array;  (* per thread, evaluators in topo order *)
  cone_node_counts : int array;
  evaluated_nodes : int;
  write_commits : (unit -> bool) array;
  reg_copies : (unit -> bool) array;
  resets : ((unit -> bool) * (unit -> bool) array) array;
  counters : Counters.t;
  barrier : Barrier.t;
  stop : bool Atomic.t;
  mutable workers : unit Domain.t list;
  mutable destroyed : bool;
  mutable coord_sense : bool;
}

(* Sinks and their combinational fan-in cones. *)
let sink_groups c ~threads =
  let rank = Array.make (Circuit.max_id c) (-1) in
  let order = Circuit.eval_order c in
  Array.iteri (fun i id -> rank.(id) <- i) order;
  (* Backward closure over evaluated nodes from a sink id. *)
  let cone_of id =
    let seen = Hashtbl.create 64 in
    let rec go id =
      if rank.(id) >= 0 && not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        List.iter go (Circuit.dependencies c id)
      end
    in
    go id;
    seen
  in
  (* Sink sets: each register's next node (plus the operands of write and
     read ports and each observable output). *)
  let sinks = ref [] in
  List.iter
    (fun (r : Circuit.register) -> sinks := r.Circuit.next :: !sinks)
    (Circuit.registers c);
  Array.iter
    (fun (m : Circuit.memory) ->
      List.iter
        (fun (w : Circuit.write_port) ->
          sinks := w.w_addr :: w.w_data :: w.w_en :: !sinks)
        m.Circuit.write_ports;
      List.iter (fun id -> sinks := id :: !sinks) m.Circuit.read_port_ids)
    (Circuit.memories c);
  Circuit.iter_nodes c (fun n -> if n.Circuit.is_output then sinks := n.Circuit.id :: !sinks);
  (* Reset signals must be fresh for the commit phase. *)
  List.iter
    (fun (r : Circuit.register) ->
      match r.Circuit.reset with
      | Some rst -> sinks := rst.Circuit.reset_signal :: !sinks
      | None -> ())
    (Circuit.registers c);
  let sinks = List.sort_uniq compare !sinks in
  let sinks = List.filter (fun id -> rank.(id) >= 0 || Circuit.dependencies c id <> []) sinks in
  (* Greedy balance by cone size (longest-processing-time heuristic). *)
  let weighted =
    List.map (fun id -> (id, Hashtbl.length (cone_of id))) sinks
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let assignment = Array.make threads [] in
  let load = Array.make threads 0 in
  List.iter
    (fun (id, w) ->
      let best = ref 0 in
      for k = 1 to threads - 1 do
        if load.(k) < load.(!best) then best := k
      done;
      assignment.(!best) <- id :: assignment.(!best);
      load.(!best) <- load.(!best) + w)
    weighted;
  (* Per-thread cone in topological order. *)
  let cones =
    Array.map
      (fun sink_ids ->
        let members = Hashtbl.create 256 in
        List.iter
          (fun sink ->
            let cone = cone_of sink in
            Hashtbl.iter (fun id () -> Hashtbl.replace members id ()) cone;
            if rank.(sink) >= 0 then Hashtbl.replace members sink ())
          sink_ids;
        let ids = Hashtbl.fold (fun id () acc -> id :: acc) members [] in
        List.sort (fun a b -> compare rank.(a) rank.(b)) ids)
      assignment
  in
  (cones, Array.length order)

let create ~threads c =
  if threads < 1 then invalid_arg "Repcut.create: threads >= 1";
  let rt = Runtime.create c in
  let cone_ids, evaluated_nodes = sink_groups c ~threads in
  let cones =
    Array.map
      (fun ids ->
        Array.of_list (List.map (fun id -> Runtime.node_evaluator rt (Circuit.node c id)) ids))
      cone_ids
  in
  let write_commits =
    Array.to_list (Circuit.memories c)
    |> List.mapi (fun mi (m : Circuit.memory) ->
           List.map (fun w -> Runtime.write_committer rt mi w) m.write_ports)
    |> List.concat |> Array.of_list
  in
  let reg_copies =
    Circuit.registers c |> List.map (Runtime.reg_copier rt) |> Array.of_list
  in
  let resets =
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (r : Circuit.register) ->
        match r.reset with
        | Some rst when rst.Circuit.slow_path ->
          Hashtbl.replace groups rst.Circuit.reset_signal
            (Runtime.reset_applier rt r
             :: (try Hashtbl.find groups rst.Circuit.reset_signal with Not_found -> []))
        | Some _ | None -> ())
      (Circuit.registers c);
    Hashtbl.fold
      (fun s appliers acc -> (Runtime.signal_is_set rt s, Array.of_list appliers) :: acc)
      groups []
    |> Array.of_list
  in
  let t =
    {
      rt;
      threads;
      cones;
      cone_node_counts = Array.map Array.length cones;
      evaluated_nodes;
      write_commits;
      reg_copies;
      resets;
      counters = Counters.create ();
      barrier = Barrier.create threads;
      stop = Atomic.make false;
      workers = [];
      destroyed = false;
      coord_sense = true;
    }
  in
  if threads > 1 then begin
    let worker w () =
      let sense = ref true in
      let wait () =
        let s = !sense in
        sense := not s;
        Barrier.wait t.barrier s
      in
      let running = ref true in
      while !running do
        wait ();
        (* cycle start *)
        if Atomic.get t.stop then running := false
        else begin
          let cone = t.cones.(w) in
          for i = 0 to Array.length cone - 1 do
            ignore (cone.(i) ())
          done;
          wait () (* evaluation done; coordinator commits *)
        end
      done
    in
    t.workers <- List.init (threads - 1) (fun i -> Domain.spawn (worker (i + 1)))
  end;
  t

let coordinator_wait t =
  let s = t.coord_sense in
  t.coord_sense <- not s;
  Barrier.wait t.barrier s

let commit t =
  let ctr = t.counters in
  Array.iter (fun w -> ignore (w ())) t.write_commits;
  for i = 0 to Array.length t.reg_copies - 1 do
    if t.reg_copies.(i) () then ctr.Counters.reg_commits <- ctr.Counters.reg_commits + 1
  done;
  Array.iter
    (fun (test, appliers) ->
      ctr.Counters.reset_checks <- ctr.Counters.reset_checks + 1;
      if test () then Array.iter (fun a -> ignore (a ())) appliers)
    t.resets

let step t =
  let ctr = t.counters in
  if t.threads = 1 then begin
    let cone = t.cones.(0) in
    for i = 0 to Array.length cone - 1 do
      ignore (cone.(i) ())
    done
  end
  else begin
    coordinator_wait t;
    (* release workers *)
    let cone = t.cones.(0) in
    for i = 0 to Array.length cone - 1 do
      ignore (cone.(i) ())
    done;
    coordinator_wait t (* all cones evaluated *)
  end;
  ctr.Counters.evals <- ctr.Counters.evals + Array.fold_left ( + ) 0 t.cone_node_counts;
  commit t;
  ctr.Counters.cycles <- ctr.Counters.cycles + 1

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    if t.threads > 1 then begin
      Atomic.set t.stop true;
      coordinator_wait t;
      List.iter Domain.join t.workers;
      t.workers <- []
    end
  end

let replication_factor t =
  if t.evaluated_nodes = 0 then 1.
  else
    float_of_int (Array.fold_left ( + ) 0 t.cone_node_counts)
    /. float_of_int t.evaluated_nodes

let cone_sizes t = Array.copy t.cone_node_counts

let poke t id v = ignore (Runtime.poke t.rt id v)
let peek t id = Runtime.peek t.rt id
let load_mem t mi contents = Runtime.load_mem t.rt mi contents
let counters t = t.counters

let sim t =
  {
    Sim.sim_name = Printf.sprintf "repcut-%dT" t.threads;
    circuit = Runtime.circuit t.rt;
    poke = poke t;
    peek = peek t;
    peek_int = Runtime.peek_int t.rt;
    step = (fun () -> step t);
    load_mem = load_mem t;
    read_mem = (fun mi addr -> Runtime.read_mem t.rt mi addr);
    write_mem = Runtime.write_mem_word t.rt;
    take_dirty_mem = (fun () -> Runtime.drain_mem t.rt);
    write_reg = (fun id v -> Runtime.poke_register t.rt id v);
    force =
      (fun ?mask id v ->
        (* Replicated cones each own a private copy of shared nodes; a
           force would have to pin every replica.  Inputs are shared, so
           they remain forcible. *)
        match (Circuit.node (Runtime.circuit t.rt) id).Circuit.kind with
        | Circuit.Input -> ignore (Runtime.force t.rt ?mask id v)
        | _ -> failwith "repcut: force on non-input nodes is not supported");
    release = (fun id -> ignore (Runtime.release t.rt id));
    invalidate = (fun () -> ());
    counters = (fun () -> t.counters);
  }
