module Bits = Gsim_bits.Bits
open Gsim_ir

(* Sense-reversing centralized barrier.  Latecomers spin briefly and then
   block on a condition variable: pure spinning is catastrophic when the
   host has fewer cores than domains (each wait would burn a scheduling
   quantum). *)
module Barrier = struct
  type t = {
    count : int Atomic.t;
    sense : bool Atomic.t;
    total : int;
    lock : Mutex.t;
    cond : Condition.t;
  }

  let create total =
    {
      count = Atomic.make 0;
      sense = Atomic.make false;
      total;
      lock = Mutex.create ();
      cond = Condition.create ();
    }

  let spin_limit = 2000

  (* Each participant keeps its own sense flag, flipped per phase. *)
  let wait b local_sense =
    if Atomic.fetch_and_add b.count 1 = b.total - 1 then begin
      Atomic.set b.count 0;
      Mutex.lock b.lock;
      Atomic.set b.sense local_sense;
      Condition.broadcast b.cond;
      Mutex.unlock b.lock
    end
    else begin
      let spins = ref 0 in
      while Atomic.get b.sense <> local_sense && !spins < spin_limit do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get b.sense <> local_sense then begin
        Mutex.lock b.lock;
        while Atomic.get b.sense <> local_sense do
          Condition.wait b.cond b.lock
        done;
        Mutex.unlock b.lock
      end
    end
end

type t = {
  rt : Runtime.t;
  threads : int;
  (* slices.(level).(worker) = realized plan steps (native runs and
     closure runs).  Each step returns its changed count; only the
     single-threaded coordinator reads it — workers never touch the shared
     counters. *)
  slices : (unit -> int) array array array;
  nlevels : int;
  write_commits : (unit -> bool) array;
  reg_commit : unit -> int;
      (* latches every register; runs in the coordinator's sequential
         commit phase *)
  resets : ((unit -> bool) * (unit -> bool) array) array;
  forcible : (int, unit) Hashtbl.t;
      (* non-input node ids declared forcible at build time *)
  counters : Counters.t;
  total_evals : int;
  barrier : Barrier.t;
  stop : bool Atomic.t;
  mutable workers : unit Domain.t list;
  mutable destroyed : bool;
  mutable coord_sense : bool;
}

(* Combinational level of each evaluated node: 1 + max level of evaluated
   dependencies. *)
let levels_of c =
  let order = Circuit.eval_order c in
  let level = Array.make (Circuit.max_id c) (-1) in
  Array.iter
    (fun id ->
      let deps = Circuit.dependencies c id in
      let l =
        List.fold_left (fun acc d -> max acc (if level.(d) >= 0 then level.(d) else -1)) (-1) deps
      in
      level.(id) <- l + 1)
    order;
  let nlevels = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let buckets = Array.make (max nlevels 1) [] in
  (* Reverse iteration keeps each bucket in topological order. *)
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    buckets.(level.(id)) <- id :: buckets.(level.(id))
  done;
  buckets

let split_slice arr threads w =
  let n = Array.length arr in
  let base = n / threads and extra = n mod threads in
  let start = (w * base) + min w extra in
  let len = base + if w < extra then 1 else 0 in
  Array.sub arr start len

let create ?(backend = Eval.default) ?digest ?(forcible = []) ~threads c =
  if threads < 1 then invalid_arg "Parallel.create: threads >= 1";
  let buckets = levels_of c in
  let total_evals = Array.fold_left (fun acc b -> acc + List.length b) 0 buckets in
  let registers = Circuit.registers c in
  let fset = Hashtbl.create (max (2 * List.length forcible) 1) in
  List.iter
    (fun id ->
      match (Circuit.node c id).Circuit.kind with
      | Circuit.Input -> ()
      | _ -> Hashtbl.replace fset id ())
    forcible;
  let is_forcible id = Hashtbl.mem fset id in
  let sel = Eval.select ?digest backend c in
  let rt = Runtime.create c in
  (* Split each level's ids across workers first, then plan each worker's
     share: same-level nodes never consume each other, and cross-level
     values are committed before the level barrier, so every operand a
     step reads from the arena is stable while it runs.  Native functions
     only write their own node's slot and never allocate, so they are
     safe from any domain. *)
  let slices =
    Array.map
      (fun bucket ->
        let ids = Array.of_list bucket in
        Array.init threads (fun w ->
            Eval.realize rt
              (Eval.plan ~forcible:is_forcible sel (split_slice ids threads w))))
      buckets
  in
  let reg_commit = Runtime.reg_committer rt ~forcible:is_forcible registers in
  let counters = Counters.create () in
  counters.Counters.backend <- Eval.effective_string sel;
  counters.Counters.native_cache <- sel.Eval.cache;
  let t =
    {
      rt;
      threads;
      slices;
      nlevels = Array.length buckets;
      write_commits = Runtime.write_committers rt;
      reg_commit;
      resets = Runtime.reset_groups rt ~forcible:is_forcible;
      forcible = fset;
      counters;
      total_evals;
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
      let next_sense () =
        let s = !sense in
        sense := not s;
        Barrier.wait t.barrier s
      in
      let running = ref true in
      while !running do
        next_sense ();
        (* cycle start *)
        if Atomic.get t.stop then running := false
        else begin
          Array.iter
            (fun level ->
              let slice = level.(w) in
              for i = 0 to Array.length slice - 1 do
                ignore (slice.(i) ())
              done;
              next_sense ())
            t.slices;
          next_sense () (* wait for the coordinator's commit *)
        end
      done
    in
    t.workers <- List.init (threads - 1) (fun i -> Domain.spawn (worker (i + 1)))
  end;
  t

(* The coordinator participates as worker 0 and performs the sequential
   commit between the last barrier of the sweep and the cycle-start
   barrier of the next cycle. *)
let coordinator_wait t =
  let s = t.coord_sense in
  t.coord_sense <- not s;
  Barrier.wait t.barrier s

let step t =
  let ctr = t.counters in
  if t.threads = 1 then
    Array.iter
      (fun level ->
        let slice = level.(0) in
        for i = 0 to Array.length slice - 1 do
          ctr.Counters.changed <- ctr.Counters.changed + slice.(i) ()
        done)
      t.slices
  else begin
    let next_sense () = coordinator_wait t in
    next_sense ();
    (* release workers into the cycle *)
    Array.iter
      (fun level ->
        let slice = level.(0) in
        for i = 0 to Array.length slice - 1 do
          ignore (slice.(i) ())
        done;
        next_sense ())
      t.slices
  end;
  ctr.Counters.evals <- ctr.Counters.evals + t.total_evals;
  Array.iter (fun w -> ignore (w ())) t.write_commits;
  ctr.Counters.reg_commits <- ctr.Counters.reg_commits + t.reg_commit ();
  Array.iter
    (fun (test, appliers) ->
      ctr.Counters.reset_checks <- ctr.Counters.reset_checks + 1;
      if test () then Array.iter (fun a -> ignore (a ())) appliers)
    t.resets;
  ctr.Counters.cycles <- ctr.Counters.cycles + 1;
  if t.threads > 1 then
    (* Let workers loop back to the cycle-start barrier. *)
    coordinator_wait t

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

let poke t id v = ignore (Runtime.poke t.rt id v)
let peek t id = Runtime.peek t.rt id

(* No wakeup needed: every node re-evaluates each cycle.  Forces happen
   between steps, so no worker is concurrently reading the slot. *)
let force t ?mask id v =
  let nd = Circuit.node (Runtime.circuit t.rt) id in
  (match nd.Circuit.kind with
   | Circuit.Input -> ()
   | _ ->
     if not (Hashtbl.mem t.forcible id) then
       invalid_arg
         (Printf.sprintf "Parallel.force: node %S was not declared forcible"
            nd.Circuit.name));
  ignore (Runtime.force t.rt ?mask id v)

let release t id = ignore (Runtime.release t.rt id)
let load_mem t mi contents = Runtime.load_mem t.rt mi contents
let counters t = t.counters
let level_count t = t.nlevels

let runtime t = t.rt

let sim t =
  {
    Sim.sim_name = Printf.sprintf "full-cycle-%dT" t.threads;
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
    force = (fun ?mask id v -> force t ?mask id v);
    release = (fun id -> release t id);
    invalidate = (fun () -> ());
    counters = (fun () -> t.counters);
  }
