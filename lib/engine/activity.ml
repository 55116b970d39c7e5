module Bits = Gsim_bits.Bits
open Gsim_ir
open Gsim_partition

type activation_strategy = Branch | Branchless | Cost_model

type config = { packed_exam : bool; activation : activation_strategy }

let essent_config = { packed_exam = false; activation = Branchless }
let gsim_config = { packed_exam = true; activation = Cost_model }

let word_bits = 62

type t = {
  rt : Runtime.t;
  counters : Counters.t;
  packed : bool;
  nsuper : int;
  words : int array;                     (* packed active bits *)
  active : bool array;                   (* unpacked active bits *)
  sn_steps : (unit -> bool) array array;
      (* per supernode: fused member evaluate-and-activate closures,
         returning whether the value changed *)
  sn_members : int array array;
      (* member node ids, parallel to [sn_steps] (change-hook support) *)
  sn_hits : int array;  (* evaluation count per supernode (profiling) *)
  (* Registers *)
  reg_reads : int array;          (* read-node id per register table index *)
  reg_copy : (unit -> bool) array;
  reg_read_activate : (unit -> unit) array;  (* activate successors of the read node *)
  pending : bool array;
  mutable pending_stack : int array;
  mutable pending_len : int;
  mutable resets : ((unit -> bool) * int array) array;
      (* (signal test, register indices); applied at end of cycle *)
  reset_apply : (unit -> bool) array;
  (* Memories *)
  mutable write_commits : (int * (unit -> bool)) array;  (* memory index, committer *)
  mutable mem_activate : (unit -> unit) array;   (* per memory: wake read ports *)
  (* Inputs *)
  input_activate : (unit -> unit) array;         (* indexed by node id; no-op otherwise *)
  dirty_inputs : bool array;
  mutable dirty_stack : int array;
  mutable dirty_len : int;
  (* Fault injection: per declared forcible node, (on_force, on_release)
     wake closures — force marks the consumers' active bits, release
     re-activates the node's own supernode / re-latches its register. *)
  force_wakes : (int, (unit -> unit) * (unit -> unit)) Hashtbl.t;
}

(* --- Active-bit primitives ------------------------------------------- *)

let set_super t k =
  if t.packed then begin
    let wi = k / word_bits in
    t.words.(wi) <- t.words.(wi) lor (1 lsl (k mod word_bits))
  end
  else t.active.(k) <- true

(* Build the activation closure for one node given its distinct target
   supernodes (own supernode excluded: members later in the same supernode
   are evaluated in the same sweep). *)
let make_activator t strategy targets =
  let ctr = t.counters in
  let ntargets = Array.length targets in
  if ntargets = 0 then fun _ -> ()
  else begin
    let branchless =
      match strategy with
      | Branch -> false
      | Branchless -> true
      | Cost_model ->
        (* Few targets: unconditional logical updates beat a branch the
           predictor cannot learn.  Many targets: the branch saves work. *)
        if t.packed then
          let words =
            Array.to_list targets |> List.map (fun k -> k / word_bits)
            |> List.sort_uniq compare |> List.length
          in
          words <= 2
        else ntargets <= 2
    in
    if branchless && t.packed then begin
      (* Pre-merge the masks per word. *)
      let tbl = Hashtbl.create 4 in
      Array.iter
        (fun k ->
          let wi = k / word_bits in
          let m = try Hashtbl.find tbl wi with Not_found -> 0 in
          Hashtbl.replace tbl wi (m lor (1 lsl (k mod word_bits))))
        targets;
      let pairs = Hashtbl.fold (fun wi m acc -> (wi, m) :: acc) tbl [] in
      let wis = Array.of_list (List.map fst pairs) in
      let masks = Array.of_list (List.map snd pairs) in
      let words = t.words in
      fun changed ->
        let m = -(Bool.to_int changed) in
        for i = 0 to Array.length wis - 1 do
          words.(wis.(i)) <- words.(wis.(i)) lor (m land masks.(i))
        done;
        if changed then ctr.Counters.activations <- ctr.Counters.activations + ntargets
    end
    else if branchless then begin
      let active = t.active in
      fun changed ->
        for i = 0 to ntargets - 1 do
          active.(targets.(i)) <- active.(targets.(i)) || changed
        done;
        if changed then ctr.Counters.activations <- ctr.Counters.activations + ntargets
    end
    else
      fun changed ->
        if changed then begin
          for i = 0 to ntargets - 1 do
            set_super t targets.(i)
          done;
          ctr.Counters.activations <- ctr.Counters.activations + ntargets
        end
  end

let push_pending t r =
  if not t.pending.(r) then begin
    t.pending.(r) <- true;
    t.pending_stack.(t.pending_len) <- r;
    t.pending_len <- t.pending_len + 1
  end

(* Distinct supernodes of a node list, excluding [exclude]. *)
let target_supers (part : Partition.t) ?(exclude = -1) ids =
  List.filter_map
    (fun id ->
      let k = if id < Array.length part.of_node then part.of_node.(id) else -1 in
      if k >= 0 && k <> exclude then Some k else None)
    ids
  |> List.sort_uniq compare |> Array.of_list

let create ?(config = gsim_config) ?(backend = Eval.default) ?(forcible = []) c part =
  let sel = Eval.select backend c in
  let rt = Runtime.create c in
  let fset = Hashtbl.create (max (2 * List.length forcible) 1) in
  List.iter
    (fun id ->
      match (Circuit.node c id).Circuit.kind with
      | Circuit.Input -> ()
      | _ -> Hashtbl.replace fset id ())
    forcible;
  let is_forcible id = Hashtbl.mem fset id in
  let nsuper = Array.length part.Partition.supernodes in
  let nwords = (nsuper + word_bits - 1) / word_bits in
  let regs = Array.of_list (Circuit.registers c) in
  let nregs = Array.length regs in
  let succs = Circuit.successors c in
  let t =
    {
      rt;
      counters = Counters.create ();
      packed = config.packed_exam;
      nsuper;
      words = Array.make (max nwords 1) 0;
      active = Array.make (max nsuper 1) false;
      sn_steps = Array.make (max nsuper 1) [||];
      sn_members = part.Partition.supernodes;
      sn_hits = Array.make (max nsuper 1) 0;
      reg_reads = Array.map (fun (r : Circuit.register) -> r.read) regs;
      reg_copy =
        Array.map
          (fun (r : Circuit.register) ->
            let f = Runtime.reg_copier rt r in
            if is_forcible r.read then Runtime.guard rt r.read f else f)
          regs;
      reg_read_activate = Array.make (max nregs 1) (fun () -> ());
      pending = Array.make (max nregs 1) false;
      pending_stack = Array.make (max nregs 1) 0;
      pending_len = 0;
      resets = [||];
      reset_apply =
        Array.map
          (fun (r : Circuit.register) ->
            match r.reset with
            | Some rst when rst.Circuit.slow_path ->
              let f = Runtime.reset_applier rt r in
              if is_forcible r.read then Runtime.guard rt r.read f else f
            | Some _ | None -> (fun () -> false))
          regs;
      write_commits = [||];
      mem_activate = [||];
      input_activate = Array.make (Circuit.max_id c) (fun () -> ());
      dirty_inputs = Array.make (Circuit.max_id c) false;
      dirty_stack = Array.make (max (Circuit.max_id c) 1) 0;
      dirty_len = 0;
      force_wakes = Hashtbl.create (max (2 * List.length forcible) 1);
    }
  in
  t.counters.Counters.backend <- Eval.effective_string sel;
  t.counters.Counters.native_cache <- sel.Eval.cache;
  (* Node index -> register table index for Reg_next pending marking. *)
  let reg_index_of_next = Hashtbl.create 64 in
  Array.iteri (fun i (r : Circuit.register) -> Hashtbl.replace reg_index_of_next r.next i) regs;
  (* Per-supernode member arrays: evaluation and activation fused into one
     closure per member keeps the sweep's per-node overhead down. *)
  Array.iteri
    (fun k members ->
      let steps =
        Array.map
          (fun id ->
            let eval =
              Eval.node_evaluator ~sel ~forcible:is_forcible rt (Circuit.node c id)
            in
            let targets = target_supers part ~exclude:k succs.(id) in
            let act = make_activator t config.activation targets in
            let no_targets = Array.length targets = 0 in
            match Hashtbl.find_opt reg_index_of_next id with
            | Some ri ->
              fun () ->
                let changed = eval () in
                if changed then push_pending t ri;
                act changed;
                changed
            | None ->
              if no_targets then eval
              else
                fun () ->
                  let changed = eval () in
                  act changed;
                  changed)
          members
      in
      t.sn_steps.(k) <- steps)
    part.Partition.supernodes;
  (* Register read nodes: on latch change, wake the read node's consumers. *)
  let reg_read_activate =
    Array.map
      (fun (r : Circuit.register) ->
        let targets = target_supers part succs.(r.read) in
        let act = make_activator t Branch targets in
        fun () -> act true)
      regs
  in
  Array.blit reg_read_activate 0 t.reg_read_activate 0 nregs;
  (* Reset groups: one check per distinct reset signal per cycle. *)
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i (r : Circuit.register) ->
      match r.reset with
      | Some rst when rst.Circuit.slow_path ->
        let s = rst.Circuit.reset_signal in
        Hashtbl.replace groups s (i :: (try Hashtbl.find groups s with Not_found -> []))
      | Some _ | None -> ())
    regs;
  let resets =
    Hashtbl.fold
      (fun s ris acc -> (Runtime.signal_is_set rt s, Array.of_list ris) :: acc)
      groups []
    |> Array.of_list
  in
  (* Memory write ports and read-port wakeup. *)
  let mems = Circuit.memories c in
  let write_commits =
    Array.to_list mems
    |> List.mapi (fun mi (m : Circuit.memory) ->
           List.map (fun w -> (mi, Runtime.write_committer rt mi w)) m.write_ports)
    |> List.concat |> Array.of_list
  in
  let mem_activate =
    Array.map
      (fun (m : Circuit.memory) ->
        let targets = target_supers part m.read_port_ids in
        let act = make_activator t Branch targets in
        fun () -> act true)
      mems
  in
  (* Inputs. *)
  List.iter
    (fun (nd : Circuit.node) ->
      let targets = target_supers part succs.(nd.id) in
      let act = make_activator t Branch targets in
      t.input_activate.(nd.id) <- (fun () -> act true))
    (Circuit.inputs c);
  (* Fault-injection wake closures.  A force that changes the stored value
     must mark the consumers' active bits (supernode-aware: same-supernode
     consumers are reached by re-activating that supernode, which
     [target_supers] includes here — no [~exclude]).  A release must make
     the node recompute: re-activate its own supernode, or re-latch its
     register. *)
  let reg_index_of_read = Hashtbl.create (max nregs 1) in
  Array.iteri (fun i (r : Circuit.register) -> Hashtbl.replace reg_index_of_read r.read i) regs;
  Hashtbl.iter
    (fun id () ->
      let nd = Circuit.node c id in
      let targets = target_supers part succs.(id) in
      let act = make_activator t Branch targets in
      let own =
        if id < Array.length part.Partition.of_node then part.Partition.of_node.(id) else -1
      in
      let wake_own () = if own >= 0 then set_super t own else act true in
      (* on_force must also refresh the node's own computation: a masked
         force (or a mask change on an already-forced node) leaves the
         unmasked bits holding whatever the slot had at force time, and
         only a re-evaluation (re-latch for registers) makes them track
         the computed value the way the reference's every-cycle sweep
         does. *)
      let wakes =
        match nd.Circuit.kind with
        | Circuit.Reg_read _ ->
          (match Hashtbl.find_opt reg_index_of_read id with
           | Some ri ->
             ( (fun () ->
                 push_pending t ri;
                 act true),
               fun () -> push_pending t ri )
           | None -> ((fun () -> act true), fun () -> ()))
        | Circuit.Reg_next _ ->
          (match Hashtbl.find_opt reg_index_of_next id with
           | Some ri ->
             ( (fun () ->
                 wake_own ();
                 push_pending t ri;
                 act true),
               fun () ->
                 wake_own ();
                 push_pending t ri )
           | None -> ((fun () -> act true), wake_own))
        | Circuit.Logic | Circuit.Mem_read _ ->
          ( (fun () ->
              wake_own ();
              act true),
            wake_own )
        | Circuit.Input -> assert false
      in
      Hashtbl.replace t.force_wakes id wakes)
    fset;
  t.resets <- resets;
  t.write_commits <- write_commits;
  t.mem_activate <- mem_activate;
  (* Everything starts active; all registers latch on the first cycle. *)
  if t.packed then Array.fill t.words 0 (Array.length t.words) 0;
  for k = 0 to nsuper - 1 do
    set_super t k
  done;
  for i = 0 to nregs - 1 do
    push_pending t i
  done;
  t

let poke t id v =
  if Runtime.poke t.rt id v && not t.dirty_inputs.(id) then begin
    t.dirty_inputs.(id) <- true;
    t.dirty_stack.(t.dirty_len) <- id;
    t.dirty_len <- t.dirty_len + 1
  end

let peek t id = Runtime.peek t.rt id

let mark_dirty_input t id =
  if not t.dirty_inputs.(id) then begin
    t.dirty_inputs.(id) <- true;
    t.dirty_stack.(t.dirty_len) <- id;
    t.dirty_len <- t.dirty_len + 1
  end

let force t ?mask id v =
  let nd = Circuit.node (Runtime.circuit t.rt) id in
  match nd.Circuit.kind with
  | Circuit.Input -> if Runtime.force t.rt ?mask id v then mark_dirty_input t id
  | _ -> (
    match Hashtbl.find_opt t.force_wakes id with
    | None ->
      invalid_arg
        (Printf.sprintf "Activity.force: node %S was not declared forcible"
           nd.Circuit.name)
    | Some (on_force, _) ->
      (* Unconditional: even when the slot value is unchanged, the MASK
         may have changed, and the newly unmasked bits must start
         tracking the computed value (re-eval / re-latch under the
         guard), as the reference's every-cycle sweep does. *)
      ignore (Runtime.force t.rt ?mask id v : bool);
      on_force ())

let release t id =
  let nd = Circuit.node (Runtime.circuit t.rt) id in
  if Runtime.release t.rt id then
    match nd.Circuit.kind with
    | Circuit.Input -> ()  (* an input keeps its value until re-poked *)
    | _ -> (
      match Hashtbl.find_opt t.force_wakes id with
      | Some (_, on_release) -> on_release ()
      | None -> ())

let eval_super t k =
  let steps = Array.unsafe_get t.sn_steps k in
  Array.unsafe_set t.sn_hits k (Array.unsafe_get t.sn_hits k + 1);
  let ctr = t.counters in
  let n = Array.length steps in
  for i = 0 to n - 1 do
    if (Array.unsafe_get steps i) () then
      ctr.Counters.changed <- ctr.Counters.changed + 1
  done;
  ctr.Counters.evals <- ctr.Counters.evals + n

let sweep_packed t =
  let ctr = t.counters in
  let words = t.words in
  let nwords = Array.length words in
  let rec pass () =
    let leftover = ref false in
    for wi = 0 to nwords - 1 do
      (* One condition examines a whole word of active bits (fast path). *)
      ctr.Counters.exams <- ctr.Counters.exams + 1;
      while words.(wi) <> 0 do
        let w = words.(wi) in
        (* Lowest set bit. *)
        let bit = w land -w in
        let b =
          let rec log2 x acc = if x = 1 then acc else log2 (x lsr 1) (acc + 1) in
          log2 bit 0
        in
        ctr.Counters.exams <- ctr.Counters.exams + 1;
        words.(wi) <- w land lnot bit;
        eval_super t ((wi * word_bits) + b)
      done
    done;
    (* A backward activation (possible only with a non-schedulable
       partition) leaves bits set; re-sweep until stable. *)
    for wi = 0 to nwords - 1 do
      if words.(wi) <> 0 then leftover := true
    done;
    if !leftover then pass ()
  in
  pass ()

let sweep_unpacked t =
  let ctr = t.counters in
  let active = t.active in
  let rec pass () =
    let leftover = ref false in
    for k = 0 to t.nsuper - 1 do
      ctr.Counters.exams <- ctr.Counters.exams + 1;
      if active.(k) then begin
        active.(k) <- false;
        eval_super t k
      end
    done;
    for k = 0 to t.nsuper - 1 do
      if active.(k) then leftover := true
    done;
    if !leftover then pass ()
  in
  pass ()

let step t =
  let ctr = t.counters in
  (* Wake consumers of inputs that changed since the last cycle. *)
  for i = 0 to t.dirty_len - 1 do
    let id = t.dirty_stack.(i) in
    t.dirty_inputs.(id) <- false;
    t.input_activate.(id) ()
  done;
  t.dirty_len <- 0;
  if t.packed then sweep_packed t else sweep_unpacked t;
  (* Memory writes commit before registers latch (write data may come from
     register outputs of this cycle). *)
  for i = 0 to Array.length t.write_commits - 1 do
    let mi, commit = t.write_commits.(i) in
    if commit () then t.mem_activate.(mi) ()
  done;
  (* Latch pending registers. *)
  let npending = t.pending_len in
  t.pending_len <- 0;
  for i = 0 to npending - 1 do
    let ri = t.pending_stack.(i) in
    t.pending.(ri) <- false;
    if t.reg_copy.(ri) () then begin
      ctr.Counters.reg_commits <- ctr.Counters.reg_commits + 1;
      t.reg_read_activate.(ri) ()
    end
  done;
  (* Slow-path resets: one check per reset signal. *)
  Array.iter
    (fun (test, ris) ->
      ctr.Counters.reset_checks <- ctr.Counters.reset_checks + 1;
      if test () then
        Array.iter
          (fun ri ->
            if t.reset_apply.(ri) () then begin
              ctr.Counters.reg_commits <- ctr.Counters.reg_commits + 1;
              t.reg_read_activate.(ri) ()
            end;
            (* The register must latch again once reset deasserts. *)
            push_pending t ri)
          ris)
    t.resets;
  ctr.Counters.cycles <- ctr.Counters.cycles + 1

let load_mem t mi contents = Runtime.load_mem t.rt mi contents

let counters t = t.counters

let runtime t = t.rt

let supernode_count t = t.nsuper

let supernode_hits t = Array.sub t.sn_hits 0 t.nsuper

(* Checkpoint restore: every value is suspect, so re-evaluate the world and
   latch every register on the next cycle, exactly like cycle zero. *)
let invalidate_all t =
  for k = 0 to t.nsuper - 1 do
    set_super t k
  done;
  for ri = 0 to Array.length t.reg_copy - 1 do
    push_pending t ri
  done

(* Change-event hook: wrap every value-mutating closure (member evaluation,
   register latch, slow-path reset) so that a changed value reports the
   node id.  Pokes mutate input slots outside these closures; observers
   intercept them at the Sim.t layer. *)
let set_change_hook t hook =
  Array.iteri
    (fun k steps ->
      let members = t.sn_members.(k) in
      t.sn_steps.(k) <-
        Array.mapi
          (fun i step ->
            let id = members.(i) in
            fun () ->
              let changed = step () in
              if changed then hook id;
              changed)
          steps)
    t.sn_steps;
  Array.iteri
    (fun ri copy ->
      let id = t.reg_reads.(ri) in
      t.reg_copy.(ri) <-
        (fun () ->
          let changed = copy () in
          if changed then hook id;
          changed))
    t.reg_copy;
  Array.iteri
    (fun ri apply ->
      let id = t.reg_reads.(ri) in
      t.reset_apply.(ri) <-
        (fun () ->
          let changed = apply () in
          if changed then hook id;
          changed))
    t.reset_apply

let sim ?(name = "activity") t =
  {
    Sim.sim_name = name;
    circuit = Runtime.circuit t.rt;
    poke = poke t;
    peek = peek t;
    step = (fun () -> step t);
    load_mem = load_mem t;
    read_mem = (fun mi addr -> Runtime.read_mem t.rt mi addr);
    write_reg = (fun id v -> Runtime.poke_register t.rt id v);
    force = (fun ?mask id v -> force t ?mask id v);
    release = (fun id -> release t id);
    invalidate = (fun () -> invalidate_all t);
    counters = (fun () -> t.counters);
  }
