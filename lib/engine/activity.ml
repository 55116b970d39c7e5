module Bits = Gsim_bits.Bits
open Gsim_ir
open Gsim_partition

type activation_strategy = Branch | Branchless | Cost_model

type config = { packed_exam : bool; activation : activation_strategy }

let essent_config = { packed_exam = false; activation = Branchless }
let gsim_config = { packed_exam = true; activation = Cost_model }

let word_bits = 62

(* The flat tables of the native sweep and latch ([gsim_activity_sweep]
   and [gsim_activity_latch] in native_stubs.c), built once by [create]
   when the native backend was selected.  The stubs read the fields by
   position: keep the order in step with their SW_* indices. *)
type sweep = {
  sw_words : int array;      (* [t.words] *)
  sw_active : bool array;    (* [t.active] *)
  sw_packed : bool;
  sw_sn : int array;  (* per supernode: first member row, member count *)
  sw_mem : int array;
      (* per member row, five words: tagged fn, or -(j + 1) for narrow
         memory read j, or 0 for a member OCaml evaluates; pending
         register (-1: none); activation range [lo, hi) in [sw_act];
         targets * 2 + branch-free flag *)
  sw_act : int array;
      (* packed: pre-merged (word index, mask) pairs; unpacked: target
         supernodes *)
  sw_hits : int array;       (* [t.sn_hits] *)
  sw_pending : bool array;   (* [t.pending] *)
  sw_pstack : int array;     (* [t.pending_stack] *)
  sw_state : int array;      (* see the [st_*] indices *)
  sw_arena : int array;
  sw_wflat : Bytes.t;
  sw_wide : Bits.t array;
  sw_reads : int array;
      (* per narrow memory read, five words: memory index, address node,
         enable node (-1: none), depth, the read node *)
  sw_mems : int array array;  (* the runtime's narrow memory arrays *)
  sw_regs : int array;
      (* per register, eight words: read node (-1: forcible, latched by
         OCaml), next node, activation range [lo, hi) in [sw_act],
         targets, the read and next nodes' [sw_wflat] offsets (read
         offset -1: narrow), width *)
  sw_row_super : int array;
      (* per member row: its supernode, whose step closures run the row
         when the stub yields it (not read by C) *)
}

(* [sw_state] slots: resume position (-1: start a sweep), the yielded
   supernode's remaining rows, the pending stack length (in and out),
   then the counter deltas of the last call. *)
let st_pos = 0
let st_plen = 3
let st_exams = 4
let st_evals = 5
let st_changed = 6
let st_acts = 7
let st_commits = 8

(* One whole sweep, or up to the next member OCaml must evaluate:
   returns that member's row, or -1 when no active bit is left.
   [@@noalloc] keeps the arenas in place while the generated code
   runs. *)
external native_sweep : sweep -> int = "gsim_activity_sweep" [@@noalloc]

(* Latch the pending registers, or up to the next one OCaml must latch:
   returns that register, or -1 once the pending stack is drained. *)
external native_latch : sweep -> int = "gsim_activity_latch" [@@noalloc]

type t = {
  rt : Runtime.t;
  counters : Counters.t;
  packed : bool;
  nsuper : int;
  words : int array;                     (* packed active bits *)
  active : bool array;                   (* unpacked active bits *)
  sn_steps : (unit -> bool) array array;
      (* per supernode: fused member evaluate-and-activate closures,
         returning whether the value changed (see [super_steps]) *)
  sn_built : bool array;
  mutable build_steps : int -> (unit -> bool) array;
  sn_members : int array array;
      (* member node ids, parallel to [sn_steps] (change-hook support) *)
  sn_hits : int array;  (* evaluation count per supernode (profiling) *)
  (* Registers *)
  reg_reads : int array;          (* read-node id per register table index *)
  reg_copy : (unit -> bool) array;
  reg_read_activate : (unit -> unit) array;  (* activate successors of the read node *)
  pending : bool array;
  pending_stack : int array;
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
  mutable sweep : sweep option;
      (* the native sweep; [None] under closures or once a change hook
         is installed *)
}

(* --- Active-bit primitives ------------------------------------------- *)

let set_super t k =
  if t.packed then begin
    let wi = k / word_bits in
    t.words.(wi) <- t.words.(wi) lor (1 lsl (k mod word_bits))
  end
  else t.active.(k) <- true

(* Target supernodes (ascending, as [Partition.target_supers] returns
   them) merged per active word: (word index, mask) pairs. *)
let merged_masks targets =
  Array.fold_right
    (fun k acc ->
      let wi = k / word_bits and bit = 1 lsl (k mod word_bits) in
      match acc with
      | (w, m) :: rest when w = wi -> (w, m lor bit) :: rest
      | _ -> (wi, bit) :: acc)
    targets []

(* Whether a node with these activation targets sets them branch-free. *)
let branch_free t strategy targets =
  match strategy with
  | Branch -> false
  | Branchless -> true
  | Cost_model ->
    (* Few targets: unconditional logical updates beat a branch the
       predictor cannot learn.  Many targets: the branch saves work. *)
    if t.packed then List.length (merged_masks targets) <= 2
    else Array.length targets <= 2

(* Build the activation closure for one node given its distinct target
   supernodes (own supernode excluded: members later in the same supernode
   are evaluated in the same sweep). *)
let make_activator t strategy targets =
  let ctr = t.counters in
  let ntargets = Array.length targets in
  if ntargets = 0 then fun _ -> ()
  else begin
    let branchless = branch_free t strategy targets in
    if branchless && t.packed then begin
      let pairs = merged_masks targets in
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

(* The native sweep's tables: every supernode's members get one row each,
   in member order.  A member runs in C through its generated function,
   or as a narrow memory read (narrow data, address and enable); a
   forcible member, or one that is neither, gets fn word 0: the stub
   yields it to its OCaml step closure.  Registers whose read node is not
   forcible, narrow or wide, latch in C too; the others yield to
   [reg_copy]. *)
let sweep_tables t (u : Native.unit_t) ~config ~is_forcible part member_targets
    reg_index_of_next regs reg_targets =
  let rt = t.rt in
  let c = Runtime.circuit rt in
  let narrow id = not (Runtime.is_wide rt id) in
  let reads = ref [] and nreads = ref 0 in
  let evaluator id =
    if is_forcible id then 0
    else if Native.has_fn u id then u.Native.fns.(id)
    else
      match (Circuit.node c id).Circuit.kind with
      | Circuit.Mem_read pi ->
        let p = Circuit.read_port c pi in
        let en = Option.value p.Circuit.r_en ~default:(-1) in
        if narrow id && narrow p.Circuit.r_addr && (en < 0 || narrow en) then begin
          let depth = (Circuit.memory c p.Circuit.r_mem).Circuit.depth in
          reads := List.rev_append [ p.Circuit.r_mem; p.Circuit.r_addr; en; depth; id ] !reads;
          incr nreads;
          - !nreads
        end
        else 0
      | _ -> 0
  in
  let sn = Array.make (2 * t.nsuper) 0 in
  let nrows = Array.fold_left (fun n members -> n + Array.length members) 0 member_targets in
  let mem = Array.make (5 * nrows) 0 and row = ref 0 in
  let act = ref [] and nact = ref 0 in
  (* Appends a node's activation targets to [act]; returns their range. *)
  let add_targets targets =
    let words =
      if t.packed then List.concat_map (fun (wi, m) -> [ wi; m ]) (merged_masks targets)
      else Array.to_list targets
    in
    let lo = !nact in
    act := List.rev_append words !act;
    nact := !nact + List.length words;
    (lo, !nact)
  in
  Array.iteri
    (fun k members ->
      sn.(2 * k) <- !row;
      sn.((2 * k) + 1) <- Array.length members;
      Array.iteri
        (fun i id ->
          let targets = member_targets.(k).(i) in
          let lo, hi = add_targets targets in
          let pending = Option.value (Hashtbl.find_opt reg_index_of_next id) ~default:(-1) in
          let info =
            (Array.length targets * 2) + Bool.to_int (branch_free t config.activation targets)
          in
          Array.blit [| evaluator id; pending; lo; hi; info |] 0 mem (5 * !row) 5;
          incr row)
        members)
    part.Partition.supernodes;
  let reg_rows =
    Array.mapi
      (fun ri (r : Circuit.register) ->
        let targets = reg_targets.(ri) in
        let lo, hi = add_targets targets in
        let read = if is_forcible r.read then -1 else r.read in
        [| read; r.next; lo; hi; Array.length targets; Runtime.wide_offset rt r.read;
           Runtime.wide_offset rt r.next; (Circuit.node c r.read).Circuit.width |])
      regs
  in
  {
    sw_words = t.words;
    sw_active = t.active;
    sw_packed = t.packed;
    sw_sn = sn;
    sw_mem = mem;
    sw_act = Array.of_list (List.rev !act);
    sw_hits = t.sn_hits;
    sw_pending = t.pending;
    sw_pstack = t.pending_stack;
    sw_state = Array.make 9 0;
    sw_arena = Runtime.narrow_values rt;
    sw_wflat = Runtime.wide_flat rt;
    sw_wide = Runtime.wide_values rt;
    sw_reads = Array.of_list (List.rev !reads);
    sw_mems = Runtime.narrow_mems rt;
    sw_regs = Array.concat (Array.to_list reg_rows);
    sw_row_super =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun k members -> Array.map (fun _ -> k) members)
              part.Partition.supernodes));
  }

let create ?(config = gsim_config) ?(backend = Eval.default) ?digest ?(forcible = []) c part =
  let sel = Eval.select ?digest backend c in
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
      sn_built = Array.make (max nsuper 1) false;
      build_steps = (fun _ -> [||]);
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
      sweep = None;
    }
  in
  t.counters.Counters.backend <- Eval.effective_string sel;
  t.counters.Counters.native_cache <- sel.Eval.cache;
  (* Node index -> register table index for Reg_next pending marking. *)
  let reg_index_of_next = Hashtbl.create 64 in
  Array.iteri (fun i (r : Circuit.register) -> Hashtbl.replace reg_index_of_next r.next i) regs;
  (* Each member's distinct target supernodes. *)
  let member_targets =
    Array.mapi
      (fun k members ->
        Array.map (fun id -> Partition.target_supers part ~exclude:k succs.(id)) members)
      part.Partition.supernodes
  in
  (* Per-supernode member arrays: evaluation and activation fused into one
     closure per member keeps the sweep's per-node overhead down. *)
  let build_steps k =
    Array.mapi
      (fun i id ->
        let eval = Eval.node_evaluator ~sel ~forcible:is_forcible rt (Circuit.node c id) in
        let targets = member_targets.(k).(i) in
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
      part.Partition.supernodes.(k)
  in
  (* The OCaml sweep needs every supernode's steps; the native one keeps
     the builder (and the tables it reads) for its first yields only. *)
  if sel.Eval.native = None then
    for k = 0 to nsuper - 1 do
      t.sn_steps.(k) <- build_steps k;
      t.sn_built.(k) <- true
    done
  else t.build_steps <- build_steps;
  (* Register read nodes: on latch change, wake the read node's consumers. *)
  let reg_targets =
    Array.map (fun (r : Circuit.register) -> Partition.target_supers part succs.(r.read)) regs
  in
  let reg_read_activate =
    Array.map
      (fun targets ->
        let act = make_activator t Branch targets in
        fun () -> act true)
      reg_targets
  in
  Array.blit reg_read_activate 0 t.reg_read_activate 0 nregs;
  Option.iter
    (fun u ->
      t.sweep <-
        Some
          (sweep_tables t u ~config ~is_forcible part member_targets reg_index_of_next regs
             reg_targets))
    sel.Eval.native;
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
        let targets = Partition.target_supers part m.read_port_ids in
        let act = make_activator t Branch targets in
        fun () -> act true)
      mems
  in
  (* Inputs. *)
  List.iter
    (fun (nd : Circuit.node) ->
      let targets = Partition.target_supers part succs.(nd.id) in
      let act = make_activator t Branch targets in
      t.input_activate.(nd.id) <- (fun () -> act true))
    (Circuit.inputs c);
  (* Fault-injection wake closures.  A force that changes the stored value
     must mark the consumers' active bits (supernode-aware: same-supernode
     consumers are reached by re-activating that supernode, which
     [Partition.target_supers] includes here — no [~exclude]).  A release
     must make the node recompute: re-activate its own supernode, or
     re-latch its register. *)
  let reg_index_of_read = Hashtbl.create (max nregs 1) in
  Array.iteri (fun i (r : Circuit.register) -> Hashtbl.replace reg_index_of_read r.read i) regs;
  Hashtbl.iter
    (fun id () ->
      let nd = Circuit.node c id in
      let targets = Partition.target_supers part succs.(id) in
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

(* Index of a one-bit word [1 lsl b], b < 62, in constant time: the top
   six bits of [bit * debruijn] (63-bit wrap-around product) differ for
   every b. *)
let debruijn = 0x3f6eaf2cd271461

let debruijn_index =
  let tbl = Array.make 64 (-1) in
  for b = 0 to word_bits - 1 do
    let i = ((1 lsl b) * debruijn) lsr 57 in
    assert (tbl.(i) < 0);
    tbl.(i) <- b
  done;
  tbl

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
        let b = Array.unsafe_get debruijn_index ((bit * debruijn) lsr 57) in
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

(* A supernode's step closures.  [create] builds them all for the OCaml
   sweep; under the native sweep a supernode's are built when the stub
   first yields one of its members, or by [set_change_hook]. *)
let super_steps t k =
  if not t.sn_built.(k) then begin
    t.sn_steps.(k) <- t.build_steps k;
    t.sn_built.(k) <- true
  end;
  t.sn_steps.(k)

(* The native sweep, yielding to OCaml for each member that must run
   there and then resuming right after it.  A plain loop: the steady
   state allocates nothing. *)
let sweep_native t sw =
  let ctr = t.counters in
  let st = sw.sw_state in
  st.(st_pos) <- -1;
  let row = ref 0 in
  while !row >= 0 do
    st.(st_plen) <- t.pending_len;
    row := native_sweep sw;
    t.pending_len <- st.(st_plen);
    ctr.Counters.exams <- ctr.Counters.exams + st.(st_exams);
    ctr.Counters.evals <- ctr.Counters.evals + st.(st_evals);
    ctr.Counters.changed <- ctr.Counters.changed + st.(st_changed);
    ctr.Counters.activations <- ctr.Counters.activations + st.(st_acts);
    if !row >= 0 then begin
      let k = sw.sw_row_super.(!row) in
      let step = (super_steps t k).(!row - sw.sw_sn.(2 * k)) in
      if step () then ctr.Counters.changed <- ctr.Counters.changed + 1
    end
  done

let latch t ri =
  if t.reg_copy.(ri) () then begin
    t.counters.Counters.reg_commits <- t.counters.Counters.reg_commits + 1;
    t.reg_read_activate.(ri) ()
  end

(* The native latch, yielding to [latch] for each forcible register. *)
let latch_native t sw =
  let ctr = t.counters in
  let st = sw.sw_state in
  st.(st_pos) <- 0;
  st.(st_plen) <- t.pending_len;
  let ri = ref 0 in
  while !ri >= 0 do
    ri := native_latch sw;
    ctr.Counters.reg_commits <- ctr.Counters.reg_commits + st.(st_commits);
    ctr.Counters.activations <- ctr.Counters.activations + st.(st_acts);
    if !ri >= 0 then latch t !ri
  done;
  t.pending_len <- 0

(* One slow-path reset group: when its signal is set, apply each
   register's reset value and keep the register pending. *)
let apply_resets t (test, ris) =
  let ctr = t.counters in
  ctr.Counters.reset_checks <- ctr.Counters.reset_checks + 1;
  if test () then
    for i = 0 to Array.length ris - 1 do
      let ri = ris.(i) in
      if t.reset_apply.(ri) () then begin
        ctr.Counters.reg_commits <- ctr.Counters.reg_commits + 1;
        t.reg_read_activate.(ri) ()
      end;
      (* The register must latch again once reset deasserts. *)
      push_pending t ri
    done

let step t =
  let ctr = t.counters in
  (* Wake consumers of inputs that changed since the last cycle. *)
  for i = 0 to t.dirty_len - 1 do
    let id = t.dirty_stack.(i) in
    t.dirty_inputs.(id) <- false;
    t.input_activate.(id) ()
  done;
  t.dirty_len <- 0;
  (match t.sweep with
   | Some sw -> sweep_native t sw
   | None -> if t.packed then sweep_packed t else sweep_unpacked t);
  (* Memory writes commit before registers latch (write data may come from
     register outputs of this cycle). *)
  for i = 0 to Array.length t.write_commits - 1 do
    let mi, commit = t.write_commits.(i) in
    if commit () then t.mem_activate.(mi) ()
  done;
  (* Latch pending registers. *)
  (match t.sweep with
   | Some sw -> latch_native t sw
   | None ->
     let npending = t.pending_len in
     t.pending_len <- 0;
     for i = 0 to npending - 1 do
       let ri = t.pending_stack.(i) in
       t.pending.(ri) <- false;
       latch t ri
     done);
  (* Slow-path resets: one check per reset signal. *)
  for i = 0 to Array.length t.resets - 1 do
    apply_resets t t.resets.(i)
  done;
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
  (* Hooked steps are OCaml closures: the OCaml sweep runs from now on. *)
  t.sweep <- None;
  for k = 0 to t.nsuper - 1 do
    ignore (super_steps t k)
  done;
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
    peek_int = Runtime.peek_int t.rt;
    step = (fun () -> step t);
    load_mem = load_mem t;
    read_mem = (fun mi addr -> Runtime.read_mem t.rt mi addr);
    write_mem = Runtime.write_mem_word t.rt;
    take_dirty_mem = (fun () -> Runtime.drain_mem t.rt);
    write_reg = (fun id v -> Runtime.poke_register t.rt id v);
    force = (fun ?mask id v -> force t ?mask id v);
    release = (fun id -> release t id);
    invalidate = (fun () -> invalidate_all t);
    counters = (fun () -> t.counters);
  }
