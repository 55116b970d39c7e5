module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Runtime = Gsim_engine.Runtime
module Checkpoint = Gsim_engine.Checkpoint
module Gsim = Gsim_core.Gsim

type config = {
  checkpoint_every : int option;
  checkpoint_dir : string option;
  ring : int;
  keyframe_every : int;
  shadow_stride : int option;
  shadow_window : int option;
  watchdog_seconds : float option;
  incident_dir : string option;
}

let default =
  {
    checkpoint_every = None;
    checkpoint_dir = None;
    ring = 3;
    keyframe_every = 16;
    shadow_stride = None;
    shadow_window = None;
    watchdog_seconds = None;
    incident_dir = None;
  }

type outcome = {
  final_cycle : int;
  ran : int;
  halted : bool;
  incidents : Incident.t list;
  checkpoints_written : int;
  keyframes_written : int;
  deltas_written : int;
  windows_verified : int;
  degraded : bool;
}

type t = {
  circuit : Circuit.t;
  cfg : config;
  keep : int list;
  primary : Gsim.compiled;
  primary_name : string;
  mutable fallback : Gsim.compiled option;
  mutable on_fallback : bool;
  store : Store.t option;
  mutable abs_cycle : int;
  mutable verified : Checkpoint.t option;
  mutable injections : (int * (Sim.t -> unit)) list;
  mutable incidents : Incident.t list;  (* newest first *)
  (* Delta-chain state: the materialized architectural state of the
     newest on-disk generation plus the CRC32 of that generation's file
     bytes — the base link of the next delta.  [None] restarts the chain
     with a keyframe (session start, post-resume, post-rollback). *)
  mutable last_persisted : (Checkpoint.t * int) option;
  mutable deltas_since_key : int;
  (* Dirty-word accumulators, keyed by memory {e name} so they cross
     engine boundaries (the primary and the fallback are separate
     elaborations whose memory indices need not agree).  [persist_dirty]
     holds words written since [last_persisted], [shadow_dirty] since
     the shadow compare base (the verified anchor, or the sampled
     window's start).  Both are fed from the active engine's write
     barrier by [drain_dirty]. *)
  persist_dirty : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  shadow_dirty : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  (* Whether the fallback engine's live state equals the verified
     anchor — when it does, a full-stride shadow window replays with no
     restore round-trip. *)
  mutable shadow_synced : bool;
  (* Scalar compare plan for the in-place fast path: (primary node id,
     fallback node id) for every input and kept register, matched by
     name once. *)
  mutable scalar_pairs : (int * int) array option;
}

(* The engine of last resort: the simplest compiled configuration —
   full-cycle evaluation, closure backend — the one every other engine is
   differentially tested against. *)
let fallback_config =
  { (Gsim.verilator ()) with Gsim.config_name = "reference-fallback"; backend = `Closures }

let create ?(forcible = []) cfg sim_config circuit =
  (* Both the primary and the fallback keep every register alive so their
     architectural-state captures describe the same state set at any
     optimization level — the precondition of [Checkpoint.equal]-based
     verification (same trick as the fault campaign's). *)
  let keep =
    List.map (fun (r : Circuit.register) -> r.Circuit.read) (Circuit.registers circuit)
  in
  let primary = Gsim.instantiate ~forcible ~keep sim_config circuit in
  let store = Option.map (fun d -> Store.create ~ring:cfg.ring d) cfg.checkpoint_dir in
  {
    circuit;
    cfg;
    keep;
    primary;
    primary_name = sim_config.Gsim.config_name;
    fallback = None;
    on_fallback = false;
    store;
    abs_cycle = 0;
    verified = None;
    injections = [];
    incidents = [];
    last_persisted = None;
    deltas_since_key = 0;
    persist_dirty = Hashtbl.create 8;
    shadow_dirty = Hashtbl.create 8;
    shadow_synced = false;
    scalar_pairs = None;
  }

let fallback t =
  match t.fallback with
  | Some f -> f
  | None ->
    let f = Gsim.instantiate ~keep:t.keep fallback_config t.circuit in
    t.fallback <- Some f;
    f

let sim t = if t.on_fallback then (fallback t).Gsim.sim else t.primary.Gsim.sim
let primary_sim t = t.primary.Gsim.sim
let degraded t = t.on_fallback
let cycle t = t.abs_cycle
let incidents t = List.rev t.incidents

let active_name t = if t.on_fallback then fallback_config.Gsim.config_name else t.primary_name

let active_runtime t =
  if t.on_fallback then (fallback t).Gsim.runtime else t.primary.Gsim.runtime

let checkpoint t =
  Checkpoint.with_cycle (Checkpoint.capture ?rt:(active_runtime t) (sim t)) t.abs_cycle

(* --- Dirty accumulators -------------------------------------------------- *)

let merge_dirty tbl name words =
  let set =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 64 in
      Hashtbl.replace tbl name s;
      s
  in
  Array.iter (fun w -> Hashtbl.replace set w ()) words

(* Drain the active engine's write barrier into both accumulators. *)
let drain_dirty t =
  match active_runtime t with
  | None -> ()
  | Some rt ->
    let c = (sim t).Sim.circuit in
    List.iter
      (fun (mi, words) ->
        let name = (Circuit.memory c mi).Circuit.mem_name in
        merge_dirty t.persist_dirty name words;
        merge_dirty t.shadow_dirty name words)
      (Runtime.take_dirty_mem rt)

(* Name-keyed word sets -> [(memory index, sorted words)] for the given
   engine's elaboration. *)
let dirty_for_sim (s : Sim.t) tbl =
  let mems = Circuit.memories s.Sim.circuit in
  let out = ref [] in
  for mi = Array.length mems - 1 downto 0 do
    match Hashtbl.find_opt tbl mems.(mi).Circuit.mem_name with
    | Some set when Hashtbl.length set > 0 ->
      let words = Array.make (Hashtbl.length set) 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun w () ->
          words.(!i) <- w;
          incr i)
        set;
      Array.sort compare words;
      out := (mi, words) :: !out
    | _ -> ()
  done;
  !out

(* The live engine's state as a full checkpoint, built sparsely: [base]
   patched with the scalars that differ and the memory words recorded in
   [tbl].  [tbl] must cover every word that may differ from [base] —
   which it does when [base] was established at a point where the
   accumulator was cleared and the write barrier was already on. *)
let materialize_current t tbl base =
  let s = sim t in
  drain_dirty t;
  let d =
    Checkpoint.capture_delta s ~cycle:t.abs_cycle ~dirty:(dirty_for_sim s tbl) ~base
      ~base_crc:0
  in
  (Checkpoint.apply_delta base d, d)

let resume t =
  match t.store with
  | None -> None
  | Some s -> (
    match Store.latest ~lenient:true s with
    | None -> None
    | Some (ck, path) ->
      Checkpoint.restore (sim t) ck;
      t.abs_cycle <- Checkpoint.cycle ck;
      t.verified <- Some ck;
      (* The restored generation may itself have been recovered leniently;
         the chain restarts with a fresh keyframe at the next persist
         rather than extending a link we cannot vouch for. *)
      t.last_persisted <- None;
      t.deltas_since_key <- 0;
      Hashtbl.reset t.persist_dirty;
      Hashtbl.reset t.shadow_dirty;
      t.shadow_synced <- false;
      Some (Checkpoint.cycle ck, path))

let inject_at t ~cycle f = t.injections <- (cycle, f) :: t.injections

let incident_path t =
  let dir =
    match t.cfg.incident_dir with
    | Some d -> Some d
    | None -> Option.map Store.dir t.store
  in
  Option.map
    (fun d ->
      Store.ensure_dir d;
      let rec free n =
        let p = Filename.concat d (Printf.sprintf "incident-%03d.rpt" n) in
        if Sys.file_exists p then free (n + 1) else p
      in
      free 1)
    dir

let record t inc =
  t.incidents <- inc :: t.incidents;
  match incident_path t with
  | Some path ->
    Incident.save path inc;
    Some path
  | None -> None

(* --- Shadow fast path ----------------------------------------------------

   The fallback engine holds the last verified state {e live}: a window
   is verified by replaying its pokes on the fallback in place and
   comparing against the primary in place — scalars exhaustively (there
   are few), memory over the union of both engines' dirty words (both
   started from the same state, so a word neither wrote cannot differ).
   Only on a mismatch does the expensive path run: full capture, fresh
   replays, and {!Shadow.verify}'s bisection to a one-cycle repro. *)

let scalar_pairs t =
  match t.scalar_pairs with
  | Some p -> p
  | None ->
    let pc = t.primary.Gsim.sim.Sim.circuit in
    let fc = (fallback t).Gsim.sim.Sim.circuit in
    let freg = Hashtbl.create 64 in
    List.iter
      (fun (r : Circuit.register) -> Hashtbl.replace freg r.Circuit.reg_name r.Circuit.read)
      (Circuit.registers fc);
    let pairs = ref [] in
    List.iter
      (fun (n : Circuit.node) ->
        match Circuit.find_node fc n.Circuit.name with
        | Some fn -> pairs := (n.Circuit.id, fn.Circuit.id) :: !pairs
        | None -> ())
      (Circuit.inputs pc);
    List.iter
      (fun (r : Circuit.register) ->
        match Hashtbl.find_opt freg r.Circuit.reg_name with
        | Some fid -> pairs := (r.Circuit.read, fid) :: !pairs
        | None -> ())
      (Circuit.registers pc);
    let p = Array.of_list !pairs in
    t.scalar_pairs <- Some p;
    p

let mem_index_by_name (s : Sim.t) =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun mi (m : Circuit.memory) -> Hashtbl.replace tbl m.Circuit.mem_name mi)
    (Circuit.memories s.Sim.circuit);
  tbl

(* In-place end-state comparison over the dirty union.  [fb_dirty] are
   the shadow's replay writes (name-keyed), [t.shadow_dirty] the
   primary's writes since the compare base. *)
let states_agree t fb_dirty =
  let ps = t.primary.Gsim.sim and fbs = (fallback t).Gsim.sim in
  Array.for_all
    (fun (pid, fid) -> Bits.equal (ps.Sim.peek pid) (fbs.Sim.peek fid))
    (scalar_pairs t)
  &&
  let pmi = mem_index_by_name ps and fmi = mem_index_by_name fbs in
  let names = Hashtbl.create 8 in
  Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) t.shadow_dirty;
  Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) fb_dirty;
  let ok = ref true in
  Hashtbl.iter
    (fun name () ->
      if !ok then
        match (Hashtbl.find_opt pmi name, Hashtbl.find_opt fmi name) with
        | Some pi, Some fi ->
          let check set =
            Hashtbl.iter
              (fun w () ->
                if !ok && not (Bits.equal (ps.Sim.read_mem pi w) (fbs.Sim.read_mem fi w))
                then ok := false)
              set
          in
          Option.iter check (Hashtbl.find_opt t.shadow_dirty name);
          Option.iter check (Hashtbl.find_opt fb_dirty name)
        | _ -> ok := false)
    names;
  !ok

let run ?(stimulus = fun _ -> []) ?halt t target =
  let start_cycle = t.abs_cycle in
  let ckpts = ref 0 and keyframes = ref 0 and deltas = ref 0 in
  let verified_windows = ref 0 in
  let run_incidents = ref [] in
  let halted = ref false in
  (* Arm the write barrier before the anchor states below are captured:
     the delta chain and the shadow compare both need every store since
     their base recorded. *)
  let arm_tracking () =
    if t.store <> None || t.cfg.shadow_stride <> None then
      match active_runtime t with
      | Some rt -> if not (Runtime.mem_tracking rt) then Runtime.set_mem_tracking rt true
      | None -> ()
  in
  arm_tracking ();
  if t.verified = None then t.verified <- Some (checkpoint t);
  (* Anchor the delta chain at run entry: persisting the verified anchor
     as a keyframe now means every periodic persist below is a cheap
     delta — the chain's one full-state write happens once, up front,
     reusing the capture just taken.  After a resume this re-serializes
     the restored state as a fresh keyframe, healing a leniently
     recovered (torn) source file and breaking the CRC links of any
     stale deltas from the abandoned timeline. *)
  (match (t.store, t.cfg.checkpoint_every) with
   | Some s, Some every when every > 0 && t.last_persisted = None ->
     let ck =
       match t.verified with
       | Some ck when Checkpoint.cycle ck = t.abs_cycle -> ck
       | _ -> checkpoint t
     in
     let _, crc = Store.save_keyframe s ck in
     t.last_persisted <- Some (ck, crc);
     t.deltas_since_key <- 0;
     Hashtbl.reset t.persist_dirty;
     incr keyframes;
     incr ckpts
   | _ -> ());
  (* Input pokes for the shadow's replay window, newest first — recorded
     only while a verification window is open. *)
  let trace = ref [] in
  let shadow_on () = t.cfg.shadow_stride <> None && not t.on_fallback in
  (* Sampled verification: with [shadow_window = Some w], only the last
     [w] cycles of each stride are re-executed — the window's start state
     is materialized sparsely from the primary at (boundary - w).  [None]
     replays the full stride from the verified anchor. *)
  let stride_of () = Option.value ~default:0 t.cfg.shadow_stride in
  let window_of () =
    let stride = stride_of () in
    match t.cfg.shadow_window with
    (* Sampling needs the write barrier to materialize the window's start
       state; without a runtime (reference primary) fall back to
       full-stride replay. *)
    | Some w when w > 0 && w < stride && t.primary.Gsim.runtime <> None -> w
    | _ -> stride
  in
  let sampled () = window_of () < stride_of () in
  let win_start = ref None in
  (* The sparse delta from the verified anchor to [win_start], kept so a
     synced shadow can be moved to the window start in place instead of
     paying a full-state restore. *)
  let win_delta = ref None in
  let record_inc inc =
    ignore (record t inc);
    run_incidents := inc :: !run_incidents
  in
  let rollback () =
    (* Graceful degradation: back to the last verified state, forward on
       the reference engine.  Injected (primary-only) faults do not follow
       us here, and neither does shadow verification — the fallback is the
       shadow. *)
    let ck = Option.get t.verified in
    let fb = fallback t in
    t.on_fallback <- true;
    Checkpoint.restore fb.Gsim.sim ck;
    t.abs_cycle <- Checkpoint.cycle ck;
    trace := [];
    win_start := None;
    win_delta := None;
    t.shadow_synced <- false;
    Hashtbl.reset t.shadow_dirty;
    (* The chain restarts on the fallback: its first persist is a
       keyframe, which also invalidates any stale deltas left on disk by
       the abandoned primary timeline (their base file gets overwritten,
       breaking their CRC links). *)
    t.last_persisted <- None;
    t.deltas_since_key <- 0;
    Hashtbl.reset t.persist_dirty;
    (* Drop the marks the restore itself just made, then re-arm. *)
    (match active_runtime t with
     | Some rt -> Runtime.set_mem_tracking rt false
     | None -> ());
    arm_tracking ();
    halted := false
  in
  let persist () =
    match t.store with
    | None -> ()
    | Some s ->
      let sm = sim t in
      drain_dirty t;
      let can_delta =
        match active_runtime t with Some rt -> Runtime.mem_tracking rt | None -> false
      in
      (match t.last_persisted with
       | Some (base, _) when Checkpoint.cycle base >= t.abs_cycle ->
         () (* nothing new since the chain tail *)
       | Some (base, base_crc)
         when can_delta && t.deltas_since_key < t.cfg.keyframe_every ->
         let dirty = dirty_for_sim sm t.persist_dirty in
         let d = Checkpoint.capture_delta sm ~cycle:t.abs_cycle ~dirty ~base ~base_crc in
         let _, crc = Store.save_delta s d in
         t.last_persisted <- Some (Checkpoint.apply_delta base d, crc);
         t.deltas_since_key <- t.deltas_since_key + 1;
         incr deltas;
         incr ckpts
       | _ ->
         let ck = checkpoint t in
         let _, crc = Store.save_keyframe s ck in
         t.last_persisted <- Some (ck, crc);
         t.deltas_since_key <- 0;
         incr keyframes;
         incr ckpts);
      Hashtbl.reset t.persist_dirty
  in
  let next_boundary () =
    let b = ref target in
    (match t.cfg.checkpoint_every with
     | Some every when every > 0 ->
       let next = ((t.abs_cycle / every) + 1) * every in
       if next < !b then b := next
     | _ -> ());
    (if shadow_on () then begin
       let vc = Checkpoint.cycle (Option.get t.verified) in
       let next_verify = vc + stride_of () in
       let next =
         if sampled () && !win_start = None then next_verify - window_of ()
         else next_verify
       in
       if next > t.abs_cycle && next < !b then b := next
     end);
    !b
  in
  (* Run the expensive path on a window the in-place compare rejected (or
     that cannot use it): fresh replays and bisection to a one-cycle
     repro.  Returns [true] when the window verified after all. *)
  let slow_verify ~start ~start_cycle ~pokes =
    let primary_end = checkpoint t in
    let fb = fallback t in
    t.shadow_synced <- false;
    match
      Shadow.verify ~circuit:t.circuit ~primary:t.primary.Gsim.sim ~shadow:fb.Gsim.sim
        ~start ~start_cycle ~pokes ~primary_end
    with
    | Shadow.Verified ck ->
      t.verified <- Some (Checkpoint.with_cycle ck t.abs_cycle);
      true
    | Shadow.Diverged inc | Shadow.Transient inc ->
      record_inc inc;
      rollback ();
      false
  in
  let verify_window () =
    let vck = Option.get t.verified in
    let pokes = Array.of_list (List.rev !trace) in
    let w = Array.length pokes in
    let start, start_cycle =
      match !win_start with
      | Some ck -> (ck, Checkpoint.cycle ck)
      | None -> (vck, Checkpoint.cycle vck)
    in
    let fb = fallback t in
    let fbs = fb.Gsim.sim in
    let fast_ok =
      match (t.primary.Gsim.runtime, fb.Gsim.runtime) with
      | Some prt, Some frt when Runtime.mem_tracking prt ->
        (* Bring the shadow to the window's start state; skip the restore
           when it is already sitting there, and when it sits at the
           verified anchor move it by the sparse window delta instead of
           a full-state restore. *)
        (if !win_start <> None || not t.shadow_synced then
           match (!win_delta, t.shadow_synced) with
           | Some d, true -> Checkpoint.restore_delta fbs d
           | _ -> Checkpoint.restore fbs start);
        (* Force-clear the shadow's tracker: only the replay's own writes
           belong in the compare set (restore marks every word). *)
        Runtime.set_mem_tracking frt false;
        Runtime.set_mem_tracking frt true;
        for i = 0 to w - 1 do
          List.iter (fun (id, v) -> fbs.Sim.poke id v) pokes.(i);
          fbs.Sim.step ()
        done;
        let fb_dirty = Hashtbl.create 8 in
        List.iter
          (fun (mi, words) ->
            merge_dirty fb_dirty
              (Circuit.memory fbs.Sim.circuit mi).Circuit.mem_name words)
          (Runtime.take_dirty_mem frt);
        drain_dirty t;
        if states_agree t fb_dirty then
          Some (fst (materialize_current t t.shadow_dirty start))
        else None
      | _ -> None
    in
    match fast_ok with
    | Some new_verified ->
      t.verified <- Some new_verified;
      t.shadow_synced <- true;  (* the shadow now sits at the new anchor *)
      trace := [];
      win_start := None;
      win_delta := None;
      Hashtbl.reset t.shadow_dirty;
      incr verified_windows
    | None ->
      if slow_verify ~start ~start_cycle ~pokes then begin
        trace := [];
        win_start := None;
        win_delta := None;
        drain_dirty t;
        Hashtbl.reset t.shadow_dirty;
        incr verified_windows
      end
  in
  while t.abs_cycle < target && not !halted do
    let upto = next_boundary () in
    let s = sim t in
    (* Per-chunk constants: whether pokes are recorded for replay, and
       whether any injection can fire — both invariant within a chunk, so
       the per-cycle loop stays lean when the features are off. *)
    let recording =
      shadow_on ()
      &&
      let vc = Checkpoint.cycle (Option.get t.verified) in
      if sampled () then !win_start <> None
      else t.abs_cycle >= vc
    in
    let has_injections = (not t.on_fallback) && t.injections <> [] in
    let t0 = Unix.gettimeofday () in
    let err =
      try
        while t.abs_cycle < upto && not !halted do
          let pokes = stimulus t.abs_cycle in
          (match pokes with
           | [] -> ()
           | pokes -> List.iter (fun (id, v) -> s.Sim.poke id v) pokes);
          if recording then trace := pokes :: !trace;
          if has_injections then
            List.iter
              (fun (c, f) -> if c = t.abs_cycle then f t.primary.Gsim.sim)
              t.injections;
          s.Sim.step ();
          t.abs_cycle <- t.abs_cycle + 1;
          match halt with
          | Some h when not (Bits.is_zero (s.Sim.peek h)) -> halted := true
          | _ -> ()
        done;
        None
      with e -> Some e
    in
    let dt = Unix.gettimeofday () -. t0 in
    match err with
    | Some e when t.on_fallback ->
      (* The engine of last resort failed: nothing left to degrade to. *)
      raise e
    | Some e ->
      record_inc
        {
          Incident.kind = Incident.Engine_error (Printexc.to_string e);
          window_start = Checkpoint.cycle (Option.get t.verified);
          window_end = t.abs_cycle;
          first_divergent = None;
          registers = [];
          start_state = None;
          trace = [];
          message = "";
        };
      rollback ()
    | None ->
      let tripped =
        (* The watchdog is only armed on the primary: the fallback is the
           engine of last resort, slow but trusted. *)
        (not t.on_fallback)
        && match t.cfg.watchdog_seconds with Some w -> dt > w | None -> false
      in
      if tripped then begin
        record_inc
          {
            Incident.kind = Incident.Watchdog dt;
            window_start = Checkpoint.cycle (Option.get t.verified);
            window_end = t.abs_cycle;
            first_divergent = None;
            registers = [];
            start_state = None;
            trace = [];
            message =
              Printf.sprintf "step batch [%d,%d) took %.3fs (budget %.3fs)"
                (Checkpoint.cycle (Option.get t.verified))
                t.abs_cycle dt
                (Option.get t.cfg.watchdog_seconds);
          };
        rollback ()
      end
      else begin
        (if shadow_on () then begin
           let vc = Checkpoint.cycle (Option.get t.verified) in
           let stride = stride_of () in
           (* Open a sampled window at (boundary - w): snapshot the
              primary sparsely; replay starts here. *)
           (if sampled () && !win_start = None && t.abs_cycle >= vc + stride - window_of ()
               && t.abs_cycle < vc + stride
            then begin
              let ck, d = materialize_current t t.shadow_dirty (Option.get t.verified) in
              win_start := Some (Checkpoint.with_cycle ck t.abs_cycle);
              win_delta := Some d;
              Hashtbl.reset t.shadow_dirty;
              trace := []
            end);
           let window_full = t.abs_cycle >= vc + stride in
           let at_end = t.abs_cycle >= target || !halted in
           if !trace <> [] && (window_full || at_end) then verify_window ()
         end);
        match t.cfg.checkpoint_every with
        | Some every when every > 0 && t.abs_cycle mod every = 0 && t.abs_cycle > 0 ->
          persist ()
        | _ -> ()
      end
  done;
  (* A completed session leaves its end state in the store, whatever the
     stride: resuming past [target] needs no replay. *)
  (match (t.store, t.cfg.checkpoint_every) with
   | Some _, Some every when every > 0 && t.abs_cycle mod every <> 0 -> persist ()
   | _ -> ());
  {
    final_cycle = t.abs_cycle;
    ran = t.abs_cycle - start_cycle;
    halted = !halted;
    incidents = List.rev !run_incidents;
    checkpoints_written = !ckpts;
    keyframes_written = !keyframes;
    deltas_written = !deltas;
    windows_verified = !verified_windows;
    degraded = t.on_fallback;
  }

let destroy t =
  t.primary.Gsim.destroy ();
  match t.fallback with Some f -> f.Gsim.destroy () | None -> ()
