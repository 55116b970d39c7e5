module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Checkpoint = Gsim_engine.Checkpoint
module Gsim = Gsim_core.Gsim
module Store = Gsim_resilience.Store

type config = { horizon : int; budget : int }

let default_config = { horizon = 100; budget = 50 }

(* --- Target resolution --------------------------------------------------- *)

type target = { orig_id : int; is_register : bool }
type resolved = Injectable of target | Bad of string

let resolve circuit cfg (f : Fault.t) =
  match Circuit.find_node circuit f.Fault.target with
  | None -> Bad "no-such-node"
  | Some n ->
    let w = n.Circuit.width in
    if f.Fault.cycle < 0 || f.Fault.cycle >= cfg.horizon then Bad "cycle-beyond-horizon"
    else (
      match f.Fault.model with
      | (Fault.Seu b | Fault.Stuck (_, b, _)) when b < 0 || b >= w -> Bad "bit-out-of-range"
      | (Fault.Stuck (_, _, d) | Fault.Word_force (_, d)) when d <= 0 ->
        Bad "nonpositive-duration"
      | Fault.Word_force (v, _) when Bits.width v <> w -> Bad "width-mismatch"
      | _ ->
        Injectable
          {
            orig_id = n.Circuit.id;
            is_register = Circuit.register_of_node circuit n.Circuit.id <> None;
          })

(* --- Golden model -----------------------------------------------------------
   What the campaign keeps of the golden (fault-free) run: only what the
   forks and compares read.  A wanted cycle is one a fault forks at (its injection cycle)
   or compares at (its window end); the golden pass also stamps the
   horizon, where it leaves the engine.  The memories are kept as the
   image at cycle 0 plus a log of the words the run stored: each logged
   word is read back at the next stamp, so the golden contents of word
   [w] at stamp [c] are those of its newest log entry stamped at or
   before [c], or its cycle-0 word when it has none. *)

type golden = {
  stamps : int array;  (* wanted cycles, ascending *)
  at : (int, int) Hashtbl.t;  (* wanted cycle -> index into [stamps] *)
  state : Bits.t array array;  (* per stamp: the value of every state node *)
  written : (int * int) array array;
      (* per stamp: (memory, word) stored since the previous stamp *)
  history : (int * int, (int * Bits.t) list) Hashtbl.t;
      (* (memory, word) -> (stamp, value) read back, newest first *)
  mem0 : Bits.t array array;  (* memory image at cycle 0 *)
  out_packed : int array;  (* [cycle * nobs + j]: observed output j, narrow *)
  out_wide : Bits.t array;  (* same indexing, wide outputs only *)
  samples : (int * int, Bits.t) Hashtbl.t;
      (* (original id, cycle) -> SEU target value after that cycle's step *)
}

(* The state a checkpoint would hold, as node ids of the engine's circuit:
   inputs first, then register read nodes. *)
type shape = {
  state_ids : int array;
  state_narrow : bool array;
  n_inputs : int;
  observed : int array;
  obs_narrow : bool array;
}

let narrow_node c id = (Circuit.node c id).Circuit.width <= 62

let golden_word g c mi a =
  let rec newest = function
    | (s, v) :: rest -> if s <= c then v else newest rest
    | [] -> g.mem0.(mi).(a)
  in
  newest (try Hashtbl.find g.history (mi, a) with Not_found -> [])

(* [f mi a] for every word golden stored in the stamps [lo < c <= hi]. *)
let iter_written g ~lo ~hi f =
  Array.iteri
    (fun k s -> if s > lo && s <= hi then Array.iter (fun (mi, a) -> f mi a) g.written.(k))
    g.stamps

let make_golden ~stamps ~state ~writes ~mem0 ~out_packed ~out_wide ~samples =
  let at = Hashtbl.create (Array.length stamps) in
  Array.iteri (fun k c -> Hashtbl.replace at c k) stamps;
  let written = Array.make (Array.length stamps) [] in
  let history = Hashtbl.create 64 in
  (* [writes] ascending by stamp, so each history list ends newest first. *)
  List.iter
    (fun (c, mi, a, v) ->
      let k = Hashtbl.find at c in
      written.(k) <- (mi, a) :: written.(k);
      Hashtbl.replace history (mi, a)
        ((c, v) :: (try Hashtbl.find history (mi, a) with Not_found -> [])))
    writes;
  {
    stamps;
    at;
    state;
    written = Array.map (fun l -> Array.of_list (List.rev l)) written;
    history;
    mem0;
    out_packed;
    out_wide;
    samples;
  }

(* --- Golden-model persistence ----------------------------------------------
   With [~golden_dir], the golden model is persisted (format [golden 2])
   as one cycle-0 keyframe in the resilience layer's atomic checkpoint
   store plus [golden.gtr]: the output trace, the SEU samples, the state
   at each stamp and the write log.  An interrupted campaign resumes
   from it instead of re-simulating the golden run.  The header pins the
   design (name and structural digest), the engine configuration, the
   horizon and the state geometry; the keyframe must equal the engine's
   own cycle-0 state.  Anything else — an older [golden 1] directory
   included — fails the checks and is recomputed. *)

let golden_trace_name = "golden.gtr"

let pp_value v = Format.asprintf "%a" Bits.pp v

let load_golden store ~meta ~keyframe ~(circuit : Circuit.t) shape ~horizon ~wanted
    ~samples_at ~mem0 =
  let path = Filename.concat (Store.dir store) golden_trace_name in
  if not (Sys.file_exists path) then None
  else
    match
      let s = In_channel.with_open_bin path In_channel.input_all in
      let fail what = failwith ("golden: " ^ what) in
      let nobs = Array.length shape.observed in
      let nstate = Array.length shape.state_ids in
      let value ~width v =
        let b = Bits.of_string v in
        if Bits.width b <> width then fail "width mismatch";
        b
      in
      let values ids vs =
        let width j = (Circuit.node circuit ids.(j)).Circuit.width in
        Array.of_list (List.mapi (fun j v -> value ~width:(width j) v) vs)
      in
      let lines =
        String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
      in
      let header = Hashtbl.create 8 in
      let out = Array.make horizon None in
      let states = Hashtbl.create 64 in
      let writes = ref [] in
      let samples = Hashtbl.create 64 in
      (match lines with
       | first :: _ when String.trim first = "golden 2" -> ()
       | _ -> fail "not a golden 2 file");
      List.iteri
        (fun i line ->
          match String.split_on_char ' ' (String.trim line) with
          | _ when i = 0 -> ()
          | key :: rest when List.mem_assoc key meta ->
            Hashtbl.replace header key (String.concat " " rest)
          | "out" :: c :: vs -> (
            match int_of_string_opt c with
            | Some c when c >= 0 && c < horizon && List.length vs = nobs ->
              out.(c) <- Some (values shape.observed vs)
            | _ -> fail "bad out line")
          | "at" :: c :: vs -> (
            match int_of_string_opt c with
            | Some c when c >= 0 && c <= horizon && List.length vs = nstate ->
              Hashtbl.replace states c (values shape.state_ids vs)
            | _ -> fail "bad state line")
          | [ "write"; c; mi; a; v ] -> (
            let mems = Circuit.memories circuit in
            match (int_of_string_opt c, int_of_string_opt mi, int_of_string_opt a) with
            | Some c, Some mi, Some a
              when mi >= 0 && mi < Array.length mems && a >= 0
                   && a < mems.(mi).Circuit.depth ->
              writes := (c, mi, a, value ~width:mems.(mi).Circuit.mem_width v) :: !writes
            | _ -> fail "bad write line")
          | [ "sample"; id; c; v ] -> (
            match (int_of_string_opt id, int_of_string_opt c) with
            | Some id, Some c -> Hashtbl.replace samples (id, c) (Bits.of_string v)
            | _ -> fail "bad sample line")
          | _ -> fail "bad line")
        lines;
      List.iter
        (fun (k, v) -> if Hashtbl.find_opt header k <> Some v then fail "stale metadata")
        meta;
      Hashtbl.iter
        (fun c () -> if not (Hashtbl.mem states c) then fail "missing state")
        wanted;
      Hashtbl.iter
        (fun c ids ->
          List.iter
            (fun id -> if not (Hashtbl.mem samples (id, c)) then fail "missing sample")
            ids)
        samples_at;
      let writes =
        List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) (List.rev !writes)
      in
      List.iter
        (fun (c, _, _, _) -> if not (Hashtbl.mem states c) then fail "unstamped write")
        writes;
      (match Store.find store 0 with
       | Some ck when Checkpoint.equal ck (Lazy.force keyframe) -> ()
       | _ -> fail "keyframe differs from the engine's cycle-0 state");
      let stamps = Array.of_seq (Hashtbl.to_seq_keys states) in
      Array.sort compare stamps;
      let out_packed = Array.make (horizon * nobs) 0 in
      let out_wide = Array.make (horizon * nobs) (Bits.zero 1) in
      Array.iteri
        (fun c row ->
          match row with
          | None -> fail "incomplete trace"
          | Some vs ->
            Array.iteri
              (fun j v ->
                if shape.obs_narrow.(j) then out_packed.((c * nobs) + j) <- Bits.to_packed v
                else out_wide.((c * nobs) + j) <- v)
              vs)
        out;
      make_golden ~stamps ~state:(Array.map (Hashtbl.find states) stamps) ~writes ~mem0
        ~out_packed ~out_wide ~samples
    with
    | g -> Some g
    | exception _ -> None

let save_golden store ~meta ~keyframe ~(circuit : Circuit.t) shape ~horizon g =
  (* A [golden 1] directory held a keyframe per wanted cycle. *)
  List.iter
    (fun (c, p) -> if c <> 0 then try Sys.remove p with Sys_error _ -> ())
    (Store.checkpoints store);
  ignore (Store.save store keyframe);
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf fmt in
  line "golden 2\n";
  List.iter (fun (k, v) -> line "%s %s\n" k v) meta;
  let nobs = Array.length shape.observed in
  for c = 0 to horizon - 1 do
    line "out %d" c;
    Array.iteri
      (fun j id ->
        let v =
          if shape.obs_narrow.(j) then
            Bits.unsafe_of_packed ~width:(Circuit.node circuit id).Circuit.width
              g.out_packed.((c * nobs) + j)
          else g.out_wide.((c * nobs) + j)
        in
        line " %s" (pp_value v))
      shape.observed;
    line "\n"
  done;
  Hashtbl.iter (fun (id, c) v -> line "sample %d %d %s\n" id c (pp_value v)) g.samples;
  Array.iteri
    (fun k c ->
      line "at %d" c;
      Array.iter (fun v -> line " %s" (pp_value v)) g.state.(k);
      line "\n";
      Array.iter
        (fun (mi, a) -> line "write %d %d %d %s\n" c mi a (pp_value (golden_word g c mi a)))
        g.written.(k))
    g.stamps;
  Store.write_atomic (Filename.concat (Store.dir store) golden_trace_name)
    (Buffer.contents buf)

(* --- Campaign ------------------------------------------------------------ *)

(* One engine instance runs everything.  The golden pass steps it from
   its fresh (cycle-0) state to the horizon with the memory write
   barrier on, recording the golden model: the per-cycle trace of the
   design's observable outputs (detection); the state at each wanted
   cycle and the memory words stored between them (fork and compare);
   and, for SEUs on combinational signals, the golden value of the
   target after the injection step — the flip is expressed as a
   one-cycle force to (golden xor bit), which is engine-independent.

   Each fault then forks that instance: release leftover forces, write
   back golden values over only the memory words that can differ (those
   the barrier saw stored since the last fork, and those golden stored
   between the last fork's cycle and this one), set every register and
   input, inject, and run the observation window in lockstep against the
   golden trace.  The latent/masked compare at the window end reads the
   same small word set.  A fork or compare therefore costs O(state nodes
   + words written), never O(memory depth). *)

let run ?(skip = fun _ -> false) ?on_record ?progress ?stop_after
    ?(stimulus = fun _ -> []) ?golden_dir cfg sim_config circuit faults =
  if cfg.horizon <= 0 then invalid_arg "Campaign.run: horizon must be positive";
  let db = Db.create ~design:(Circuit.name circuit) ~horizon:cfg.horizon () in
  let record key r =
    Db.add db key r;
    match on_record with Some f -> f key r | None -> ()
  in
  let faults =
    List.map (fun f -> (Fault.key f, f)) faults
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  let todo = List.filter (fun (k, _) -> not (skip k)) faults in
  let todo =
    match stop_after with
    | Some n -> List.filteri (fun i _ -> i < n) todo
    | None -> todo
  in
  let prepared = List.map (fun (k, f) -> (k, f, resolve circuit cfg f)) todo in
  List.iter
    (fun (k, _, res) ->
      match res with
      | Bad reason -> record k { Db.classification = Db.Uninjectable reason; cycles_run = 0 }
      | Injectable _ -> ())
    prepared;
  let inj =
    List.filter_map
      (fun (k, f, res) ->
        match res with Injectable r -> Some (k, f, r) | Bad _ -> None)
      prepared
  in
  if inj = [] then db
  else begin
    let forcible =
      List.map (fun (_, _, r) -> match r with { orig_id; _ } -> orig_id) inj
      |> List.sort_uniq compare
    in
    (* Keep every register alive: the latent/masked distinction compares
       architectural state, so the state set must not depend on the
       optimization level or on WHICH faults this shard happens to run
       (dead-register elimination would otherwise drop state that no
       surviving output reads). *)
    let keep =
      List.map (fun (r : Circuit.register) -> r.Circuit.read) (Circuit.registers circuit)
    in
    let compiled = Gsim.instantiate ~forcible ~keep sim_config circuit in
    Fun.protect ~finally:(fun () -> compiled.Gsim.destroy ())
    @@ fun () ->
    let id_map = compiled.Gsim.id_map in
    let sid id = if id >= 0 && id < Array.length id_map then id_map.(id) else -1 in
    let fsim = compiled.Gsim.sim in
    let ec = fsim.Sim.circuit in
    (* The lockstep compare watches the ORIGINAL design's outputs only —
       instantiate additionally output-marks the forcible targets (on its
       private copy) so they survive optimization, and treating those as
       observable would turn every latent fault into a detected one. *)
    let observed =
      Circuit.outputs circuit
      |> List.filter_map (fun (n : Circuit.node) ->
             let i = sid n.Circuit.id in
             if i >= 0 then Some i else None)
      |> Array.of_list
    in
    let inputs = List.map (fun (n : Circuit.node) -> n.Circuit.id) (Circuit.inputs ec) in
    let regs =
      List.map (fun (r : Circuit.register) -> r.Circuit.read) (Circuit.registers ec)
    in
    let state_ids = Array.of_list (inputs @ regs) in
    let shape =
      {
        state_ids;
        state_narrow = Array.map (narrow_node ec) state_ids;
        n_inputs = List.length inputs;
        observed;
        obs_narrow = Array.map (narrow_node ec) observed;
      }
    in
    let nobs = Array.length observed in
    let window_end k = min cfg.horizon (k + max 1 cfg.budget) in
    let wanted = Hashtbl.create 64 in
    let samples_at = Hashtbl.create 64 in
    List.iter
      (fun (_, (f : Fault.t), r) ->
        Hashtbl.replace wanted f.Fault.cycle ();
        Hashtbl.replace wanted (window_end f.Fault.cycle) ();
        match (f.Fault.model, r) with
        | Fault.Seu _, { is_register = false; orig_id } ->
          let prev = try Hashtbl.find samples_at f.Fault.cycle with Not_found -> [] in
          Hashtbl.replace samples_at f.Fault.cycle (orig_id :: prev)
        | _ -> ())
      inj;
    let apply_stim s c =
      List.iter
        (fun (id, v) ->
          let i = sid id in
          if i >= 0 then s.Sim.poke i v)
        (stimulus c)
    in
    (* The fresh engine is golden(0): switch the write barrier on, so
       from here its memories are always this image plus the words the
       barrier has seen stored. *)
    ignore (fsim.Sim.take_dirty_mem ());
    let mem0 =
      Array.mapi
        (fun mi (m : Circuit.memory) -> Array.init m.Circuit.depth (fsim.Sim.read_mem mi))
        (Circuit.memories ec)
    in
    let gstore = Option.map (fun d -> Store.create ~ring:0 d) golden_dir in
    let meta =
      [
        ("design", Circuit.name circuit);
        ("digest", Digest.to_hex (Circuit.digest circuit));
        ("config", sim_config.Gsim.config_name);
        ("horizon", string_of_int cfg.horizon);
        ("observed", string_of_int nobs);
        ("state", string_of_int (Array.length shape.state_ids));
      ]
    in
    let keyframe = lazy (Checkpoint.with_cycle (Checkpoint.capture fsim) 0) in
    let cached =
      Option.bind gstore (fun store ->
          load_golden store ~meta ~keyframe ~circuit:ec shape ~horizon:cfg.horizon ~wanted
            ~samples_at ~mem0)
    in
    let g, base =
      match cached with
      | Some g -> (g, 0)
      | None ->
        let keyframe = Option.map (fun _ -> Lazy.force keyframe) gstore in
        Hashtbl.replace wanted cfg.horizon ();
        let stamps = Array.of_seq (Hashtbl.to_seq_keys wanted) in
        Array.sort compare stamps;
        let state = ref [] and writes = ref [] in
        let samples = Hashtbl.create 64 in
        let out_packed = Array.make (cfg.horizon * nobs) 0 in
        let out_wide = Array.make (cfg.horizon * nobs) (Bits.zero 1) in
        for c = 0 to cfg.horizon do
          if Hashtbl.mem wanted c then begin
            state := Array.map fsim.Sim.peek shape.state_ids :: !state;
            List.iter
              (fun (mi, words) ->
                Array.iter
                  (fun a -> writes := (c, mi, a, fsim.Sim.read_mem mi a) :: !writes)
                  words)
              (fsim.Sim.take_dirty_mem ())
          end;
          if c < cfg.horizon then begin
            apply_stim fsim c;
            fsim.Sim.step ();
            Array.iteri
              (fun j id ->
                let k = (c * nobs) + j in
                if shape.obs_narrow.(j) then out_packed.(k) <- fsim.Sim.peek_int id
                else out_wide.(k) <- fsim.Sim.peek id)
              observed;
            List.iter
              (fun orig_id ->
                Hashtbl.replace samples (orig_id, c) (fsim.Sim.peek (sid orig_id)))
              (try Hashtbl.find samples_at c with Not_found -> [])
          end
        done;
        let g =
          make_golden ~stamps
            ~state:(Array.of_list (List.rev !state))
            ~writes:(List.rev !writes) ~mem0 ~out_packed ~out_wide ~samples
        in
        (match (gstore, keyframe) with
         | Some store, Some keyframe ->
           save_golden store ~meta ~keyframe ~circuit:ec shape ~horizon:cfg.horizon g
         | _ -> ());
        (g, cfg.horizon)
    in
    (* [base]: the golden cycle the engine's state was last forked to;
       [pending]: drained barrier words not yet written back. *)
    let base = ref base and pending = ref [] in
    let fork c =
      pending := fsim.Sim.take_dirty_mem () :: !pending;
      let write_back mi a = fsim.Sim.write_mem mi a (golden_word g c mi a) in
      List.iter (List.iter (fun (mi, words) -> Array.iter (write_back mi) words)) !pending;
      iter_written g ~lo:(min !base c) ~hi:(max !base c) write_back;
      ignore (fsim.Sim.take_dirty_mem ());
      pending := [];
      base := c;
      let vals = g.state.(Hashtbl.find g.at c) in
      Array.iteri
        (fun i id ->
          if i < shape.n_inputs then fsim.Sim.poke id vals.(i)
          else fsim.Sim.write_reg id vals.(i))
        shape.state_ids;
      fsim.Sim.invalidate ()
    in
    (* Allocation-free for narrow outputs: the lockstep loop runs this
       every simulated cycle. *)
    let outputs_match c =
      let row = c * nobs in
      let rec go j =
        j >= nobs
        || (let id = observed.(j) in
            (if shape.obs_narrow.(j) then fsim.Sim.peek_int id = g.out_packed.(row + j)
             else Bits.equal (fsim.Sim.peek id) g.out_wide.(row + j))
            && go (j + 1))
      in
      go 0
    in
    (* The engine's state equals golden(endc), given that it was forked
       at [since]: the words that can differ are those stored since the
       fork and those golden stored in (since, endc]. *)
    let state_matches ~since endc =
      let dirty = fsim.Sim.take_dirty_mem () in
      pending := dirty :: !pending;
      let vals = g.state.(Hashtbl.find g.at endc) in
      let same = ref true in
      Array.iteri
        (fun i id ->
          if !same then
            same :=
              if shape.state_narrow.(i) then fsim.Sim.peek_int id = Bits.to_packed vals.(i)
              else Bits.equal (fsim.Sim.peek id) vals.(i))
        shape.state_ids;
      let check mi a =
        if !same then same := Bits.equal (fsim.Sim.read_mem mi a) (golden_word g endc mi a)
      in
      List.iter (fun (mi, words) -> Array.iter (check mi) words) dirty;
      iter_written g ~lo:since ~hi:endc check;
      !same
    in
    (* Per-fault forks. *)
    let active_forces = ref [] in
    let release_due c =
      let due, keep = List.partition (fun (_, at) -> at <= c) !active_forces in
      List.iter (fun (i, _) -> fsim.Sim.release i) due;
      active_forces := keep
    in
    let release_all () = release_due max_int in
    let total = List.length inj and done_ = ref 0 in
    List.iter
      (fun (key, (f : Fault.t), { orig_id; is_register }) ->
        let inject_cycle = f.Fault.cycle in
        let endc = window_end inject_cycle in
        let id = sid orig_id in
        let c = ref inject_cycle in
        (if id < 0 then
           record key { Db.classification = Db.Uninjectable "optimized-away"; cycles_run = 0 }
         else
           match
             release_all ();
             fork inject_cycle;
             Fault.inject fsim ~register:is_register
               ~width:(Circuit.node circuit orig_id).Circuit.width
               ~before:(fun () -> Hashtbl.find g.samples (orig_id, inject_cycle))
               id f;
             Option.iter
               (fun c -> active_forces := [ (id, c) ])
               (Fault.release_cycle ~register:is_register f);
             let detected = ref None in
             while !detected = None && !c < endc do
               release_due !c;
               apply_stim fsim !c;
               fsim.Sim.step ();
               if outputs_match !c then incr c else detected := Some !c
             done;
             match !detected with
             | Some dc -> { Db.classification = Db.Detected dc; cycles_run = dc - inject_cycle + 1 }
             | None ->
               release_all ();
               let cls =
                 if state_matches ~since:inject_cycle endc then Db.Masked else Db.Latent
               in
               { Db.classification = cls; cycles_run = endc - inject_cycle }
           with
           | r -> record key r
           | exception e ->
             (* A fault must never take the campaign down: anything the
                faulty run raises — engine invariant violation, watchdog —
                classifies the fault as a hang and moves on. *)
             (try release_all () with _ -> active_forces := []);
             record key
               {
                 Db.classification = Db.Hang;
                 cycles_run = max 0 (!c - inject_cycle);
               };
             Printf.eprintf "fault %s: hang: %s\n%!" key (Printexc.to_string e));
        incr done_;
        match progress with Some p -> p !done_ total | None -> ())
      inj;
    db
  end
