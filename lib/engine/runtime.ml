module Bits = Gsim_bits.Bits
open Gsim_ir

type t = {
  c : Circuit.t;
  narrow : int array;
  wide : Bits.t array;
  is_wide : bool array;
  (* Flat mirror of the wide arena: every wide node owns a contiguous
     region of raw little-endian 64-bit limbs at offset [woff.(id)]
     (layout from [Emit_c.wide_offsets]; a [Bytes.t] is never scanned
     by the GC, so the limbs carry no tag bits).  The native backend
     loads wide operands from here by direct indexed reads; [set_wide]
     keeps it identical to the boxed slots. *)
  woff : int array;
  wflat : Bytes.t;
  mem_narrow : int array array;
  mem_wide : Bits.t array array;
  mem_is_wide : bool array;
  (* Force overrides (fault injection): while [forced.(id)] the arena slot
     always holds [(computed land lnot mask) lor value]; every writer of
     the slot must re-apply the override (see [guard] and [poke]). *)
  forced : bool array;
  fmask_n : int array;  (* packed mask, narrow nodes *)
  fval_n : int array;   (* packed value, pre-masked *)
  fwide : (int, Bits.t * Bits.t) Hashtbl.t;  (* id -> mask, pre-masked value *)
  (* Memory-word write barrier (delta checkpointing).  While [track_mem]
     is set, every committed store records its word in a per-memory
     dirty set: a bitmap for O(1) dedup plus an index vector so draining
     costs O(dirty), not O(depth).  All memory writes funnel through
     this module ([write_committer], [load_mem]) on every engine and
     backend, so the set is complete by construction. *)
  mutable track_mem : bool;
  dirty_bits : Bytes.t array;  (* per memory: depth bits *)
  mutable dirty_words : int array array;  (* per memory: index vector *)
  dirty_len : int array;  (* per memory: live prefix of the vector *)
}

let circuit t = t.c

let wide_node w = w > 62

(* The one store path for wide slots: blit into the slot's permanent
   buffer and mirror the limbs into the flat arena.  Keeping both views
   in lockstep is what lets generated code read wide operands without
   chasing the boxed representation. *)
let set_wide t id v =
  Bits.unsafe_blit ~src:v ~dst:t.wide.(id);
  let off = t.woff.(id) in
  let wflat = t.wflat in
  for j = 0 to ((Bits.width v + 63) / 64) - 1 do
    Bytes.set_int64_le wflat ((off + j) * 8) (Bits.limb64 v j)
  done

let create c =
  let n = Circuit.max_id c in
  let narrow = Array.make n 0 in
  let wide = Array.make n (Bits.zero 1) in
  let is_wide = Array.make n false in
  Circuit.iter_nodes c (fun nd ->
      if wide_node nd.Circuit.width then begin
        is_wide.(nd.Circuit.id) <- true;
        wide.(nd.Circuit.id) <- Bits.zero nd.Circuit.width
      end);
  let mems = Circuit.memories c in
  let mem_is_wide = Array.map (fun m -> wide_node m.Circuit.mem_width) mems in
  let mem_narrow =
    Array.map
      (fun (m : Circuit.memory) ->
        if wide_node m.mem_width then [||] else Array.make m.depth 0)
      mems
  in
  let mem_wide =
    Array.map
      (fun (m : Circuit.memory) ->
        if wide_node m.mem_width then Array.make m.depth (Bits.zero m.mem_width) else [||])
      mems
  in
  let woff, wlen = Gsim_emit.Emit_c.wide_offsets c in
  let t =
    {
      c;
      narrow;
      wide;
      is_wide;
      woff;
      wflat = Bytes.make (max (8 * wlen) 8) '\000';
      mem_narrow;
      mem_wide;
      mem_is_wide;
      forced = Array.make (max n 1) false;
      fmask_n = Array.make (max n 1) 0;
      fval_n = Array.make (max n 1) 0;
      fwide = Hashtbl.create 8;
      track_mem = false;
      dirty_bits =
        Array.map
          (fun (m : Circuit.memory) -> Bytes.make ((m.depth + 7) / 8) '\000')
          mems;
      dirty_words = Array.map (fun _ -> [||]) mems;
      dirty_len = Array.make (max (Array.length mems) 1) 0;
    }
  in
  List.iter
    (fun (r : Circuit.register) ->
      if is_wide.(r.read) then set_wide t r.read r.init
      else narrow.(r.read) <- Bits.to_packed r.init)
    (Circuit.registers c);
  t

(* ------------------------------------------------------------------ *)
(* Memory-word dirty tracking                                          *)
(* ------------------------------------------------------------------ *)

let mark_dirty t mi a =
  let bits = t.dirty_bits.(mi) in
  let byte = a lsr 3 and bit = a land 7 in
  let b = Char.code (Bytes.unsafe_get bits byte) in
  if b land (1 lsl bit) = 0 then begin
    Bytes.unsafe_set bits byte (Char.unsafe_chr (b lor (1 lsl bit)));
    let len = t.dirty_len.(mi) in
    let vec = t.dirty_words.(mi) in
    let vec =
      if len >= Array.length vec then begin
        let nv = Array.make (max 16 (2 * Array.length vec)) 0 in
        Array.blit vec 0 nv 0 len;
        t.dirty_words.(mi) <- nv;
        nv
      end
      else vec
    in
    Array.unsafe_set vec len a;
    t.dirty_len.(mi) <- len + 1
  end

let set_mem_tracking t on =
  if on && not t.track_mem then begin
    (* Drop stale marks from a previous tracking episode. *)
    Array.iteri
      (fun mi bits ->
        if t.dirty_len.(mi) > 0 then begin
          Bytes.fill bits 0 (Bytes.length bits) '\000';
          t.dirty_len.(mi) <- 0
        end)
      t.dirty_bits
  end;
  t.track_mem <- on

let mem_tracking t = t.track_mem

let take_dirty_mem t =
  let out = ref [] in
  for mi = Array.length t.dirty_bits - 1 downto 0 do
    let len = t.dirty_len.(mi) in
    if len > 0 then begin
      let words = Array.sub t.dirty_words.(mi) 0 len in
      Array.sort compare words;
      let bits = t.dirty_bits.(mi) in
      Array.iter
        (fun a ->
          let byte = a lsr 3 in
          Bytes.unsafe_set bits byte
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get bits byte) land lnot (1 lsl (a land 7)))))
        words;
      t.dirty_len.(mi) <- 0;
      out := (mi, words) :: !out
    end
  done;
  !out

let drain_mem t =
  if t.track_mem then take_dirty_mem t
  else begin
    set_mem_tracking t true;
    []
  end

let snapshot_mem t mi =
  if t.mem_is_wide.(mi) then Array.map Bits.copy t.mem_wide.(mi)
  else
    let width = (Circuit.memory t.c mi).Circuit.mem_width in
    Array.map (fun v -> Bits.unsafe_of_packed ~width v) t.mem_narrow.(mi)

let node_width t id = (Circuit.node t.c id).Circuit.width

let narrow_values t = t.narrow

let wide_values t = t.wide

let wide_flat t = t.wflat

let wide_offset t id = t.woff.(id)

let narrow_mems t = t.mem_narrow

let is_wide t id = t.is_wide.(id)

(* Wide slots follow a stable-buffer discipline: the object placed in a
   slot at [create] is never replaced, and every store blits limbs into
   it ([Bits.unsafe_blit]).  The native backend's generated code mutates
   the same buffers in place, stores allocate nothing, and two slots can
   never come to share a limb array (a compiled [Var]/[Mux] closure can
   return another slot's object as the value to store — the blit copies
   it out).  [peek] hands out a copy: a caller snapshotting values across
   cycles (oracle traces, checkpoints) must not watch the buffer move
   under it. *)
let peek t id =
  if t.is_wide.(id) then Bits.copy t.wide.(id)
  else Bits.unsafe_of_packed ~width:(node_width t id) t.narrow.(id)

let peek_int t id = if t.is_wide.(id) then Bits.to_int_trunc t.wide.(id) else t.narrow.(id)

let override_wide t id v =
  match Hashtbl.find_opt t.fwide id with
  | None -> v
  | Some (m, mv) -> Bits.logor (Bits.logand v (Bits.lognot m)) mv

let override_narrow t id v = (v land lnot t.fmask_n.(id)) lor t.fval_n.(id)

let poke t id v =
  let nd = Circuit.node t.c id in
  (match nd.Circuit.kind with
   | Circuit.Input -> ()
   | _ -> invalid_arg (Printf.sprintf "Runtime.poke: %S is not an input" nd.Circuit.name));
  if Bits.width v <> nd.Circuit.width then
    invalid_arg (Printf.sprintf "Runtime.poke: width mismatch on %S" nd.Circuit.name);
  if t.is_wide.(id) then begin
    let v = if t.forced.(id) then override_wide t id v else v in
    let changed = not (Bits.equal t.wide.(id) v) in
    if changed then set_wide t id v;
    changed
  end
  else begin
    let packed = Bits.to_packed v in
    let packed = if t.forced.(id) then override_narrow t id packed else packed in
    let changed = t.narrow.(id) <> packed in
    t.narrow.(id) <- packed;
    changed
  end

let load_mem t mi contents =
  let m = Circuit.memory t.c mi in
  if Array.length contents > m.Circuit.depth then invalid_arg "Runtime.load_mem: too long";
  Array.iteri
    (fun i v ->
      if Bits.width v <> m.Circuit.mem_width then invalid_arg "Runtime.load_mem: width";
      if t.mem_is_wide.(mi) then t.mem_wide.(mi).(i) <- v
      else t.mem_narrow.(mi).(i) <- Bits.to_packed v;
      if t.track_mem then mark_dirty t mi i)
    contents

let read_mem t mi addr =
  let m = Circuit.memory t.c mi in
  if addr < 0 || addr >= m.Circuit.depth then invalid_arg "Runtime.read_mem";
  if t.mem_is_wide.(mi) then t.mem_wide.(mi).(addr)
  else Bits.unsafe_of_packed ~width:m.Circuit.mem_width t.mem_narrow.(mi).(addr)

let write_mem_word t mi addr v =
  let m = Circuit.memory t.c mi in
  if addr < 0 || addr >= m.Circuit.depth then invalid_arg "Runtime.write_mem_word";
  if Bits.width v <> m.Circuit.mem_width then invalid_arg "Runtime.write_mem_word: width";
  if t.mem_is_wide.(mi) then t.mem_wide.(mi).(addr) <- Bits.copy v
  else t.mem_narrow.(mi).(addr) <- Bits.to_packed v;
  if t.track_mem then mark_dirty t mi addr

let poke_register t id v =
  let nd = Circuit.node t.c id in
  (match nd.Circuit.kind with
   | Circuit.Reg_read _ -> ()
   | _ -> invalid_arg "Runtime.poke_register: not a register read node");
  if Bits.width v <> nd.Circuit.width then invalid_arg "Runtime.poke_register: width";
  if t.is_wide.(id) then
    set_wide t id (if t.forced.(id) then override_wide t id v else v)
  else
    let packed = Bits.to_packed v in
    t.narrow.(id) <- (if t.forced.(id) then override_narrow t id packed else packed)

(* ------------------------------------------------------------------ *)
(* Force overrides                                                     *)
(* ------------------------------------------------------------------ *)

let force t ?mask id v =
  let nd = Circuit.node t.c id in
  let w = nd.Circuit.width in
  if Bits.width v <> w then
    invalid_arg (Printf.sprintf "Runtime.force: width mismatch on %S" nd.Circuit.name);
  let m =
    match mask with
    | None -> Bits.ones w
    | Some m ->
      if Bits.width m <> w then
        invalid_arg (Printf.sprintf "Runtime.force: mask width mismatch on %S" nd.Circuit.name);
      m
  in
  t.forced.(id) <- true;
  if t.is_wide.(id) then begin
    Hashtbl.replace t.fwide id (m, Bits.logand v m);
    let cur = t.wide.(id) in
    let nv = override_wide t id cur in
    let changed = not (Bits.equal nv cur) in
    if changed then set_wide t id nv;
    changed
  end
  else begin
    let mp = Bits.to_packed m in
    t.fmask_n.(id) <- mp;
    t.fval_n.(id) <- Bits.to_packed v land mp;
    let cur = t.narrow.(id) in
    let nv = override_narrow t id cur in
    t.narrow.(id) <- nv;
    nv <> cur
  end

let release t id =
  ignore (Circuit.node t.c id);
  let was = t.forced.(id) in
  t.forced.(id) <- false;
  t.fmask_n.(id) <- 0;
  t.fval_n.(id) <- 0;
  Hashtbl.remove t.fwide id;
  was

let is_forced t id = t.forced.(id)

(* Wrap a step that writes the node's slot so the override is re-applied
   after every evaluation and change is reported against the overridden
   value.  The un-forced path costs one array load and one branch. *)
let guard t id step =
  if t.is_wide.(id) then begin
    let wide = t.wide and forced = t.forced in
    fun () ->
      if not forced.(id) then step ()
      else begin
        (* [step] blits the slot buffer in place; snapshot first. *)
        let old = Bits.copy wide.(id) in
        ignore (step ());
        let nv = override_wide t id wide.(id) in
        set_wide t id nv;
        not (Bits.equal nv old)
      end
  end
  else begin
    let narrow = t.narrow and forced = t.forced in
    fun () ->
      if not forced.(id) then step ()
      else begin
        let old = narrow.(id) in
        ignore (step ());
        let nv = override_narrow t id narrow.(id) in
        narrow.(id) <- nv;
        nv <> old
      end
  end

let data_size_bytes t =
  Circuit.fold_nodes t.c ~init:0 ~f:(fun acc nd ->
      let w = nd.Circuit.width in
      acc + (if wide_node w then 8 * ((w + 30) / 31) else 8))

let mem_size_bytes t =
  Array.fold_left
    (fun acc (m : Circuit.memory) ->
      let per_word =
        if wide_node m.mem_width then 8 * ((m.mem_width + 30) / 31) else 8
      in
      acc + (per_word * m.depth))
    0 (Circuit.memories t.c)

(* ------------------------------------------------------------------ *)
(* Native-int operations on packed values                              *)
(* ------------------------------------------------------------------ *)

(* mask w for 1 <= w <= 62; (1 lsl 62) - 1 wraps to max_int, which is the
   correct 62-bit mask. *)
let mask w = (1 lsl w) - 1

let sext w x = (x lsl (63 - w)) asr (63 - w)

(* Constant-time SWAR popcount for packed (<= 62-bit, nonnegative) values.
   The usual 64-bit masks are truncated to OCaml's 63-bit ints: [m1] keeps
   the even bit positions up to 60, which covers every bit of [x lsr 1]
   when [x] has at most 62 bits.  The final byte-summing multiply wraps
   mod 2^63, but the total (<= 62) lives entirely in bits 56..62, which
   truncation cannot disturb. *)
let popcount_int x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

type compiled = I of (unit -> int) | B of (unit -> Bits.t)

let as_bits ~width = function
  | B f -> f
  | I f -> fun () -> Bits.unsafe_of_packed ~width (f ())

let compile_unop op ~w_in f =
  match op with
  | Expr.Not -> fun () -> lnot (f ()) land mask w_in
  | Expr.Neg -> fun () -> (0 - f ()) land mask (w_in + 1)
  | Expr.Reduce_and ->
    let m = mask w_in in
    fun () -> if f () = m then 1 else 0
  | Expr.Reduce_or -> fun () -> if f () <> 0 then 1 else 0
  | Expr.Reduce_xor -> fun () -> popcount_int (f ()) land 1
  | Expr.Shl_const n -> fun () -> f () lsl n
  | Expr.Shr_const n -> fun () -> f () lsr n
  | Expr.Extract (hi, lo) ->
    let m = mask (hi - lo + 1) in
    fun () -> (f () lsr lo) land m
  | Expr.Pad_unsigned n ->
    if n >= w_in then f
    else
      let m = mask n in
      fun () -> f () land m
  | Expr.Pad_signed n ->
    if n >= w_in then
      let m = mask n in
      fun () -> sext w_in (f ()) land m
    else
      let m = mask n in
      fun () -> f () land m

let compile_binop op ~w1 ~w2 ~wr fa fb =
  match op with
  | Expr.Add -> fun () -> (fa () + fb ()) land mask wr
  | Expr.Sub -> fun () -> (fa () - fb ()) land mask wr
  | Expr.Mul -> fun () -> fa () * fb ()
  | Expr.Div ->
    fun () ->
      let b = fb () in
      if b = 0 then 0 else fa () / b
  | Expr.Div_signed ->
    let m = mask wr in
    fun () ->
      let b = sext w2 (fb ()) in
      if b = 0 then 0 else (sext w1 (fa ()) / b) land m
  | Expr.Rem ->
    let m = mask wr in
    fun () ->
      let b = fb () in
      if b = 0 then fa () land m else (fa () mod b) land m
  | Expr.Rem_signed ->
    let m = mask wr in
    fun () ->
      let b = sext w2 (fb ()) in
      if b = 0 then sext w1 (fa ()) land m else (sext w1 (fa ()) mod b) land m
  | Expr.And -> fun () -> fa () land fb ()
  | Expr.Or -> fun () -> fa () lor fb ()
  | Expr.Xor -> fun () -> fa () lxor fb ()
  | Expr.Cat -> fun () -> (fa () lsl w2) lor fb ()
  | Expr.Eq -> fun () -> if fa () = fb () then 1 else 0
  | Expr.Neq -> fun () -> if fa () <> fb () then 1 else 0
  | Expr.Lt -> fun () -> if fa () < fb () then 1 else 0
  | Expr.Leq -> fun () -> if fa () <= fb () then 1 else 0
  | Expr.Gt -> fun () -> if fa () > fb () then 1 else 0
  | Expr.Geq -> fun () -> if fa () >= fb () then 1 else 0
  | Expr.Lt_signed -> fun () -> if sext w1 (fa ()) < sext w2 (fb ()) then 1 else 0
  | Expr.Leq_signed -> fun () -> if sext w1 (fa ()) <= sext w2 (fb ()) then 1 else 0
  | Expr.Gt_signed -> fun () -> if sext w1 (fa ()) > sext w2 (fb ()) then 1 else 0
  | Expr.Geq_signed -> fun () -> if sext w1 (fa ()) >= sext w2 (fb ()) then 1 else 0
  | Expr.Dshl ->
    let m = mask w1 in
    fun () ->
      let b = fb () in
      if b >= w1 then 0 else (fa () lsl b) land m
  | Expr.Dshr ->
    fun () ->
      let b = fb () in
      if b >= w1 then 0 else fa () lsr b
  | Expr.Dshr_signed ->
    let m = mask w1 in
    fun () ->
      let b = fb () in
      if b >= w1 then (if fa () lsr (w1 - 1) = 1 then m else 0)
      else (sext w1 (fa ()) asr b) land m

let rec compile t (e : Expr.t) : compiled =
  let w = Expr.width e in
  match e.Expr.desc with
  | Expr.Const b ->
    if Bits.fits_int w then
      let v = Bits.to_packed b in
      I (fun () -> v)
    else B (fun () -> b)
  | Expr.Var id ->
    if t.is_wide.(id) then
      let wide = t.wide in
      B (fun () -> wide.(id))
    else
      let narrow = t.narrow in
      I (fun () -> narrow.(id))
  | Expr.Unop (op, a) ->
    let ca = compile t a in
    (match ca with
     | I fa when Bits.fits_int w -> I (compile_unop op ~w_in:(Expr.width a) fa)
     | I _ | B _ ->
       let fa = as_bits ~width:(Expr.width a) ca in
       let g () = Expr.eval_unop op (fa ()) in
       if Bits.fits_int w then I (fun () -> Bits.to_packed (g ())) else B g)
  | Expr.Binop (op, a, b) ->
    let ca = compile t a and cb = compile t b in
    (match (ca, cb) with
     | I fa, I fb when Bits.fits_int w ->
       I (compile_binop op ~w1:(Expr.width a) ~w2:(Expr.width b) ~wr:w fa fb)
     | (I _ | B _), (I _ | B _) ->
       let fa = as_bits ~width:(Expr.width a) ca
       and fb = as_bits ~width:(Expr.width b) cb in
       let g () = Expr.eval_binop op (fa ()) (fb ()) in
       if Bits.fits_int w then I (fun () -> Bits.to_packed (g ())) else B g)
  | Expr.Mux (s, a, b) ->
    let test =
      match compile t s with
      | I fs -> fun () -> fs () <> 0
      | B fs -> fun () -> not (Bits.is_zero (fs ()))
    in
    let ca = compile t a and cb = compile t b in
    (match (ca, cb) with
     | I fa, I fb -> I (fun () -> if test () then fa () else fb ())
     | (I _ | B _), (I _ | B _) ->
       let fa = as_bits ~width:w ca and fb = as_bits ~width:w cb in
       B (fun () -> if test () then fa () else fb ()))

(* ------------------------------------------------------------------ *)
(* Node evaluators                                                     *)
(* ------------------------------------------------------------------ *)

let store_and_compare t id = function
  | I f ->
    let narrow = t.narrow in
    fun () ->
      let v = f () in
      if v = narrow.(id) then false
      else begin
        narrow.(id) <- v;
        true
      end
  | B f ->
    let wide = t.wide in
    fun () ->
      let v = f () in
      if Bits.equal v wide.(id) then false
      else begin
        set_wide t id v;
        true
      end

(* Reader of a node's value as a clamped nonnegative int (addresses). *)
let int_reader t id =
  if t.is_wide.(id) then fun () -> Bits.to_int_trunc t.wide.(id)
  else fun () -> t.narrow.(id)

let node_evaluator t (nd : Circuit.node) =
  let id = nd.Circuit.id in
  match nd.Circuit.kind with
  | Circuit.Logic | Circuit.Reg_next _ ->
    (match nd.Circuit.expr with
     | Some e -> store_and_compare t id (compile t e)
     | None -> invalid_arg "Runtime.node_evaluator: missing expression")
  | Circuit.Mem_read pi ->
    let p = Circuit.read_port t.c pi in
    let mi = p.Circuit.r_mem in
    let m = Circuit.memory t.c mi in
    let depth = m.Circuit.depth in
    let addr = int_reader t p.Circuit.r_addr in
    let enabled =
      match p.Circuit.r_en with
      | None -> fun () -> true
      | Some en ->
        if t.is_wide.(en) then fun () -> not (Bits.is_zero t.wide.(en))
        else
          let narrow = t.narrow in
          fun () -> narrow.(en) <> 0
    in
    if t.mem_is_wide.(mi) then begin
      let contents = t.mem_wide.(mi) in
      let zero = Bits.zero m.Circuit.mem_width in
      let wide = t.wide in
      fun () ->
        let a = addr () in
        let v = if enabled () && a < depth then contents.(a) else zero in
        if Bits.equal v wide.(id) then false
        else begin
          set_wide t id v;
          true
        end
    end
    else begin
      let contents = t.mem_narrow.(mi) in
      let narrow = t.narrow in
      fun () ->
        let a = addr () in
        let v = if enabled () && a < depth then contents.(a) else 0 in
        if v = narrow.(id) then false
        else begin
          narrow.(id) <- v;
          true
        end
    end
  | Circuit.Input | Circuit.Reg_read _ ->
    invalid_arg "Runtime.node_evaluator: node is not evaluated"

let reg_copier t (r : Circuit.register) =
  if t.is_wide.(r.read) then begin
    let wide = t.wide in
    fun () ->
      let v = wide.(r.next) in
      if Bits.equal v wide.(r.read) then false
      else begin
        set_wide t r.read v;
        true
      end
  end
  else begin
    let narrow = t.narrow in
    let next = r.next and read = r.read in
    fun () ->
      let v = narrow.(next) in
      if v = narrow.(read) then false
      else begin
        narrow.(read) <- v;
        true
      end
  end

(* Narrow registers latch in one loop over (next, read) slot pairs —
   no per-register closure call.  Wide registers and forcible read slots
   (whose latch must re-apply the override) keep guarded copiers. *)
let reg_committer t ~forcible regs =
  let narrow_regs, others =
    List.partition
      (fun (r : Circuit.register) ->
        (not t.is_wide.(r.read)) && not (forcible r.Circuit.read))
      regs
  in
  let copiers =
    Array.of_list
      (List.map
         (fun (r : Circuit.register) ->
           let f = reg_copier t r in
           if forcible r.Circuit.read then guard t r.Circuit.read f else f)
         others)
  in
  let next = Array.of_list (List.map (fun (r : Circuit.register) -> r.next) narrow_regs) in
  let read = Array.of_list (List.map (fun (r : Circuit.register) -> r.read) narrow_regs) in
  let narrow = t.narrow in
  fun () ->
    let n = ref 0 in
    for i = 0 to Array.length next - 1 do
      let v = Array.unsafe_get narrow (Array.unsafe_get next i) in
      let rd = Array.unsafe_get read i in
      if v <> Array.unsafe_get narrow rd then begin
        Array.unsafe_set narrow rd v;
        incr n
      end
    done;
    for i = 0 to Array.length copiers - 1 do
      if (Array.unsafe_get copiers i) () then incr n
    done;
    !n

let reset_applier t (r : Circuit.register) =
  match r.reset with
  | None -> invalid_arg "Runtime.reset_applier: register has no reset"
  | Some rst ->
    if t.is_wide.(r.read) then begin
      let wide = t.wide in
      let v = rst.Circuit.reset_value in
      fun () ->
        if Bits.equal v wide.(r.read) then false
        else begin
          set_wide t r.read v;
          true
        end
    end
    else begin
      let narrow = t.narrow in
      let v = Bits.to_packed rst.Circuit.reset_value in
      let read = r.read in
      fun () ->
        if v = narrow.(read) then false
        else begin
          narrow.(read) <- v;
          true
        end
    end

let signal_is_set t id =
  if t.is_wide.(id) then fun () -> not (Bits.is_zero t.wide.(id))
  else
    let narrow = t.narrow in
    fun () -> narrow.(id) <> 0

let write_committer t mi (w : Circuit.write_port) =
  let m = Circuit.memory t.c mi in
  let depth = m.Circuit.depth in
  let addr = int_reader t w.Circuit.w_addr in
  let enabled = signal_is_set t w.Circuit.w_en in
  (* Inlined write-barrier fast path: the bitmap never reallocates, so it
     can be captured here, and a word already marked dirty (the common
     case — hot words are rewritten every cycle) costs one byte load. *)
  let dbits = t.dirty_bits.(mi) in
  let barrier a =
    if t.track_mem
       && Char.code (Bytes.unsafe_get dbits (a lsr 3)) land (1 lsl (a land 7)) = 0
    then mark_dirty t mi a
  in
  if t.mem_is_wide.(mi) then begin
    let contents = t.mem_wide.(mi) in
    let wide = t.wide in
    let data = w.Circuit.w_data in
    let read_data =
      if t.is_wide.(data) then fun () -> wide.(data)
      else fun () -> Bits.unsafe_of_packed ~width:m.Circuit.mem_width t.narrow.(data)
    in
    fun () ->
      if enabled () then begin
        let a = addr () in
        if a < depth then begin
          let v = read_data () in
          if Bits.equal contents.(a) v then false
          else begin
            contents.(a) <- Bits.copy v;
            barrier a;
            true
          end
        end
        else false
      end
      else false
  end
  else begin
    let contents = t.mem_narrow.(mi) in
    let data = int_reader t w.Circuit.w_data in
    fun () ->
      if enabled () then begin
        let a = addr () in
        if a < depth then begin
          let v = data () in
          if contents.(a) = v then false
          else begin
            contents.(a) <- v;
            barrier a;
            true
          end
        end
        else false
      end
      else false
  end

let write_committers t =
  Array.to_list (Circuit.memories t.c)
  |> List.mapi (fun mi (m : Circuit.memory) ->
         List.map (fun w -> write_committer t mi w) m.write_ports)
  |> List.concat |> Array.of_list

(* Group slow-path resets by their signal so a design with one reset net
   performs one check per cycle regardless of register count.  Appliers
   for forcible read nodes are guarded so a stuck-at override survives a
   reset. *)
let reset_groups t ~forcible =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (r : Circuit.register) ->
      match r.reset with
      | Some rst when rst.Circuit.slow_path ->
        let s = rst.Circuit.reset_signal in
        let applier = reset_applier t r in
        let applier = if forcible r.read then guard t r.read applier else applier in
        Hashtbl.replace groups s
          (applier :: (try Hashtbl.find groups s with Not_found -> []))
      | Some _ | None -> ())
    (Circuit.registers t.c);
  Hashtbl.fold
    (fun s appliers acc -> (signal_is_set t s, Array.of_list appliers) :: acc)
    groups []
  |> Array.of_list
