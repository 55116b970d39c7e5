module Bits = Gsim_bits.Bits

type t = {
  c : Circuit.t;
  values : Bits.t array;
  mems : Bits.t array array;
  order : int array;
  mutable cycles : int;
  (* Force overrides: while set, [values.(id)] always holds
     [(computed land lnot mask) lor value]; every write to the slot
     re-applies the override. *)
  forced_flag : bool array;
  forced : (int, Bits.t * Bits.t) Hashtbl.t;  (* id -> mask, pre-masked value *)
  (* Memory write barrier: while [track_mem], every store records its
     word in the memory's dirty set. *)
  mutable track_mem : bool;
  dirty : (int, unit) Hashtbl.t array;
}

let circuit t = t.c

let create c =
  Circuit.validate c;
  let values =
    Array.init (Circuit.max_id c) (fun id ->
        match Circuit.node_opt c id with
        | None -> Bits.zero 1
        | Some n ->
          (match n.Circuit.kind with
           | Circuit.Reg_read i -> ignore i; n.Circuit.width |> Bits.zero
           | _ -> Bits.zero n.Circuit.width))
  in
  List.iter
    (fun (r : Circuit.register) -> values.(r.read) <- r.init)
    (Circuit.registers c);
  let mems =
    Array.map
      (fun (m : Circuit.memory) -> Array.make m.depth (Bits.zero m.mem_width))
      (Circuit.memories c)
  in
  {
    c;
    values;
    mems;
    order = Circuit.eval_order c;
    cycles = 0;
    forced_flag = Array.make (max (Circuit.max_id c) 1) false;
    forced = Hashtbl.create 8;
    track_mem = false;
    dirty = Array.map (fun _ -> Hashtbl.create 16) mems;
  }

let override t id v =
  match Hashtbl.find_opt t.forced id with
  | None -> v
  | Some (m, mv) -> Bits.logor (Bits.logand v (Bits.lognot m)) mv

let poke t id v =
  let n = Circuit.node t.c id in
  (match n.Circuit.kind with
   | Circuit.Input -> ()
   | _ -> invalid_arg (Printf.sprintf "Reference.poke: %S is not an input" n.Circuit.name));
  if Bits.width v <> n.Circuit.width then
    invalid_arg
      (Printf.sprintf "Reference.poke: %S has width %d, value %d" n.Circuit.name
         n.Circuit.width (Bits.width v));
  t.values.(id) <- (if t.forced_flag.(id) then override t id v else v)

let peek t id =
  ignore (Circuit.node t.c id);
  t.values.(id)

let eval_node t id =
  let n = Circuit.node t.c id in
  (match n.Circuit.kind with
  | Circuit.Logic | Circuit.Reg_next _ ->
    (match n.Circuit.expr with
     | Some e -> t.values.(id) <- Expr.eval (fun v -> t.values.(v)) e
     | None -> assert false)
  | Circuit.Mem_read i ->
    let p = Circuit.read_port t.c i in
    let m = Circuit.memory t.c p.Circuit.r_mem in
    let enabled =
      match p.Circuit.r_en with Some en -> not (Bits.is_zero t.values.(en)) | None -> true
    in
    let addr = Bits.to_int_trunc t.values.(p.Circuit.r_addr) in
    t.values.(id) <-
      (if enabled && addr < m.Circuit.depth then t.mems.(p.Circuit.r_mem).(addr)
       else Bits.zero m.Circuit.mem_width)
  | Circuit.Input | Circuit.Reg_read _ -> assert false);
  if t.forced_flag.(id) then t.values.(id) <- override t id t.values.(id)

let eval_comb t = Array.iter (eval_node t) t.order

let store t mi addr v =
  t.mems.(mi).(addr) <- v;
  if t.track_mem then Hashtbl.replace t.dirty.(mi) addr ()

let commit t =
  (* Memory writes read this cycle's node values; they become visible next
     cycle because reads already happened during [eval_comb]. *)
  Array.iteri
    (fun mi (m : Circuit.memory) ->
      List.iter
        (fun (w : Circuit.write_port) ->
          if not (Bits.is_zero t.values.(w.w_en)) then begin
            let addr = Bits.to_int_trunc t.values.(w.w_addr) in
            if addr < m.depth then store t mi addr t.values.(w.w_data)
          end)
        m.write_ports)
    (Circuit.memories t.c);
  List.iter
    (fun (r : Circuit.register) ->
      let v =
        match r.reset with
        | Some rst when rst.slow_path && not (Bits.is_zero t.values.(rst.reset_signal)) ->
          rst.reset_value
        | Some _ | None -> t.values.(r.next)
      in
      t.values.(r.read) <- (if t.forced_flag.(r.read) then override t r.read v else v))
    (Circuit.registers t.c)

let step t =
  eval_comb t;
  commit t;
  t.cycles <- t.cycles + 1

let run t n =
  for _ = 1 to n do
    step t
  done

let load_mem t mi contents =
  let m = Circuit.memory t.c mi in
  if Array.length contents > m.Circuit.depth then invalid_arg "Reference.load_mem: too long";
  Array.iteri
    (fun i v ->
      if Bits.width v <> m.Circuit.mem_width then invalid_arg "Reference.load_mem: width";
      store t mi i v)
    contents

let write_mem_word t mi addr v =
  let m = Circuit.memory t.c mi in
  if addr < 0 || addr >= m.Circuit.depth then invalid_arg "Reference.write_mem_word";
  if Bits.width v <> m.Circuit.mem_width then invalid_arg "Reference.write_mem_word: width";
  store t mi addr v

let take_dirty_mem t =
  (* Nothing is marked while the barrier is off: the first drain is [[]]. *)
  t.track_mem <- true;
  let out = ref [] in
  for mi = Array.length t.dirty - 1 downto 0 do
    let tbl = t.dirty.(mi) in
    if Hashtbl.length tbl > 0 then begin
      let words = Array.of_seq (Hashtbl.to_seq_keys tbl) in
      Array.sort compare words;
      Hashtbl.reset tbl;
      out := (mi, words) :: !out
    end
  done;
  !out

let read_mem t mi addr =
  let m = Circuit.memory t.c mi in
  if addr < 0 || addr >= m.Circuit.depth then invalid_arg "Reference.read_mem";
  t.mems.(mi).(addr)

let force_register t id v =
  match (Circuit.node t.c id).Circuit.kind with
  | Circuit.Reg_read _ ->
    if Bits.width v <> (Circuit.node t.c id).Circuit.width then
      invalid_arg "Reference.force_register: width";
    t.values.(id) <- (if t.forced_flag.(id) then override t id v else v)
  | _ -> invalid_arg "Reference.force_register: not a register read node"

let force t ?mask id v =
  let n = Circuit.node t.c id in
  let w = n.Circuit.width in
  if Bits.width v <> w then invalid_arg "Reference.force: width mismatch";
  let m =
    match mask with
    | None -> Bits.ones w
    | Some m ->
      if Bits.width m <> w then invalid_arg "Reference.force: mask width mismatch";
      m
  in
  t.forced_flag.(id) <- true;
  Hashtbl.replace t.forced id (m, Bits.logand v m);
  let cur = t.values.(id) in
  let nv = override t id cur in
  t.values.(id) <- nv;
  not (Bits.equal nv cur)

let release t id =
  ignore (Circuit.node t.c id);
  let was = t.forced_flag.(id) in
  t.forced_flag.(id) <- false;
  Hashtbl.remove t.forced id;
  was

let cycle_count t = t.cycles
