module Bits = Gsim_bits.Bits

type kind =
  | Input
  | Logic
  | Reg_read of int
  | Reg_next of int
  | Mem_read of int

type node = {
  id : int;
  mutable name : string;
  mutable width : int;
  mutable kind : kind;
  mutable expr : Expr.t option;
  mutable is_output : bool;
}

type reset = {
  reset_signal : int;
  reset_value : Bits.t;
  mutable slow_path : bool;
}

type register = {
  reg_name : string;
  read : int;
  next : int;
  init : Bits.t;
  mutable reset : reset option;
  mutable dead : bool;
}

type write_port = { w_addr : int; w_data : int; w_en : int }

type read_port = { r_mem : int; r_data : int; r_addr : int; r_en : int option }

type memory = {
  mem_name : string;
  mem_width : int;
  depth : int;
  mutable write_ports : write_port list;
  mutable read_port_ids : int list;
}

type t = {
  circuit_name : string;
  mutable nodes : node option array;
  mutable len : int;
  mutable regs : register array;
  mutable nregs : int;
  mutable mems : memory array;
  mutable nmems : int;
  mutable ports : read_port array;
  mutable nports : int;
  mutable name_counter : int;
}

exception Combinational_cycle of int list

let create ?(name = "circuit") () =
  {
    circuit_name = name;
    nodes = Array.make 64 None;
    len = 0;
    regs = [||];
    nregs = 0;
    mems = [||];
    nmems = 0;
    ports = [||];
    nports = 0;
    name_counter = 0;
  }

let name c = c.circuit_name

let grow arr len dummy =
  if len < Array.length arr then arr
  else begin
    let arr' = Array.make (max 64 (2 * Array.length arr)) dummy in
    Array.blit arr 0 arr' 0 (Array.length arr);
    arr'
  end

let alloc_node c ~name ~width ~kind ~expr =
  if width < 1 then invalid_arg (Printf.sprintf "Circuit: node %S has width %d" name width);
  c.nodes <- grow c.nodes c.len None;
  let n = { id = c.len; name; width; kind; expr; is_output = false } in
  c.nodes.(c.len) <- Some n;
  c.len <- c.len + 1;
  n

let node_opt c id = if id < 0 || id >= c.len then None else c.nodes.(id)

let node c id =
  match node_opt c id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Circuit.node: no node %d" id)

let max_id c = c.len

let iter_nodes c f =
  for i = 0 to c.len - 1 do
    match c.nodes.(i) with Some n -> f n | None -> ()
  done

let fold_nodes c ~init ~f =
  let acc = ref init in
  iter_nodes c (fun n -> acc := f !acc n);
  !acc

let node_count c = fold_nodes c ~init:0 ~f:(fun acc _ -> acc + 1)

let registers c = Array.to_list (Array.sub c.regs 0 c.nregs)
  |> List.filter (fun r -> not r.dead)

let memories c = Array.sub c.mems 0 c.nmems

let memory c i =
  if i < 0 || i >= c.nmems then invalid_arg "Circuit.memory";
  c.mems.(i)

let read_port c i =
  if i < 0 || i >= c.nports then invalid_arg "Circuit.read_port";
  c.ports.(i)

let inputs c =
  fold_nodes c ~init:[] ~f:(fun acc n -> match n.kind with Input -> n :: acc | _ -> acc)
  |> List.rev

let outputs c =
  fold_nodes c ~init:[] ~f:(fun acc n -> if n.is_output then n :: acc else acc) |> List.rev

let register_of_node c id =
  match (node c id).kind with
  | Reg_read i | Reg_next i -> Some c.regs.(i)
  | Input | Logic | Mem_read _ -> None

let find_node c nm =
  let found = ref None in
  iter_nodes c (fun n -> if !found = None && n.name = nm then found := Some n);
  !found

let fresh_name c base =
  c.name_counter <- c.name_counter + 1;
  Printf.sprintf "%s$%d" base c.name_counter

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let add_input c ~name ~width = alloc_node c ~name ~width ~kind:Input ~expr:None

let add_logic c ~name e =
  alloc_node c ~name ~width:(Expr.width e) ~kind:Logic ~expr:(Some e)

let dummy_reg =
  { reg_name = ""; read = -1; next = -1; init = Bits.zero 1; reset = None; dead = true }

let add_register c ~name ~width ~init ?reset () =
  if Bits.width init <> width then invalid_arg "Circuit.add_register: init width mismatch";
  let idx = c.nregs in
  let read = alloc_node c ~name ~width ~kind:(Reg_read idx) ~expr:None in
  let next = alloc_node c ~name:(name ^ "$next") ~width ~kind:(Reg_next idx) ~expr:None in
  let reset =
    match reset with
    | None -> None
    | Some (signal, value) ->
      if Bits.width value <> width then
        invalid_arg "Circuit.add_register: reset value width mismatch";
      Some { reset_signal = signal; reset_value = value; slow_path = false }
  in
  let r = { reg_name = name; read = read.id; next = next.id; init; reset; dead = false } in
  c.regs <- grow c.regs c.nregs dummy_reg;
  c.regs.(c.nregs) <- r;
  c.nregs <- c.nregs + 1;
  r

let set_next c r e =
  let nd = node c r.next in
  if Expr.width e <> nd.width then
    invalid_arg
      (Printf.sprintf "Circuit.set_next: register %S expects width %d, got %d" r.reg_name
         nd.width (Expr.width e));
  let e =
    match r.reset with
    | Some rst when not rst.slow_path ->
      let sel = Expr.var ~width:(node c rst.reset_signal).width rst.reset_signal in
      Expr.mux sel (Expr.const rst.reset_value) e
    | Some _ | None -> e
  in
  nd.expr <- Some e

let dummy_mem =
  { mem_name = ""; mem_width = 0; depth = 0; write_ports = []; read_port_ids = [] }

let add_memory c ~name ~width ~depth =
  if width < 1 || depth < 1 then invalid_arg "Circuit.add_memory";
  let m = { mem_name = name; mem_width = width; depth; write_ports = []; read_port_ids = [] } in
  c.mems <- grow c.mems c.nmems dummy_mem;
  c.mems.(c.nmems) <- m;
  c.nmems <- c.nmems + 1;
  c.nmems - 1

let dummy_port = { r_mem = -1; r_data = -1; r_addr = -1; r_en = None }

let add_read_port c ~mem ~name ~addr ?en () =
  let m = memory c mem in
  let idx = c.nports in
  let data = alloc_node c ~name ~width:m.mem_width ~kind:(Mem_read idx) ~expr:None in
  let port = { r_mem = mem; r_data = data.id; r_addr = addr; r_en = en } in
  c.ports <- grow c.ports c.nports dummy_port;
  c.ports.(c.nports) <- port;
  c.nports <- c.nports + 1;
  m.read_port_ids <- data.id :: m.read_port_ids;
  data

let add_write_port c ~mem ~addr ~data ~en =
  let m = memory c mem in
  let check id =
    match node_opt c id with
    | Some _ -> ()
    | None -> invalid_arg "Circuit.add_write_port: dangling node"
  in
  check addr; check data; check en;
  if (node c data).width <> m.mem_width then
    invalid_arg "Circuit.add_write_port: data width mismatch";
  m.write_ports <- { w_addr = addr; w_data = data; w_en = en } :: m.write_ports

let mark_output c id = (node c id).is_output <- true

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let set_expr c id e =
  let n = node c id in
  (match n.kind with
   | Logic | Reg_next _ -> ()
   | Input | Reg_read _ | Mem_read _ ->
     invalid_arg (Printf.sprintf "Circuit.set_expr: node %S carries no expression" n.name));
  if Expr.width e <> n.width then
    invalid_arg
      (Printf.sprintf "Circuit.set_expr: node %S has width %d, expression %d" n.name n.width
         (Expr.width e));
  n.expr <- Some e

let delete_node c id =
  match node_opt c id with
  | None -> ()
  | Some _ -> c.nodes.(id) <- None

let delete_register c r =
  r.dead <- true;
  delete_node c r.read;
  delete_node c r.next

let replace_uses c ~of_ ~with_ =
  let subst ~width v =
    if v = of_ then begin
      if Expr.width with_ <> width then
        invalid_arg "Circuit.replace_uses: width mismatch";
      with_
    end
    else Expr.var ~width v
  in
  iter_nodes c (fun n ->
      match n.expr with
      | Some e when Expr.depends_on e of_ -> n.expr <- Some (Expr.map_vars subst e)
      | Some _ | None -> ());
  let as_var () =
    match with_ with
    | { Expr.desc = Expr.Var v; _ } -> v
    | _ -> invalid_arg "Circuit.replace_uses: port operand needs a Var replacement"
  in
  let fix id = if id = of_ then as_var () else id in
  for i = 0 to c.nports - 1 do
    let p = c.ports.(i) in
    if p.r_addr = of_ || p.r_en = Some of_ then
      c.ports.(i) <-
        { p with r_addr = fix p.r_addr; r_en = Option.map fix p.r_en }
  done;
  for i = 0 to c.nmems - 1 do
    let m = c.mems.(i) in
    if List.exists (fun w -> w.w_addr = of_ || w.w_data = of_ || w.w_en = of_) m.write_ports
    then
      m.write_ports <-
        List.map
          (fun w -> { w_addr = fix w.w_addr; w_data = fix w.w_data; w_en = fix w.w_en })
          m.write_ports
  done;
  for i = 0 to c.nregs - 1 do
    let r = c.regs.(i) in
    match r.reset with
    | Some rst when rst.reset_signal = of_ ->
      r.reset <- Some { rst with reset_signal = as_var () }
    | Some _ | None -> ()
  done

let replace_read_port c i p' =
  if i < 0 || i >= c.nports then invalid_arg "Circuit.replace_read_port";
  let p = c.ports.(i) in
  if p'.r_mem <> p.r_mem || p'.r_data <> p.r_data then
    invalid_arg "Circuit.replace_read_port: memory and data node are fixed";
  c.ports.(i) <- p'

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let dependencies c id =
  let n = node c id in
  match n.kind with
  | Input | Reg_read _ -> []
  | Logic | Reg_next _ ->
    (match n.expr with Some e -> Expr.vars e | None -> [])
  | Mem_read i ->
    let p = read_port c i in
    (match p.r_en with Some en -> [ p.r_addr; en ] | None -> [ p.r_addr ])

let successors c =
  let succ = Array.make c.len [] in
  iter_nodes c (fun n ->
      List.iter (fun d -> succ.(d) <- n.id :: succ.(d)) (dependencies c n.id));
  Array.map List.rev succ

(* Kahn's algorithm over the evaluated nodes (those that read same-cycle
   values).  Inputs and register reads are sources and are excluded. *)
let eval_order c =
  let evaluated n =
    match n.kind with Logic | Reg_next _ | Mem_read _ -> true | Input | Reg_read _ -> false
  in
  let indeg = Array.make c.len 0 in
  let succ = Array.make c.len [] in
  iter_nodes c (fun n ->
      if evaluated n then
        List.iter
          (fun d ->
            match node_opt c d with
            | Some dn when evaluated dn ->
              indeg.(n.id) <- indeg.(n.id) + 1;
              succ.(d) <- n.id :: succ.(d)
            | Some _ -> ()
            | None ->
              failwith
                (Printf.sprintf "Circuit.eval_order: node %S references deleted node %d"
                   n.name d))
          (dependencies c n.id));
  let queue = Queue.create () in
  let total = ref 0 in
  iter_nodes c (fun n ->
      if evaluated n then begin
        incr total;
        if indeg.(n.id) = 0 then Queue.add n.id queue
      end);
  let order = Array.make !total 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order.(!k) <- id;
    incr k;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succ.(id)
  done;
  if !k <> !total then begin
    (* Extract one cycle among the leftover nodes for the error report. *)
    let in_cycle = Array.make c.len false in
    iter_nodes c (fun n -> if evaluated n && indeg.(n.id) > 0 then in_cycle.(n.id) <- true);
    let rec walk path id =
      if List.mem id path then List.rev (id :: path)
      else
        match List.find_opt (fun d -> d < c.len && in_cycle.(d)) (dependencies c id) with
        | Some d -> walk (id :: path) d
        | None -> List.rev (id :: path)
    in
    let start = ref (-1) in
    Array.iteri (fun i b -> if b && !start < 0 then start := i) in_cycle;
    raise (Combinational_cycle (walk [] !start))
  end;
  order

let check_acyclic c = ignore (eval_order c)

let cycle_diagnostic c ids =
  let name id =
    match node_opt c id with
    | Some n -> Printf.sprintf "%S" n.name
    | None -> Printf.sprintf "#%d" id
  in
  (* The witness walk may carry a tail before it enters the cycle and ends
     at the first revisited node; keep only the closed loop. *)
  let closed =
    match List.rev ids with
    | [] -> []
    | last :: _ ->
      let rec drop = function
        | x :: _ as l when x = last -> l
        | _ :: tl -> drop tl
        | [] -> []
      in
      drop ids
  in
  match closed with
  | [] -> "combinational cycle (empty witness)"
  | _ ->
    let n = List.length closed - 1 in
    Printf.sprintf "combinational cycle through %d node%s: %s" (max n 1)
      (if n <= 1 then "" else "s")
      (String.concat " -> " (List.map name closed))

let validate c =
  let fail fmt = Printf.ksprintf failwith fmt in
  iter_nodes c (fun n ->
      (match (n.kind, n.expr) with
       | (Logic | Reg_next _), None -> fail "node %S (%d) is missing its expression" n.name n.id
       | (Input | Reg_read _ | Mem_read _), Some _ ->
         fail "node %S (%d) must not carry an expression" n.name n.id
       | (Logic | Reg_next _), Some e ->
         if Expr.width e <> n.width then
           fail "node %S: expression width %d <> node width %d" n.name (Expr.width e) n.width
       | (Input | Reg_read _ | Mem_read _), None -> ());
      match n.expr with
      | None -> ()
      | Some e ->
        Expr.iter_vars
          (fun v ->
            match node_opt c v with
            | None -> fail "node %S references deleted node %d" n.name v
            | Some _ -> ())
          e);
  List.iter
    (fun r ->
      (match node_opt c r.read, node_opt c r.next with
       | Some _, Some _ -> ()
       | _ -> fail "register %S has deleted nodes" r.reg_name);
      match r.reset with
      | Some rst ->
        (match node_opt c rst.reset_signal with
         | Some s when s.width = 1 -> ()
         | Some _ -> fail "register %S: reset signal is not 1 bit" r.reg_name
         | None -> fail "register %S: reset signal deleted" r.reg_name)
      | None -> ())
    (registers c);
  Array.iter
    (fun m ->
      List.iter
        (fun w ->
          if node_opt c w.w_addr = None || node_opt c w.w_data = None
             || node_opt c w.w_en = None
          then fail "memory %S has a dangling write port" m.mem_name)
        m.write_ports)
    (memories c);
  for i = 0 to c.nports - 1 do
    let p = c.ports.(i) in
    match node_opt c p.r_data with
    | None -> () (* port orphaned by node deletion; compact drops it *)
    | Some _ ->
      if node_opt c p.r_addr = None then fail "read port %d: dangling address" i;
      (match p.r_en with
       | Some en when node_opt c en = None -> fail "read port %d: dangling enable" i
       | Some _ | None -> ())
  done;
  check_acyclic c

let copy c =
  {
    c with
    nodes = Array.map (Option.map (fun n -> { n with id = n.id })) c.nodes;
    regs =
      Array.map
        (fun r -> { r with reset = Option.map (fun rst -> { rst with slow_path = rst.slow_path }) r.reset })
        c.regs;
    mems =
      Array.map
        (fun m -> { m with write_ports = m.write_ports; read_port_ids = m.read_port_ids })
        c.mems;
    ports = Array.copy c.ports;
  }

(* Expression variables must be remapped through [map]; kind indices are
   rebuilt from scratch. *)
let compact c =
  let map = Array.make c.len (-1) in
  let fresh = ref 0 in
  iter_nodes c (fun n ->
      map.(n.id) <- !fresh;
      incr fresh);
  let remap id =
    if id < 0 || id >= c.len || map.(id) < 0 then
      failwith (Printf.sprintf "Circuit.compact: dangling reference to node %d" id)
    else map.(id)
  in
  let remap_expr e = Expr.map_vars (fun ~width v -> Expr.var ~width (remap v)) e in
  (* Rebuild registers (dropping dead ones) with new indices. *)
  let live_regs = registers c in
  let new_regs =
    List.mapi
      (fun _ r ->
        {
          r with
          read = remap r.read;
          next = remap r.next;
          reset =
            Option.map (fun rst -> { rst with reset_signal = remap rst.reset_signal }) r.reset;
        })
      live_regs
  in
  let reg_index = Hashtbl.create 16 in
  List.iteri (fun i r -> Hashtbl.replace reg_index r.read i) new_regs;
  (* Rebuild read ports from live Mem_read nodes; memory indices stay. *)
  let new_ports = ref [] in
  let nports = ref 0 in
  let port_index = Hashtbl.create 16 in
  iter_nodes c (fun n ->
      match n.kind with
      | Mem_read i ->
        let p = c.ports.(i) in
        new_ports :=
          { p with r_data = remap p.r_data; r_addr = remap p.r_addr; r_en = Option.map remap p.r_en }
          :: !new_ports;
        Hashtbl.replace port_index n.id !nports;
        incr nports
      | Input | Logic | Reg_read _ | Reg_next _ -> ());
  let new_ports = Array.of_list (List.rev !new_ports) in
  (* Rebuild nodes. *)
  let new_nodes = Array.make (max 64 !fresh) None in
  iter_nodes c (fun n ->
      let id = map.(n.id) in
      let kind =
        match n.kind with
        | Input -> Input
        | Logic -> Logic
        | Reg_read _ ->
          (match Hashtbl.find_opt reg_index id with
           | Some i -> Reg_read i
           | None -> failwith "Circuit.compact: register read without register")
        | Reg_next _ ->
          (* Find via the paired read node: scan new_regs. *)
          let rec find i = function
            | [] -> failwith "Circuit.compact: register next without register"
            | r :: tl -> if r.next = id then i else find (i + 1) tl
          in
          Reg_next (find 0 new_regs)
        | Mem_read _ -> Mem_read (Hashtbl.find port_index n.id)
      in
      new_nodes.(id) <-
        Some
          {
            id;
            name = n.name;
            width = n.width;
            kind;
            expr = Option.map remap_expr n.expr;
            is_output = n.is_output;
          });
  (* Memories: remap write ports and the read-port id lists. *)
  for i = 0 to c.nmems - 1 do
    let m = c.mems.(i) in
    m.write_ports <-
      List.map
        (fun w -> { w_addr = remap w.w_addr; w_data = remap w.w_data; w_en = remap w.w_en })
        m.write_ports;
    m.read_port_ids <-
      List.filter_map
        (fun id -> if map.(id) >= 0 then Some map.(id) else None)
        m.read_port_ids
  done;
  c.nodes <- new_nodes;
  c.len <- !fresh;
  c.regs <- Array.of_list new_regs;
  c.nregs <- List.length new_regs;
  c.ports <- new_ports;
  c.nports <- Array.length new_ports;
  map

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = { ir_nodes : int; ir_edges : int; registers_count : int; memories_count : int }

let stats c =
  let nodes = node_count c in
  let edges =
    fold_nodes c ~init:0 ~f:(fun acc n -> acc + List.length (dependencies c n.id))
  in
  let edges = edges + List.length (registers c) in
  {
    ir_nodes = nodes;
    ir_edges = edges;
    registers_count = List.length (registers c);
    memories_count = Array.length (memories c);
  }

let pp_stats fmt s =
  Format.fprintf fmt "nodes=%d edges=%d registers=%d memories=%d" s.ir_nodes s.ir_edges
    s.registers_count s.memories_count

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)
(* ------------------------------------------------------------------ *)

(* A prefix-free byte stream over the facts [Ir_text.to_string] prints:
   integers as LEB128 (bit pattern, so negative values terminate too),
   strings length-prefixed, every variant led by a tag. *)
let rec add_int buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_int buf (n lsr 7)
  end

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_bits buf b =
  let w = Bits.width b in
  add_int buf w;
  for i = 0 to Bits.nlimbs w - 1 do
    add_int buf (Bits.limb b i)
  done

let binop_tag : Expr.binop -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Div_signed -> 4
  | Rem -> 5 | Rem_signed -> 6 | And -> 7 | Or -> 8 | Xor -> 9 | Cat -> 10
  | Eq -> 11 | Neq -> 12 | Lt -> 13 | Leq -> 14 | Gt -> 15 | Geq -> 16
  | Lt_signed -> 17 | Leq_signed -> 18 | Gt_signed -> 19 | Geq_signed -> 20
  | Dshl -> 21 | Dshr -> 22 | Dshr_signed -> 23

let rec add_expr buf (e : Expr.t) =
  add_int buf e.width;
  match e.desc with
  | Const b -> add_int buf 0; add_bits buf b
  | Var v -> add_int buf 1; add_int buf v
  | Mux (s, a, b) -> add_int buf 2; add_expr buf s; add_expr buf a; add_expr buf b
  | Unop (op, a) ->
    (match op with
     | Not -> add_int buf 3
     | Neg -> add_int buf 4
     | Reduce_and -> add_int buf 5
     | Reduce_or -> add_int buf 6
     | Reduce_xor -> add_int buf 7
     | Shl_const n -> add_int buf 8; add_int buf n
     | Shr_const n -> add_int buf 9; add_int buf n
     | Extract (hi, lo) -> add_int buf 10; add_int buf hi; add_int buf lo
     | Pad_unsigned n -> add_int buf 11; add_int buf n
     | Pad_signed n -> add_int buf 12; add_int buf n);
    add_expr buf a
  | Binop (op, a, b) ->
    add_int buf (16 + binop_tag op);
    add_expr buf a;
    add_expr buf b

let add_opt buf = function
  | None -> add_int buf 0
  | Some n -> add_int buf 1; add_int buf n

(* Same sections, in the same order, as the text: memories, nodes,
   registers, then each memory's read and write ports. *)
let digest c =
  let buf = Buffer.create (64 * (c.len + 1)) in
  add_string buf "gsim-circuit-digest 1";
  add_string buf c.circuit_name;
  let mems = memories c in
  add_int buf (Array.length mems);
  Array.iter
    (fun m -> add_int buf m.mem_width; add_int buf m.depth; add_string buf m.mem_name)
    mems;
  add_int buf (node_count c);
  iter_nodes c (fun n ->
      add_int buf n.id;
      (match n.kind with
       | Input -> add_int buf 0
       | Logic -> add_int buf 1
       | Reg_read _ -> add_int buf 2
       | Reg_next _ -> add_int buf 3
       | Mem_read p -> add_int buf 4; add_int buf p);
      add_int buf n.width;
      add_string buf n.name;
      (match n.expr with None -> add_int buf 0 | Some e -> add_int buf 1; add_expr buf e);
      add_int buf (Bool.to_int n.is_output));
  let regs = registers c in
  add_int buf (List.length regs);
  List.iter
    (fun r ->
      add_int buf r.read;
      add_int buf r.next;
      add_bits buf r.init;
      (match r.reset with
       | None -> add_int buf 0
       | Some rst ->
         add_int buf (if rst.slow_path then 2 else 1);
         add_int buf rst.reset_signal;
         add_bits buf rst.reset_value);
      add_string buf r.reg_name)
    regs;
  Array.iteri
    (fun mem m ->
      List.iter
        (fun data ->
          match node_opt c data with
          | Some { kind = Mem_read p; _ } ->
            let port = read_port c p in
            add_int buf 1;
            add_int buf p;
            add_int buf port.r_mem;
            add_int buf port.r_data;
            add_int buf port.r_addr;
            add_opt buf port.r_en
          | Some _ | None -> ())
        (List.rev m.read_port_ids);
      List.iter
        (fun w ->
          add_int buf 2;
          add_int buf mem;
          add_int buf w.w_addr;
          add_int buf w.w_data;
          add_int buf w.w_en)
        (List.rev m.write_ports))
    mems;
  add_int buf 0;
  Digest.string (Buffer.contents buf)
