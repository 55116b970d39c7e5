module Bits = Gsim_bits.Bits
open Gsim_ir

type t = {
  ck_cycle : int;
  inputs : (string * Bits.t) list;
  registers : (string * Bits.t) list;
  memories : (string * Bits.t array) list;
}

let cycle t = t.ck_cycle
let with_cycle t ck_cycle = { t with ck_cycle }

let format_version = 2

(* --- CRC32 (IEEE 802.3 / zlib polynomial) ------------------------------- *)

(* Eager on purpose: a [lazy] here is not safe to force from concurrent
   worker Domains (the loser of the race gets CamlinternalLazy.Undefined),
   and two workers spooling checkpoints at once do exactly that. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let table = crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let capture ?rt (sim : Sim.t) =
  let c = sim.Sim.circuit in
  let inputs =
    List.map
      (fun (n : Circuit.node) -> (n.Circuit.name, sim.Sim.peek n.Circuit.id))
      (Circuit.inputs c)
  in
  let registers =
    List.map
      (fun (r : Circuit.register) -> (r.Circuit.reg_name, sim.Sim.peek r.Circuit.read))
      (Circuit.registers c)
  in
  let snapshot =
    match rt with
    | Some rt -> fun mi _depth -> Runtime.snapshot_mem rt mi
    | None -> fun mi depth -> Array.init depth (sim.Sim.read_mem mi)
  in
  let memories =
    Array.to_list (Circuit.memories c)
    |> List.mapi (fun mi (m : Circuit.memory) ->
           (m.Circuit.mem_name, snapshot mi m.Circuit.depth))
  in
  {
    ck_cycle = (sim.Sim.counters ()).Counters.cycles;
    inputs;
    registers;
    memories;
  }

let restore (sim : Sim.t) t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let c = sim.Sim.circuit in
  List.iter
    (fun (name, v) ->
      match Circuit.find_node c name with
      | Some n ->
        if Bits.width v <> n.Circuit.width then
          fail "Checkpoint.restore: input %S is %d bit(s) wide in the checkpoint but %d in the design"
            name (Bits.width v) n.Circuit.width;
        sim.Sim.poke n.Circuit.id v
      | None -> fail "Checkpoint.restore: no input %S" name)
    t.inputs;
  let reg_by_name = Hashtbl.create 64 in
  List.iter
    (fun (r : Circuit.register) -> Hashtbl.replace reg_by_name r.Circuit.reg_name r)
    (Circuit.registers c);
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt reg_by_name name with
      | Some r ->
        let w = (Circuit.node c r.Circuit.read).Circuit.width in
        if Bits.width v <> w then
          fail "Checkpoint.restore: register %S is %d bit(s) wide in the checkpoint but %d in the design"
            name (Bits.width v) w;
        sim.Sim.write_reg r.Circuit.read v
      | None -> fail "Checkpoint.restore: no register %S" name)
    t.registers;
  let mems = Circuit.memories c in
  List.iter
    (fun (name, contents) ->
      let found = ref false in
      Array.iteri
        (fun mi (m : Circuit.memory) ->
          if m.Circuit.mem_name = name then begin
            found := true;
            if Array.length contents <> m.Circuit.depth then
              fail "Checkpoint.restore: memory %S has depth %d in the checkpoint but %d in the design"
                name (Array.length contents) m.Circuit.depth;
            Array.iteri
              (fun i v ->
                if Bits.width v <> m.Circuit.mem_width then
                  fail "Checkpoint.restore: memory %S word %d is %d bit(s) wide in the checkpoint but %d in the design"
                    name i (Bits.width v) m.Circuit.mem_width)
              contents;
            sim.Sim.load_mem mi contents
          end)
        mems;
      if not !found then fail "Checkpoint.restore: no memory %S" name)
    t.memories;
  sim.Sim.invalidate ()

(* --- Text format (version 2) --------------------------------------------
   ckpt 2
   cycle <n>
   input <name> <width>'h<hex>
   reg <name> <width>'h<hex>
   mem <name> <depth> <width>
   <hex> <hex> ...                (depth words, 16 per line)
   crc <crc32-of-everything-above, 8 hex digits>

   Version 1 files (no crc footer) still load.                            *)

let body_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "ckpt %d\n" format_version);
  Buffer.add_string buf (Printf.sprintf "cycle %d\n" t.ck_cycle);
  let value v = Format.asprintf "%a" Bits.pp v in
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "input %s %s\n" n (value v)))
    t.inputs;
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "reg %s %s\n" n (value v)))
    t.registers;
  List.iter
    (fun (n, contents) ->
      let width = if Array.length contents = 0 then 1 else Bits.width contents.(0) in
      Buffer.add_string buf
        (Printf.sprintf "mem %s %d %d\n" n (Array.length contents) width);
      Array.iteri
        (fun i v ->
          Buffer.add_string buf (Bits.to_hex_string v);
          Buffer.add_char buf (if (i + 1) mod 16 = 0 then '\n' else ' '))
        contents;
      if Array.length contents mod 16 <> 0 then Buffer.add_char buf '\n')
    t.memories;
  Buffer.contents buf

let to_string t =
  let body = body_string t in
  Printf.sprintf "%scrc %08x\n" body (crc32 body)

(* Splits off a trailing "crc <hex>" line; [None] when the last line is
   not a crc footer (a version-1 file, or a write torn before the
   footer). *)
let split_footer s =
  let len = String.length s in
  let e = ref len in
  while !e > 0 && (s.[!e - 1] = '\n' || s.[!e - 1] = ' ' || s.[!e - 1] = '\r') do
    decr e
  done;
  if !e = 0 then None
  else
    let line_start =
      match String.rindex_from_opt s (!e - 1) '\n' with Some i -> i + 1 | None -> 0
    in
    match String.split_on_char ' ' (String.sub s line_start (!e - line_start)) with
    | [ "crc"; hex ] when String.length hex = 8 -> (
      match int_of_string_opt ("0x" ^ hex) with
      | Some stored -> Some (String.sub s 0 line_start, stored)
      | None -> None)
    | _ -> None

(* Body parser shared by both versions.  In [lenient] mode a malformed or
   truncated trailing portion is dropped: every section completed before
   the first error is kept ("last complete section" semantics), so a file
   torn mid-write still yields the prefix that did reach the disk. *)
let parse_body ~lenient lines =
  let fail fmt = Printf.ksprintf failwith fmt in
  let cycle = ref 0 in
  let inputs = ref [] and registers = ref [] and memories = ref [] in
  let seen = Hashtbl.create 64 in
  let check_fresh kind name =
    if Hashtbl.mem seen (kind, name) then fail "checkpoint: duplicate %s %S" kind name;
    Hashtbl.replace seen (kind, name) ()
  in
  let value kind name v =
    match Bits.of_string v with
    | b -> b
    | exception Invalid_argument _ -> fail "checkpoint: bad value %S for %s %S" v kind name
  in
  let int_field what n =
    match int_of_string_opt n with
    | Some i -> i
    | None -> fail "checkpoint: bad %s %S" what n
  in
  let rec go = function
    | [] -> ()
    | line :: rest -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "cycle"; n ] ->
          cycle := int_field "cycle count" n;
          go rest
        | [ "input"; name; v ] ->
          check_fresh "input" name;
          inputs := (name, value "input" name v) :: !inputs;
          go rest
        | [ "reg"; name; v ] ->
          check_fresh "reg" name;
          registers := (name, value "reg" name v) :: !registers;
          go rest
        | [ "mem"; name; depth; width ] ->
          check_fresh "mem" name;
          let depth = int_field "memory depth" depth
          and width = int_field "memory width" width in
          if depth < 0 || width <= 0 then fail "checkpoint: bad geometry for memory %S" name;
          let words = Array.make depth (Bits.zero width) in
          let filled = ref 0 in
          let rec take = function
            | rest when !filled >= depth -> rest
            | [] -> fail "checkpoint: memory %S truncated (%d of %d words)" name !filled depth
            | line :: rest ->
              List.iter
                (fun tok ->
                  if tok <> "" then begin
                    if !filled >= depth then
                      fail "checkpoint: memory %S overflows its declared depth %d" name depth;
                    words.(!filled) <-
                      value "memory word of" name (Printf.sprintf "%d'h%s" width tok);
                    incr filled
                  end)
                (String.split_on_char ' ' (String.trim line));
              take rest
          in
          let rest = take rest in
          memories := (name, words) :: !memories;
          go rest
        | _ -> fail "checkpoint: bad line %S" line)
  in
  (try go lines with Failure _ when lenient -> ());
  {
    ck_cycle = !cycle;
    inputs = List.rev !inputs;
    registers = List.rev !registers;
    memories = List.rev !memories;
  }

let of_string ?(lenient = false) s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let lines = String.split_on_char '\n' s in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  match lines with
  | header :: rest when String.trim header = "ckpt 1" -> parse_body ~lenient rest
  | header :: rest when String.trim header = Printf.sprintf "ckpt %d" format_version ->
    let rest =
      (* Drop the footer from the line list; validate it against the raw
         prefix (whitespace included). *)
      match split_footer s with
      | Some (body, stored) ->
        let computed = crc32 body in
        if stored <> computed && not lenient then
          fail "checkpoint: CRC mismatch (stored %08x, computed %08x): corrupt or torn file"
            stored computed;
        List.filter
          (fun l ->
            match String.split_on_char ' ' (String.trim l) with
            | [ "crc"; _ ] -> false
            | _ -> true)
          rest
      | None ->
        if not lenient then
          fail "checkpoint: missing crc footer (file truncated before the final line)";
        rest
    in
    parse_body ~lenient rest
  | header :: _ -> fail "checkpoint: unsupported header %S (expected \"ckpt %d\")"
                     (String.trim header) format_version
  | [] -> fail "checkpoint: empty input"

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load ?lenient path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string ?lenient s

let equal a b =
  a.inputs = b.inputs && a.registers = b.registers
  && List.length a.memories = List.length b.memories
  && List.for_all2
       (fun (n1, c1) (n2, c2) -> n1 = n2 && Array.for_all2 Bits.equal c1 c2)
       a.memories b.memories

(* --- Architectural diff -------------------------------------------------- *)

let diff a b =
  let out = ref [] in
  let value v = Format.asprintf "%a" Bits.pp v in
  let scalar_diff section xs ys =
    let ys_tbl = Hashtbl.create 64 in
    List.iter (fun (n, v) -> Hashtbl.replace ys_tbl n v) ys;
    List.iter
      (fun (n, v) ->
        match Hashtbl.find_opt ys_tbl n with
        | Some v' ->
          Hashtbl.remove ys_tbl n;
          if not (Bits.equal v v') then out := (n, value v, value v') :: !out
        | None -> out := (n, value v, "<absent>") :: !out)
      xs;
    List.iter
      (fun (n, _) ->
        if Hashtbl.mem ys_tbl n then
          out := (n, "<absent>", value (Hashtbl.find ys_tbl n)) :: !out)
      ys;
    ignore section
  in
  scalar_diff "input" a.inputs b.inputs;
  scalar_diff "reg" a.registers b.registers;
  let b_mems = Hashtbl.create 8 in
  List.iter (fun (n, c) -> Hashtbl.replace b_mems n c) b.memories;
  List.iter
    (fun (n, c) ->
      match Hashtbl.find_opt b_mems n with
      | Some c' when Array.length c = Array.length c' ->
        Array.iteri
          (fun i v ->
            if not (Bits.equal v c'.(i)) then
              out := (Printf.sprintf "%s[%d]" n i, value v, value c'.(i)) :: !out)
          c
      | Some _ -> out := (n, "<depth-mismatch>", "<depth-mismatch>") :: !out
      | None -> out := (n, "<present>", "<absent>") :: !out)
    a.memories;
  List.rev !out

(* --- Delta checkpoints ----------------------------------------------------

   A delta records only the state that changed since a {e base} generation:
   scalars that differ plus sparse memory words.  Applied in order on top
   of a full keyframe, a chain of deltas reconstructs the newest state at a
   fraction of the write cost — a keyframe serializes every memory word,
   a delta a handful.  Each delta pins its base by (cycle, CRC32 of the
   base file's raw bytes), so a recovery walk can prove every link of the
   chain intact before applying anything.  Deltas parse strictly — there
   is no lenient mode, because a partially-applied delta would silently
   reconstruct wrong state; a torn delta is a broken link and recovery
   falls back to an older generation (see {!Gsim_resilience.Store}). *)

type delta = {
  d_cycle : int;
  d_base_cycle : int;
  d_base_crc : int;  (* CRC32 of the base generation's raw file bytes *)
  d_inputs : (string * Bits.t) list;
  d_registers : (string * Bits.t) list;
  d_mem_words : (string * int * (int * Bits.t) array) list;  (* name, width, words *)
}

let delta_cycle d = d.d_cycle
let delta_base d = (d.d_base_cycle, d.d_base_crc)

let delta_size d =
  List.length d.d_inputs + List.length d.d_registers
  + List.fold_left (fun acc (_, _, ws) -> acc + Array.length ws) 0 d.d_mem_words

let scalar_changes base cur =
  let by_name = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace by_name n v) base;
  List.filter
    (fun (n, v) ->
      match Hashtbl.find_opt by_name n with
      | Some bv -> not (Bits.equal bv v)
      | None -> true)
    cur

let capture_delta (sim : Sim.t) ~cycle ~dirty ~base ~base_crc =
  let c = sim.Sim.circuit in
  let inputs =
    List.map
      (fun (n : Circuit.node) -> (n.Circuit.name, sim.Sim.peek n.Circuit.id))
      (Circuit.inputs c)
  in
  let registers =
    List.map
      (fun (r : Circuit.register) -> (r.Circuit.reg_name, sim.Sim.peek r.Circuit.read))
      (Circuit.registers c)
  in
  let mem_words =
    List.filter_map
      (fun (mi, words) ->
        if Array.length words = 0 then None
        else
          let m = Circuit.memory c mi in
          Some
            ( m.Circuit.mem_name,
              m.Circuit.mem_width,
              Array.map (fun a -> (a, sim.Sim.read_mem mi a)) words ))
      dirty
  in
  {
    d_cycle = cycle;
    d_base_cycle = base.ck_cycle;
    d_base_crc = base_crc;
    d_inputs = scalar_changes base.inputs inputs;
    d_registers = scalar_changes base.registers registers;
    d_mem_words = mem_words;
  }

(* Compare-based delta: no dirty set needed, costs one pass over every
   memory word (the daemon's preemption spooling uses this — engine
   instances do not survive a yield, so there is no live tracker). *)
let delta_of ~base ~base_crc cur =
  let mem_words =
    List.filter_map
      (fun (name, contents) ->
        match List.assoc_opt name base.memories with
        | Some bc when Array.length bc = Array.length contents ->
          let ws = ref [] in
          for i = Array.length contents - 1 downto 0 do
            if not (Bits.equal contents.(i) bc.(i)) then
              ws := (i, contents.(i)) :: !ws
          done;
          if !ws = [] then None
          else
            let width =
              if Array.length contents = 0 then 1 else Bits.width contents.(0)
            in
            Some (name, width, Array.of_list !ws)
        | _ ->
          failwith
            (Printf.sprintf
               "Checkpoint.delta_of: memory %S absent or resized in the base" name))
      cur.memories
  in
  {
    d_cycle = cur.ck_cycle;
    d_base_cycle = base.ck_cycle;
    d_base_crc = base_crc;
    d_inputs = scalar_changes base.inputs cur.inputs;
    d_registers = scalar_changes base.registers cur.registers;
    d_mem_words = mem_words;
  }

let apply_delta base d =
  let fail fmt = Printf.ksprintf failwith fmt in
  if d.d_base_cycle <> base.ck_cycle then
    fail "Checkpoint.apply_delta: delta for base cycle %d applied to cycle %d"
      d.d_base_cycle base.ck_cycle;
  let patch_scalars kind olds news =
    let by_name = Hashtbl.create 16 in
    List.iter (fun (n, v) -> Hashtbl.replace by_name n v) news;
    let patched =
      List.map
        (fun (n, v) ->
          match Hashtbl.find_opt by_name n with
          | Some nv ->
            Hashtbl.remove by_name n;
            (n, nv)
          | None -> (n, v))
        olds
    in
    Hashtbl.iter (fun n _ -> fail "Checkpoint.apply_delta: unknown %s %S" kind n) by_name;
    patched
  in
  let memories =
    if d.d_mem_words = [] then base.memories
    else begin
      let touched = Hashtbl.create 8 in
      List.iter (fun (n, w, ws) -> Hashtbl.replace touched n (w, ws)) d.d_mem_words;
      let patched =
        List.map
          (fun (n, contents) ->
            match Hashtbl.find_opt touched n with
            | None -> (n, contents)
            | Some (_, ws) ->
              Hashtbl.remove touched n;
              let copy = Array.copy contents in
              Array.iter
                (fun (i, v) ->
                  if i < 0 || i >= Array.length copy then
                    fail "Checkpoint.apply_delta: memory %S word %d out of range" n i;
                  copy.(i) <- v)
                ws;
              (n, copy))
          base.memories
      in
      Hashtbl.iter (fun n _ -> fail "Checkpoint.apply_delta: unknown memory %S" n) touched;
      patched
    end
  in
  {
    ck_cycle = d.d_cycle;
    inputs = patch_scalars "input" base.inputs d.d_inputs;
    registers = patch_scalars "register" base.registers d.d_registers;
    memories;
  }

(* Sparse in-place restore: bring a sim {e already sitting at the delta's
   base state} to the delta's state by writing only what changed.  The
   base link is NOT checked — the caller vouches for it (the shadow
   fast path moves its live fallback from one verified anchor to the
   next window start this way, skipping a full-state restore). *)
let restore_delta (sim : Sim.t) d =
  let fail fmt = Printf.ksprintf failwith fmt in
  let c = sim.Sim.circuit in
  List.iter
    (fun (name, v) ->
      match Circuit.find_node c name with
      | Some n -> sim.Sim.poke n.Circuit.id v
      | None -> fail "Checkpoint.restore_delta: no input %S" name)
    d.d_inputs;
  (if d.d_registers <> [] then
     let reg_by_name = Hashtbl.create 64 in
     List.iter
       (fun (r : Circuit.register) -> Hashtbl.replace reg_by_name r.Circuit.reg_name r)
       (Circuit.registers c);
     List.iter
       (fun (name, v) ->
         match Hashtbl.find_opt reg_by_name name with
         | Some (r : Circuit.register) -> sim.Sim.write_reg r.Circuit.read v
         | None -> fail "Checkpoint.restore_delta: no register %S" name)
       d.d_registers);
  List.iter
    (fun (name, _, ws) ->
      let mems = Circuit.memories c in
      let mi = ref (-1) in
      Array.iteri (fun i (m : Circuit.memory) -> if m.Circuit.mem_name = name then mi := i) mems;
      if !mi < 0 then fail "Checkpoint.restore_delta: no memory %S" name;
      Array.iter (fun (a, v) -> sim.Sim.write_mem !mi a v) ws)
    d.d_mem_words;
  sim.Sim.invalidate ()

(* --- Delta text format (version 1) ---------------------------------------
   dckpt 1
   cycle <n>
   base <base-cycle> <base-file-crc32, 8 hex digits>
   input <name> <width>'h<hex>
   reg <name> <width>'h<hex>
   dmem <name> <count> <width>
   <index>:<hex> <index>:<hex> ...  (count words, 8 per line)
   crc <crc32-of-everything-above, 8 hex digits>                          *)

let delta_format_version = 1

let delta_to_string d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "dckpt %d\n" delta_format_version);
  Buffer.add_string buf (Printf.sprintf "cycle %d\n" d.d_cycle);
  Buffer.add_string buf (Printf.sprintf "base %d %08x\n" d.d_base_cycle d.d_base_crc);
  let value v = Format.asprintf "%a" Bits.pp v in
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "input %s %s\n" n (value v)))
    d.d_inputs;
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "reg %s %s\n" n (value v)))
    d.d_registers;
  List.iter
    (fun (n, width, ws) ->
      Buffer.add_string buf
        (Printf.sprintf "dmem %s %d %d\n" n (Array.length ws) width);
      Array.iteri
        (fun k (i, v) ->
          Buffer.add_string buf (string_of_int i);
          Buffer.add_char buf ':';
          Buffer.add_string buf (Bits.to_hex_string v);
          Buffer.add_char buf (if (k + 1) mod 8 = 0 then '\n' else ' '))
        ws;
      if Array.length ws mod 8 <> 0 then Buffer.add_char buf '\n')
    d.d_mem_words;
  let body = Buffer.contents buf in
  Printf.sprintf "%scrc %08x\n" body (crc32 body)

let delta_of_string s =
  let fail fmt = Printf.ksprintf failwith fmt in
  (match split_footer s with
   | Some (body, stored) ->
     let computed = crc32 body in
     if stored <> computed then
       fail "delta: CRC mismatch (stored %08x, computed %08x): corrupt or torn file"
         stored computed
   | None -> fail "delta: missing crc footer (file truncated before the final line)");
  let lines = String.split_on_char '\n' s in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let cycle = ref 0 and base = ref None in
  let inputs = ref [] and registers = ref [] and mems = ref [] in
  let int_field what n =
    match int_of_string_opt n with
    | Some i -> i
    | None -> fail "delta: bad %s %S" what n
  in
  let value kind name v =
    match Bits.of_string v with
    | b -> b
    | exception Invalid_argument _ -> fail "delta: bad value %S for %s %S" v kind name
  in
  let rec go = function
    | [] -> ()
    | line :: rest -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "cycle"; n ] ->
          cycle := int_field "cycle count" n;
          go rest
        | [ "base"; bc; crc ] ->
          let crc =
            match int_of_string_opt ("0x" ^ crc) with
            | Some c when String.length crc = 8 -> c
            | _ -> fail "delta: bad base crc %S" crc
          in
          base := Some (int_field "base cycle" bc, crc);
          go rest
        | [ "input"; name; v ] ->
          inputs := (name, value "input" name v) :: !inputs;
          go rest
        | [ "reg"; name; v ] ->
          registers := (name, value "reg" name v) :: !registers;
          go rest
        | [ "dmem"; name; count; width ] ->
          let count = int_field "word count" count
          and width = int_field "memory width" width in
          if count < 0 || width <= 0 then fail "delta: bad geometry for memory %S" name;
          let words = Array.make count (0, Bits.zero width) in
          let filled = ref 0 in
          let rec take = function
            | rest when !filled >= count -> rest
            | [] -> fail "delta: memory %S truncated (%d of %d words)" name !filled count
            | line :: rest ->
              List.iter
                (fun tok ->
                  if tok <> "" then begin
                    if !filled >= count then
                      fail "delta: memory %S overflows its declared count %d" name count;
                    match String.index_opt tok ':' with
                    | Some j ->
                      let idx = int_field "word index" (String.sub tok 0 j) in
                      let hex = String.sub tok (j + 1) (String.length tok - j - 1) in
                      words.(!filled) <-
                        (idx, value "memory word of" name (Printf.sprintf "%d'h%s" width hex));
                      incr filled
                    | None -> fail "delta: bad word %S in memory %S" tok name
                  end)
                (String.split_on_char ' ' (String.trim line));
              take rest
          in
          let rest = take rest in
          mems := (name, width, words) :: !mems;
          go rest
        | [ "crc"; _ ] -> go rest
        | _ -> fail "delta: bad line %S" line)
  in
  (match lines with
   | header :: rest when String.trim header = Printf.sprintf "dckpt %d" delta_format_version ->
     go rest
   | header :: _ ->
     fail "delta: unsupported header %S (expected \"dckpt %d\")" (String.trim header)
       delta_format_version
   | [] -> fail "delta: empty input");
  match !base with
  | None -> fail "delta: missing base line"
  | Some (d_base_cycle, d_base_crc) ->
    {
      d_cycle = !cycle;
      d_base_cycle;
      d_base_crc;
      d_inputs = List.rev !inputs;
      d_registers = List.rev !registers;
      d_mem_words = List.rev !mems;
    }

let load_delta path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  delta_of_string s
