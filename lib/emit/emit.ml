module Bits = Gsim_bits.Bits
module Partition = Gsim_partition.Partition
open Gsim_ir

type mode = Full_cycle_mode | Essent_mode | Gsim_mode

type result = {
  source : string;
  emission_seconds : float;
  code_bytes : int;
  data_bytes : int;
  mem_bytes : int;
}

let mode_of_string = function
  | "full-cycle" | "verilator" | "arcilator" -> Some Full_cycle_mode
  | "essent" -> Some Essent_mode
  | "gsim" -> Some Gsim_mode
  | _ -> None

let bpf = Printf.bprintf

(* The artifact's own stores, after {!Emit_c.value_helpers}.  State lives
   in the layout the lowering reads: narrow values in tagged [long] slots
   [a[id]], wide values as raw limbs in [wf] at {!Emit_c.wide_offsets};
   memories hold raw limbs, one row of [GSIM_NLIMBS(width)] per address. *)
let store_helpers =
  {|#include <stdbool.h>

#define GSIM_TAG(v) ((long)(((uint64_t)(v) << 1) | 1))
#define GSIM_WF(off) ((uint64_t *)wf + (off))

/* Compare-store a narrow value; returns whether it changed. */
static inline int gsim_put(long *p, uint64_t v) {
  if (*p == GSIM_TAG(v)) return 0;
  *p = GSIM_TAG(v);
  return 1;
}
/* Compare-store n limbs; returns whether any changed. */
static inline int gsim_wput(uint64_t *p, const uint64_t *v, int n) {
  int ch = 0;
  for (int i = 0; i < n; i++)
    if (p[i] != v[i]) { p[i] = v[i]; ch = 1; }
  return ch;
}
/* Row ad of a memory of n-limb rows; zero when disabled or out of range. */
static inline void gsim_mread(uint64_t *r, int n, const uint64_t *m,
                              uint64_t ad, uint64_t depth, int en) {
  for (int i = 0; i < n; i++) r[i] = en && ad < depth ? m[ad * n + i] : 0;
}

|}

let header mode c =
  let port kind (n : Circuit.node) =
    Printf.sprintf " *   %s %s: id %d, %d bits\n" kind n.Circuit.name n.Circuit.id n.Circuit.width
  in
  Printf.sprintf
    "/* Generated by gsim: %s unit for design %s.\n\
    \ * gsim_poke(id, v) sets an input, gsim_peek(id, v) reads any node (v: 64-bit\n\
    \ * limbs, low first); gsim_cycle() runs gsim_eval() then gsim_commit().\n%s */\n"
    (match mode with
     | Full_cycle_mode -> "full-cycle"
     | Essent_mode -> "ESSENT-style"
     | Gsim_mode -> "GSIM-style")
    (Circuit.name c)
    (String.concat ""
       (List.map (port "input") (Circuit.inputs c) @ List.map (port "output") (Circuit.outputs c)))

let emit ?(mode = Full_cycle_mode) ?partition c =
  let t0 = Sys.time () in
  let part =
    match (mode, partition) with
    | Full_cycle_mode, _ -> None
    | _, Some p -> Some p
    | _, None -> Some (Partition.gsim c ~max_size:32)
  in
  (* With no evaluated node there is nothing to schedule. *)
  let part = Option.bind part (fun p -> if p.Partition.supernodes = [||] then None else Some p) in
  let nsuper = match part with Some p -> Array.length p.Partition.supernodes | None -> 0 in
  let nwords = (nsuper + 63) / 64 in
  let woff, wtotal = Emit_c.wide_offsets c in
  let width id = (Circuit.node c id).Circuit.width in
  let wide id = not (Bits.fits_int (width id)) in
  let nl id = Emit_c.nl (width id) in
  let succs = Circuit.successors c in
  let b = Buffer.create (64 * 1024) in
  (* Activation: the statements that wake the target supernodes. *)
  let wake ?exclude ids =
    match part with
    | None -> []
    | Some p ->
      let targets = Array.to_list (Partition.target_supers p ?exclude ids) in
      if mode = Essent_mode then List.map (Printf.sprintf "act[%d] = 1;") targets
      else
        List.fold_right
          (fun k acc ->
            let w = k / 64 and bit = Int64.shift_left 1L (k mod 64) in
            match acc with
            | (w', m) :: rest when w' = w -> (w, Int64.logor m bit) :: rest
            | _ -> (w, bit) :: acc)
          targets []
        |> List.map (fun (w, m) -> Printf.sprintf "actw[%d] |= 0x%Lxull;" w m)
  in
  (* A compare-store (a C condition, true on change) guarding activation. *)
  let stmt store acts =
    match acts with
    | [] -> bpf b "  %s;\n" store
    | [ act ] -> bpf b "  if (%s) %s\n" store act
    | acts -> bpf b "  if (%s) { %s }\n" store (String.concat " " acts)
  in
  let store id = function
    | Emit_c.N x -> Printf.sprintf "gsim_put(a + %d, %s)" id x
    | Emit_c.W t -> Printf.sprintf "gsim_wput(GSIM_WF(%d), %s, %d)" woff.(id) t (nl id)
  in
  (* Node [id] takes the value [lower ()] writes into a block of its own. *)
  let block id acts lower =
    Buffer.add_string b "  {\n";
    stmt (store id (lower ())) acts;
    Buffer.add_string b "  }\n"
  in
  let expr e () = Emit_c.emit_expr b ~param:string_of_int ~woff e in
  let value id = Printf.sprintf "(uint64_t)(a[%d] >> 1)" id in
  let nonzero id =
    if wide id then Printf.sprintf "!gsim_wiszero(GSIM_WF(%d), %d)" woff.(id) (nl id)
    else Printf.sprintf "(a[%d] >> 1)" id
  in
  (* [Bits.to_int_trunc]: the low 62 bits. *)
  let address id =
    if wide id then Printf.sprintf "(GSIM_WF(%d)[0] & GSIM_MASK(62))" woff.(id) else value id
  in
  let eval_node ~acts (nd : Circuit.node) =
    let id = nd.Circuit.id in
    match (nd.Circuit.kind, nd.Circuit.expr) with
    | (Circuit.Logic | Circuit.Reg_next _), Some e ->
      if not (Emit_c.compilable c nd) then
        invalid_arg
          (Printf.sprintf "Emit.emit: node %S has a subexpression outside 1..%d bits"
             nd.Circuit.name Emit_c.wide_max);
      block id acts (expr e)
    | Circuit.Mem_read pi, _ ->
      let p = Circuit.read_port c pi in
      block id acts (fun () ->
          bpf b "  uint64_t r[%d];\n  gsim_mread(r, %d, m%d, %s, %d, %s);\n" (nl id) (nl id)
            p.Circuit.r_mem (address p.Circuit.r_addr)
            (Circuit.memory c p.Circuit.r_mem).Circuit.depth
            (match p.Circuit.r_en with Some en -> nonzero en | None -> "1");
          if wide id then Emit_c.W "r" else Emit_c.N "r[0]")
    | _ -> invalid_arg "Emit.emit: not an evaluated node"
  in
  (* State: nonzero register initial values are the only nonzero cells (a
     zero narrow slot reads as 0, like a tagged one). *)
  let regs = Circuit.registers c in
  let wide_regs, narrow_regs = List.partition (fun (r : Circuit.register) -> wide r.read) regs in
  let init cells = match cells with [] -> "" | l -> " = { " ^ String.concat ", " l ^ " }" in
  bpf b "static long a[%d]%s;\n" (max (Circuit.max_id c) 1)
    (init
       (List.filter_map
          (fun (r : Circuit.register) ->
            match Bits.to_packed r.init with
            | 0 -> None
            | v -> Some (Printf.sprintf "[%d] = GSIM_TAG(%d)" r.read v))
          narrow_regs));
  bpf b "static long wf[%d]%s;\n" (max wtotal 1)
    (init
       (List.concat_map
          (fun (r : Circuit.register) ->
            List.init (nl r.read) (fun i -> (woff.(r.read) + i, Bits.limb64 r.init i))
            |> List.filter_map (fun (at, l) ->
                   if l = 0L then None
                   else Some (Printf.sprintf "[%d] = (long)UINT64_C(%Lu)" at l)))
          wide_regs));
  let mems = Circuit.memories c in
  Array.iteri
    (fun mi (m : Circuit.memory) ->
      bpf b "static uint64_t m%d[%d];\n" mi (m.Circuit.depth * Emit_c.nl m.Circuit.mem_width))
    mems;
  (match part with
   | None ->
     Buffer.add_string b "void gsim_eval(void) {\n";
     Array.iter (fun id -> eval_node ~acts:[] (Circuit.node c id)) (Circuit.eval_order c);
     Buffer.add_string b "}\n"
   | Some p ->
     (* Every supernode starts active. *)
     if mode = Gsim_mode then
       bpf b "static uint64_t actw[%d] = { %s };\n" nwords
         (String.concat ", "
            (List.init nwords (fun i ->
                 let bits = min 64 (nsuper - (64 * i)) in
                 if bits = 64 then "~0ull"
                 else Printf.sprintf "0x%Lxull" (Int64.pred (Int64.shift_left 1L bits)))))
     else bpf b "static bool act[%d] = { [0 ... %d] = 1 };\n" nsuper (nsuper - 1);
     Array.iteri
       (fun k members ->
         bpf b "static void eval_super%d(void) {\n" k;
         Array.iter
           (fun id -> eval_node ~acts:(wake ~exclude:k succs.(id)) (Circuit.node c id))
           members;
         Buffer.add_string b "}\n")
       p.Partition.supernodes;
     bpf b "static void (*const gsim_super[%d])(void) = { %s };\n" nsuper
       (String.concat ", " (List.init nsuper (Printf.sprintf "eval_super%d")));
     (* A single ascending sweep suffices: partitions are schedulable. *)
     if mode = Gsim_mode then
       bpf b
         "void gsim_eval(void) {\n\
         \  for (int w = 0; w < %d; w++)\n\
         \    while (actw[w]) {\n\
         \      int k = w * 64 + __builtin_ctzll(actw[w]);\n\
         \      actw[w] &= actw[w] - 1;\n\
         \      gsim_super[k]();\n\
         \    }\n\
          }\n"
         nwords
     else
       bpf b
         "void gsim_eval(void) {\n\
         \  for (int k = 0; k < %d; k++)\n\
         \    if (act[k]) { act[k] = 0; gsim_super[k](); }\n\
          }\n"
         nsuper);
  (* Commit, as the reference orders it: memory writes read this cycle's
     values, then registers latch, then slow-path resets override. *)
  Buffer.add_string b "void gsim_commit(void) {\n";
  Array.iteri
    (fun mi (m : Circuit.memory) ->
      let n = Emit_c.nl m.Circuit.mem_width in
      List.iter
        (fun (wp : Circuit.write_port) ->
          let ad = address wp.w_addr in
          let data =
            if wide wp.w_data then Printf.sprintf "GSIM_WF(%d)" woff.(wp.w_data)
            else Printf.sprintf "(uint64_t[]){ %s }" (value wp.w_data)
          in
          stmt
            (Printf.sprintf "%s && %s < %d && gsim_wput(m%d + %s * %d, %s, %d)" (nonzero wp.w_en)
               ad m.Circuit.depth mi ad n data n)
            (wake m.Circuit.read_port_ids))
        m.Circuit.write_ports)
    mems;
  List.iter
    (fun (r : Circuit.register) ->
      stmt
        (if wide r.read then
           Printf.sprintf "gsim_wput(GSIM_WF(%d), GSIM_WF(%d), %d)" woff.(r.read) woff.(r.next)
             (nl r.read)
         else Printf.sprintf "gsim_put(a + %d, a[%d] >> 1)" r.read r.next)
        (wake succs.(r.read)))
    regs;
  (* One test per reset signal. *)
  let resets =
    List.filter_map
      (fun (r : Circuit.register) ->
        match r.reset with
        | Some rst when rst.Circuit.slow_path -> Some (rst, r.read)
        | Some _ | None -> None)
      regs
  in
  List.sort_uniq compare (List.map (fun (rst, _) -> rst.Circuit.reset_signal) resets)
  |> List.iter (fun s ->
         bpf b "  if (%s) {\n" (nonzero s);
         List.iter
           (fun ((rst : Circuit.reset), id) ->
             if rst.reset_signal = s then
               block id (wake succs.(id)) (expr (Expr.const rst.reset_value)))
           resets;
         Buffer.add_string b "  }\n");
  Buffer.add_string b "}\n";
  (* Inputs wake their consumers. *)
  Buffer.add_string b "void gsim_poke(long id, const uint64_t *v) {\n  switch (id) {\n";
  List.iter
    (fun (n : Circuit.node) ->
      let id = n.Circuit.id and w = n.Circuit.width in
      bpf b "  case %d:\n" id;
      block id (wake succs.(id)) (fun () ->
          if wide id then begin
            bpf b "  uint64_t r[%d];\n  gsim_wresize(r, %d, %d, v, %d);\n" (nl id) (nl id) w
              (nl id);
            Emit_c.W "r"
          end
          else Emit_c.N (Printf.sprintf "v[0] & GSIM_MASK(%d)" w));
      Buffer.add_string b "  break;\n")
    (Circuit.inputs c);
  Buffer.add_string b "  }\n}\nvoid gsim_peek(long id, uint64_t *v) {\n  switch (id) {\n";
  Circuit.iter_nodes c (fun n ->
      let id = n.Circuit.id in
      if wide id then bpf b "  case %d: gsim_wload(v, %d, wf, %d); return;\n" id (nl id) woff.(id));
  Buffer.add_string b
    "  }\n\
    \  v[0] = (uint64_t)(a[id] >> 1);\n\
     }\n\
     void gsim_cycle(void) {\n\
    \  gsim_eval();\n\
    \  gsim_commit();\n\
     }\n";
  let body = Buffer.contents b in
  let data_bytes =
    (8 * (max (Circuit.max_id c) 1 + max wtotal 1))
    + match part with None -> 0 | Some _ when mode = Gsim_mode -> 8 * nwords | Some _ -> nsuper
  in
  let mem_bytes (m : Circuit.memory) = 8 * m.depth * Emit_c.nl m.mem_width in
  {
    source = header mode c ^ Emit_c.value_helpers ^ store_helpers ^ body;
    emission_seconds = Sys.time () -. t0;
    code_bytes = String.length body;
    data_bytes;
    mem_bytes = Array.fold_left (fun acc m -> acc + mem_bytes m) 0 mems;
  }
