module Circuit = Gsim_ir.Circuit

type estimate = {
  est_nodes : int;
  est_max_width : int;
  est_mem_bytes : int;
  est_arena_bytes : int;
  est_native_nodes : int;
}

type budgets = {
  max_nodes : int;
  max_width : int;
  max_mem_bytes : int;
  max_arena_bytes : int;
  max_native_nodes : int;
}

let unlimited =
  { max_nodes = 0; max_width = 0; max_mem_bytes = 0; max_arena_bytes = 0;
    max_native_nodes = 0 }

let limited b = b <> unlimited

(* One pass over the elaborated circuit, before the pass pipeline or any
   engine construction.  The arena estimate mirrors the runtime layout:
   every node owns one 8-byte narrow slot; a wide node (width > 62)
   additionally owns its boxed limbs plus a mirrored slice of the flat
   limb arena the native backend mutates in place.  Memory bytes count
   the backing arrays at limb granularity.  All of these are upper
   bounds on the *unoptimized* graph — passes only shrink it. *)
let estimate c =
  let limb_bytes w = (w + 63) / 64 * 8 in
  let nodes, max_width, wide_bytes, native_nodes =
    Circuit.fold_nodes c ~init:(0, 0, 0, 0) ~f:(fun (n, mw, wb, nn) nd ->
        let w = nd.Circuit.width in
        let wb = if w > 62 then wb + (2 * limb_bytes w) else wb in
        let nn =
          match nd.Circuit.kind with
          | Circuit.Logic | Circuit.Reg_next _ when w <= 62 -> nn + 1
          | _ -> nn
        in
        (n + 1, max mw w, wb, nn))
  in
  let mem_bytes =
    Array.fold_left
      (fun acc (m : Circuit.memory) -> acc + (m.Circuit.depth * limb_bytes m.Circuit.mem_width))
      0 (Circuit.memories c)
  in
  {
    est_nodes = nodes;
    est_max_width = max_width;
    est_mem_bytes = mem_bytes;
    est_arena_bytes = (nodes * 8) + wide_bytes + mem_bytes;
    est_native_nodes = native_nodes;
  }

let mib n = float_of_int n /. (1024. *. 1024.)

let check b e =
  let over what value limit unit_ =
    Error
      (Printf.sprintf "%s %s exceeds the daemon budget %s" what (unit_ value)
         (unit_ limit))
  in
  let count v = string_of_int v in
  let bytes v = Printf.sprintf "%.1f MiB" (mib v) in
  if b.max_nodes > 0 && e.est_nodes > b.max_nodes then
    over "node count" e.est_nodes b.max_nodes count
  else if b.max_width > 0 && e.est_max_width > b.max_width then
    over "max node width" e.est_max_width b.max_width count
  else if b.max_mem_bytes > 0 && e.est_mem_bytes > b.max_mem_bytes then
    over "memory-array footprint" e.est_mem_bytes b.max_mem_bytes bytes
  else if b.max_arena_bytes > 0 && e.est_arena_bytes > b.max_arena_bytes then
    over "estimated arena" e.est_arena_bytes b.max_arena_bytes bytes
  else if b.max_native_nodes > 0 && e.est_native_nodes > b.max_native_nodes then
    over "native-compile estimate" e.est_native_nodes b.max_native_nodes count
  else Ok ()

(* --- Spec parsing --------------------------------------------------------
   "nodes=200000,width=4096,mem-mb=512,arena-mb=1024,native-nodes=50000";
   0 (or an absent key) leaves that limit unenforced. *)

let budgets_of_string text =
  let nonneg key v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> failwith (Printf.sprintf "budget: %s wants a non-negative integer, got %S" key v)
  in
  String.split_on_char ',' text
  |> List.filter (fun kv -> String.trim kv <> "")
  |> List.fold_left
       (fun b kv ->
         match String.index_opt kv '=' with
         | None -> failwith (Printf.sprintf "budget: expected key=value, got %S" kv)
         | Some i -> (
           let key = String.trim (String.sub kv 0 i) in
           let v = String.sub kv (i + 1) (String.length kv - i - 1) in
           match key with
           | "nodes" -> { b with max_nodes = nonneg key v }
           | "width" -> { b with max_width = nonneg key v }
           | "mem-mb" -> { b with max_mem_bytes = nonneg key v * 1024 * 1024 }
           | "arena-mb" -> { b with max_arena_bytes = nonneg key v * 1024 * 1024 }
           | "native-nodes" -> { b with max_native_nodes = nonneg key v }
           | _ ->
             failwith
               (Printf.sprintf
                  "budget: unknown key %S (nodes, width, mem-mb, arena-mb, native-nodes)"
                  key)))
       unlimited

let budgets_to_string b =
  let parts = ref [] in
  let add key v = if v > 0 then parts := Printf.sprintf "%s=%d" key v :: !parts in
  add "native-nodes" b.max_native_nodes;
  add "arena-mb" (b.max_arena_bytes / (1024 * 1024));
  add "mem-mb" (b.max_mem_bytes / (1024 * 1024));
  add "width" b.max_width;
  add "nodes" b.max_nodes;
  if !parts = [] then "unlimited" else String.concat "," !parts

(* A design the frontend rejects is admitted: the worker owns the
   diagnostic, and estimation must never change failure semantics. *)
let check_request budgets memo req =
  if not (limited budgets) then None
  else
    match (Protocol.request_design req, Protocol.request_filename req) with
    | Some design, Some filename -> (
      let key = Digest.to_hex (Digest.string (filename ^ "\x00" ^ design)) in
      let est =
        match Plan_cache.find memo key with
        | Some e -> Some e
        | None -> (
          match Gsim_core.Gsim.Compile.source_of_string ~filename design with
          | src ->
            let e = estimate src.Gsim_core.Gsim.Compile.circuit in
            Plan_cache.add memo key e;
            Some e
          | exception _ -> None)
      in
      match est with
      | None -> None
      | Some e -> ( match check budgets e with Ok () -> None | Error why -> Some why))
    | _ -> None
