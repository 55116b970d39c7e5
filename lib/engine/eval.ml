open Gsim_ir

type backend = [ `Closures | `Native | `Auto ]

let default : backend = `Auto

let to_string = function
  | `Closures -> "closures"
  | `Native -> "native"
  | `Auto -> "auto"

let of_string = function
  | "closures" | "closure" -> Some `Closures
  | "native" -> Some `Native
  | "auto" -> Some `Auto
  | _ -> None

let names = "auto, native, or closures"

(* ------------------------------------------------------------------ *)
(* Backend selection                                                   *)
(* ------------------------------------------------------------------ *)

type selected = {
  native : Native.unit_t option;  (* [None] under closures *)
  cache : string;  (* "hit" / "miss" for native, "" otherwise *)
}

(* Native wins everywhere it compiles, but paying a cc invocation for a
   tiny circuit (unit tests, fuzz cases, stuCore fault campaigns that
   build thousands of short-lived engines) costs more wall clock than it
   ever returns.  On the optimized built-in designs {!circuit_size} is
   273-281 for stuCore and at least 5081 (Rocket, gsim preset) for
   Rocket, BOOM and XiangShan on every preset, so the threshold sits
   between them with a wide margin on both sides. *)
let native_threshold = 1024

let circuit_size c =
  Array.fold_left
    (fun acc id ->
      match (Circuit.node c id).Circuit.expr with
      | Some e -> acc + Expr.size e + 1
      | None -> acc + 1)
    0 (Circuit.eval_order c)

(* Fallback diagnostics are printed once per distinct message per
   process: campaign-style workloads construct thousands of engines. *)
let diag_printed : (string, unit) Hashtbl.t = Hashtbl.create 4

let diag msg =
  if not (Hashtbl.mem diag_printed msg) then begin
    Hashtbl.replace diag_printed msg ();
    prerr_endline msg
  end

let cache_of_origin = function
  | Native.Compiled -> "miss"
  | Native.Memo_hit | Native.Disk_hit -> "hit"

let closures = { native = None; cache = "" }

let native ?digest c =
  let digest = Option.map (fun f -> f ()) digest in
  Option.map
    (fun (u, origin) -> { native = Some u; cache = cache_of_origin origin })
    (Native.load ?digest c)

let select ?digest backend c =
  match backend with
  | `Closures -> closures
  | `Native -> (
    match native ?digest c with
    | Some sel -> sel
    | None ->
      diag
        "gsim: native backend unavailable (no C compiler, disabled, or compile \
         failed); falling back to closures";
      closures)
  | `Auto ->
    if circuit_size c >= native_threshold && Native.available () then
      Option.value (native ?digest c) ~default:closures
    else closures

let effective_string sel = if sel.native = None then "closures" else "native"

let never_forcible _ = false

let node_evaluator ~sel ?(forcible = never_forcible) rt (nd : Circuit.node) =
  let id = nd.Circuit.id in
  (* Forcible nodes evaluate through a guarded closure under every
     backend, so the slot holds the overridden value the moment it is
     written. *)
  if forcible id then Runtime.guard rt id (Runtime.node_evaluator rt nd)
  else
    match sel.native with
    | Some u when Native.has_fn u id -> Native.node_evaluator u rt id
    | Some _ | None -> Runtime.node_evaluator rt nd

(* A sweep plan: maximal runs of natively compiled nodes become dense
   native runs; everything else (closures backend, wide/fallback nodes,
   forcible nodes) groups into closure runs, each node flagged with
   whether its step is guarded. *)

type item =
  | Native_run of Native.unit_t * int array
  | Closure_run of (int * bool) array

type plan = item array

let plan ?(forcible = never_forcible) sel ids =
  let items = ref [] in
  let nrun = ref [] and crun = ref [] in
  let flush_native u =
    if !nrun <> [] then begin
      items := Native_run (u, Array.of_list (List.rev !nrun)) :: !items;
      nrun := []
    end
  in
  let flush_closures () =
    if !crun <> [] then begin
      items := Closure_run (Array.of_list (List.rev !crun)) :: !items;
      crun := []
    end
  in
  Array.iter
    (fun id ->
      match sel.native with
      | Some u when Native.has_fn u id && not (forcible id) ->
        flush_closures ();
        nrun := id :: !nrun
      | Some u ->
        (* Not compiled, or forcible: a forcible node leaves the native
           run so its slot holds the overridden value before any consumer
           in the run reads it. *)
        flush_native u;
        crun := (id, forcible id) :: !crun
      | None -> crun := (id, forcible id) :: !crun)
    ids;
  Option.iter flush_native sel.native;
  flush_closures ();
  Array.of_list (List.rev !items)

let realize rt pl =
  let c = Runtime.circuit rt in
  Array.map
    (function
      | Native_run (u, ids) -> Native.run_step u rt ids
      | Closure_run nodes ->
        let fs =
          Array.map
            (fun (id, guarded) ->
              let f = Runtime.node_evaluator rt (Circuit.node c id) in
              if guarded then Runtime.guard rt id f else f)
            nodes
        in
        fun () ->
          let n = ref 0 in
          for i = 0 to Array.length fs - 1 do
            if (Array.unsafe_get fs i) () then incr n
          done;
          !n)
    pl
