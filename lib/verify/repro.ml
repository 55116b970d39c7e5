module Bits = Gsim_bits.Bits
open Gsim_ir

(* A self-contained, replayable record of one shrunk fuzz failure.
   Everything above the [circuit] marker is line-oriented metadata;
   everything after it is the exact Ir_text serialization of the shrunk
   circuit.  Stimulus refers to nodes by NAME so the file stays readable
   and survives renumbering. *)

type poke = { p_node : string; p_value : Bits.t }

type act =
  | A_force of { f_node : string; f_mask : Bits.t option; f_value : Bits.t }
  | A_release of string

type t = {
  seed : int;
  case : int;
  subject : string;          (* setup name, e.g. "gsim+closures" *)
  level : string;
  kind : string;             (* mismatch | crash | hang *)
  at_cycle : int option;
  node : string option;      (* divergent node name, mismatches only *)
  expected : Bits.t option;
  got : Bits.t option;
  message : string;          (* free-text detail (crash text, ...) *)
  culprit : string;          (* Bisect.culprit_token *)
  culprit_detail : string;   (* Bisect.culprit_to_string *)
  bucket : string;
  nodes : int;
  cycles : int;
  trace : (int * poke list * act list) list;  (* sparse, by cycle *)
  circuit_text : string;
}

let bits_str v = Format.asprintf "%a" Bits.pp v

let signature t =
  match t.kind with
  | "mismatch" ->
    Printf.sprintf "mismatch:%s@%d"
      (Option.value t.node ~default:"?")
      (Option.value t.at_cycle ~default:(-1))
  | k -> k

let to_string t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "fuzzrepro 1\n";
  add "seed %d\n" t.seed;
  add "case %d\n" t.case;
  add "subject %s\n" t.subject;
  add "level %s\n" t.level;
  add "kind %s\n" t.kind;
  Option.iter (add "cycle %d\n") t.at_cycle;
  Option.iter (add "node %s\n") t.node;
  Option.iter (fun v -> add "expected %s\n" (bits_str v)) t.expected;
  Option.iter (fun v -> add "got %s\n" (bits_str v)) t.got;
  if t.message <> "" then
    add "message %s\n" (String.map (function '\n' -> ' ' | c -> c) t.message);
  add "culprit %s\n" t.culprit;
  add "culprit-detail %s\n" t.culprit_detail;
  add "bucket %s\n" t.bucket;
  add "nodes %d\n" t.nodes;
  add "cycles %d\n" t.cycles;
  List.iter
    (fun (cycle, pokes, acts) ->
      add "trace %d\n" cycle;
      List.iter (fun p -> add "poke %s %s\n" p.p_node (bits_str p.p_value)) pokes;
      List.iter
        (function
          | A_force { f_node; f_mask; f_value } ->
            add "force %s %s %s\n" f_node
              (match f_mask with Some m -> bits_str m | None -> "-")
              (bits_str f_value)
          | A_release n -> add "release %s\n" n)
        acts)
    t.trace;
  add "circuit\n";
  Buffer.add_string b t.circuit_text;
  Buffer.contents b

let of_string s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let lines = String.split_on_char '\n' s in
  (match lines with
   | first :: _ when String.trim first = "fuzzrepro 1" -> ()
   | _ -> fail "not a fuzzrepro file (missing \"fuzzrepro 1\" header)");
  let meta = Hashtbl.create 16 in
  let trace = ref [] in                      (* reversed *)
  let cur_cycle = ref None in
  let cur_pokes = ref [] and cur_acts = ref [] in
  let flush_cycle () =
    match !cur_cycle with
    | Some c ->
      trace := (c, List.rev !cur_pokes, List.rev !cur_acts) :: !trace;
      cur_cycle := None;
      cur_pokes := [];
      cur_acts := []
    | None -> ()
  in
  let circuit_lines = ref [] in
  let in_circuit = ref false in
  List.iteri
    (fun i line ->
      if i = 0 then ()
      else if !in_circuit then circuit_lines := line :: !circuit_lines
      else
        let line = String.trim line in
        if line = "" then ()
        else if line = "circuit" then begin
          flush_cycle ();
          in_circuit := true
        end
        else
          match String.index_opt line ' ' with
          | None -> fail "line %d: malformed %S" (i + 1) line
          | Some sp ->
            let key = String.sub line 0 sp in
            let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
            (match key with
             | "trace" ->
               flush_cycle ();
               cur_cycle := Some (int_of_string rest)
             | "poke" -> (
               match String.split_on_char ' ' rest with
               | [ n; v ] ->
                 cur_pokes := { p_node = n; p_value = Bits.of_string v } :: !cur_pokes
               | _ -> fail "line %d: malformed poke" (i + 1))
             | "force" -> (
               match String.split_on_char ' ' rest with
               | [ n; m; v ] ->
                 cur_acts :=
                   A_force
                     { f_node = n;
                       f_mask = (if m = "-" then None else Some (Bits.of_string m));
                       f_value = Bits.of_string v }
                   :: !cur_acts
               | _ -> fail "line %d: malformed force" (i + 1))
             | "release" -> cur_acts := A_release rest :: !cur_acts
             | _ -> Hashtbl.replace meta key rest))
    lines;
  if not !in_circuit then fail "missing circuit section";
  let get k = try Hashtbl.find meta k with Not_found -> fail "missing %S field" k in
  let get_opt k = Hashtbl.find_opt meta k in
  let int_field k = int_of_string (get k) in
  { seed = int_field "seed";
    case = int_field "case";
    subject = get "subject";
    level = (match get_opt "level" with Some l -> l | None -> "O3");
    kind = get "kind";
    at_cycle = Option.map int_of_string (get_opt "cycle");
    node = get_opt "node";
    expected = Option.map Bits.of_string (get_opt "expected");
    got = Option.map Bits.of_string (get_opt "got");
    message = Option.value (get_opt "message") ~default:"";
    culprit = get "culprit";
    culprit_detail = Option.value (get_opt "culprit-detail") ~default:"";
    bucket = get "bucket";
    nodes = int_field "nodes";
    cycles = int_field "cycles";
    trace = List.rev !trace;
    circuit_text = String.concat "\n" (List.rev !circuit_lines) }

(* ------------------------------------------------------------------ *)

let of_failure ~seed ~case ~subject ~level ~culprit circuit
    (steps : Oracle.step array) (failure : Oracle.failure) =
  let name id = (Circuit.node circuit id).Circuit.name in
  let trace =
    List.filteri (fun _ (_, p, a) -> p <> [] || a <> [])
      (List.mapi
         (fun cycle (s : Oracle.step) ->
           ( cycle,
             List.map (fun (id, v) -> { p_node = name id; p_value = v }) s.Oracle.pokes,
             List.map
               (function
                 | Oracle.Force { target; mask; value } ->
                   A_force { f_node = name target; f_mask = mask; f_value = value }
                 | Oracle.Release id -> A_release (name id))
               s.Oracle.actions ))
         (Array.to_list steps))
  in
  let at_cycle, node, expected, got, message =
    match failure with
    | Oracle.Mismatch m ->
      (Some m.Oracle.at_cycle, Some (name m.Oracle.node_id),
       Some m.Oracle.expected, Some m.Oracle.got, "")
    | Oracle.Crash msg -> (None, None, None, None, msg)
    | Oracle.Hang secs ->
      (None, None, None, None, Printf.sprintf "watchdog after %.1fs" secs)
  in
  { seed;
    case;
    subject;
    level;
    kind = Oracle.failure_kind failure;
    at_cycle;
    node;
    expected;
    got;
    message;
    culprit = Bisect.culprit_token culprit;
    culprit_detail = Bisect.culprit_to_string culprit;
    bucket = Bisect.culprit_token culprit ^ "|" ^ Oracle.failure_kind failure;
    nodes = Circuit.node_count circuit;
    cycles = Array.length steps;
    trace;
    circuit_text = Ir_text.to_string circuit }

let rebuild t =
  let circuit = Ir_text.of_string t.circuit_text in
  let resolve n =
    match Circuit.find_node circuit n with
    | Some node -> node.Circuit.id
    | None -> failwith (Printf.sprintf "repro references unknown node %S" n)
  in
  let steps =
    Array.init t.cycles (fun _ -> { Oracle.pokes = []; actions = [] })
  in
  List.iter
    (fun (cycle, pokes, acts) ->
      if cycle < 0 || cycle >= t.cycles then
        failwith (Printf.sprintf "repro trace cycle %d out of range" cycle);
      steps.(cycle) <-
        { Oracle.pokes = List.map (fun p -> (resolve p.p_node, p.p_value)) pokes;
          actions =
            List.map
              (function
                | A_force { f_node; f_mask; f_value } ->
                  Oracle.Force
                    { target = resolve f_node; mask = f_mask; value = f_value }
                | A_release n -> Oracle.Release (resolve n))
              acts })
    t.trace;
  (circuit, steps)

(* ------------------------------------------------------------------ *)

let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_string t);
  close_out oc;
  Sys.rename tmp path

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
