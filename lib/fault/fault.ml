module Bits = Gsim_bits.Bits
open Gsim_ir

type model =
  | Seu of int
  | Stuck of bool * int * int
  | Word_force of Bits.t * int

type t = { target : string; model : model; cycle : int }

let model_to_string = function
  | Seu b -> Printf.sprintf "seu:%d" b
  | Stuck (v, b, d) -> Printf.sprintf "stuck%d:%d+%d" (if v then 1 else 0) b d
  | Word_force (v, d) ->
    Printf.sprintf "word:%d'h%s+%d" (Bits.width v) (Bits.to_hex_string v) d

let key f = Printf.sprintf "%s#%s@%d" f.target (model_to_string f.model) f.cycle

(* Split [s] at the LAST occurrence of [ch]: target names may themselves
   contain '#' or '@' (generated hierarchy separators never do, but a
   hand-written design could), while the model and cycle syntax never
   does. *)
let rsplit ch s =
  match String.rindex_opt s ch with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let model_of_string s =
  let fail () = Printf.ksprintf failwith "fault: bad model %S" s in
  let int_of x = match int_of_string_opt x with Some n -> n | None -> fail () in
  let bit_dur rest =
    match String.split_on_char '+' rest with
    | [ b; d ] -> (int_of b, int_of d)
    | _ -> fail ()
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i ->
    let head = String.sub s 0 i
    and rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match head with
     | "seu" -> Seu (int_of rest)
     | "stuck0" ->
       let b, d = bit_dur rest in
       Stuck (false, b, d)
     | "stuck1" ->
       let b, d = bit_dur rest in
       Stuck (true, b, d)
     | "word" -> (
       match rsplit '+' rest with
       | Some (v, d) -> (
         match Bits.of_string v with
         | bits -> Word_force (bits, int_of d)
         | exception Invalid_argument _ -> fail ())
       | None -> fail ())
     | _ -> fail ())

let of_key s =
  let fail () = Printf.ksprintf failwith "fault: bad key %S" s in
  match rsplit '@' s with
  | None -> fail ()
  | Some (head, cycle) -> (
    match (rsplit '#' head, int_of_string_opt cycle) with
    | Some (target, model), Some cycle when target <> "" && cycle >= 0 ->
      { target; model = model_of_string model; cycle }
    | _ -> fail ())

(* --- Random campaign generation ---------------------------------------- *)

(* Every named register read and logic node is a candidate; anonymous
   intermediates (names starting with '_') are skipped so keys stay
   meaningful across optimization levels. *)
let candidates c =
  let regs =
    Circuit.registers c
    |> List.filter_map (fun (r : Circuit.register) ->
           let n = Circuit.node c r.Circuit.read in
           if String.length n.Circuit.name > 0 && n.Circuit.name.[0] <> '_' then
             Some (n.Circuit.name, n.Circuit.width)
           else None)
  in
  let wires =
    Circuit.fold_nodes c ~init:[] ~f:(fun acc (n : Circuit.node) ->
        match n.Circuit.kind with
        | Circuit.Logic
          when String.length n.Circuit.name > 0 && n.Circuit.name.[0] <> '_' ->
          (n.Circuit.name, n.Circuit.width) :: acc
        | _ -> acc)
    |> List.rev
  in
  regs @ wires

let random ?(models = [ `Seu; `Stuck0; `Stuck1; `Word ]) ?(duration = 2) ~seed ~count
    ~horizon c =
  if models = [] then invalid_arg "Fault.random: empty model list";
  let pool = Array.of_list (candidates c) in
  if Array.length pool = 0 then []
  else begin
    let st = Random.State.make [| 0x6f17; seed |] in
    let models = Array.of_list models in
    List.init count (fun _ ->
        let name, width = pool.(Random.State.int st (Array.length pool)) in
        let cycle = Random.State.int st (max 1 horizon) in
        let bit = Random.State.int st width in
        let model =
          match models.(Random.State.int st (Array.length models)) with
          | `Seu -> Seu bit
          | `Stuck0 -> Stuck (false, bit, duration)
          | `Stuck1 -> Stuck (true, bit, duration)
          | `Word -> Word_force (Bits.random st ~width, duration)
        in
        { target = name; model; cycle })
    |> List.sort_uniq compare
  end

let models_of_string s =
  List.map
    (function
      | "seu" -> `Seu
      | "stuck0" -> `Stuck0
      | "stuck1" -> `Stuck1
      | "word" -> `Word
      | other ->
        failwith (Printf.sprintf "unknown fault model %S (seu, stuck0, stuck1, word)" other))
    (String.split_on_char ',' s)

let select ~keys ~random:count ?models ~duration ~seed ~horizon c =
  let models = Option.map models_of_string models in
  let faults =
    List.map of_key keys
    @ if count > 0 then random ?models ~duration ~seed ~count ~horizon c else []
  in
  if faults = [] then failwith "no faults to inject: give --faults N and/or --fault KEY";
  faults

let release_cycle ~register f =
  match f.model with
  | Seu _ when register -> None
  | Seu _ -> Some (f.cycle + 1)
  | Stuck (_, _, d) | Word_force (_, d) -> Some (f.cycle + d)

let inject ?before (sim : Gsim_engine.Sim.t) ~register ~width id f =
  (* Bits.shift_left widens by the shift amount; resize back. *)
  let onehot b =
    if b < 0 || b >= width then
      failwith (Printf.sprintf "fault %s: bit %d out of range" (key f) b)
    else Bits.resize_unsigned (Bits.shift_left (Bits.one 1) b) ~width
  in
  match f.model with
  | Seu b when register ->
    (* Latch the flipped value; the state evolves from it. *)
    sim.write_reg id (Bits.logxor (sim.peek id) (onehot b));
    sim.invalidate ()
  | Seu b ->
    let v = match before with Some v -> v () | None -> sim.peek id in
    sim.force ~mask:(onehot b) id (Bits.logxor v (onehot b))
  | Stuck (v, b, _) ->
    let m = onehot b in
    sim.force ~mask:m id (if v then m else Bits.zero width)
  | Word_force (v, _) -> sim.force id v
