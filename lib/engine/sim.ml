module Bits = Gsim_bits.Bits
open Gsim_ir

type t = {
  sim_name : string;
  circuit : Circuit.t;
  poke : int -> Bits.t -> unit;
  peek : int -> Bits.t;
  peek_int : int -> int;
  step : unit -> unit;
  load_mem : int -> Bits.t array -> unit;
  read_mem : int -> int -> Bits.t;
  write_mem : int -> int -> Bits.t -> unit;
  take_dirty_mem : unit -> (int * int array) list;
  write_reg : int -> Bits.t -> unit;
  force : ?mask:Bits.t -> int -> Bits.t -> unit;
  release : int -> unit;
  invalidate : unit -> unit;
  counters : unit -> Counters.t;
}

let run t n =
  for _ = 1 to n do
    t.step ()
  done

let peek_int t id = t.peek_int id

let parse_pokes circuit specs =
  List.map
    (fun spec ->
      match String.split_on_char '=' spec with
      | [ name; value ] -> (
        match Circuit.find_node circuit name with
        | Some n -> (n.Circuit.id, Bits.of_int ~width:n.Circuit.width (int_of_string value))
        | None -> failwith (Printf.sprintf "no input named %S" name))
      | _ -> failwith (Printf.sprintf "bad poke %S (want name=value)" spec))
    specs

(* The halt node is one bit wide, so [peek_int] reads it without
   building a [Bits.t]: the loop allocates nothing per cycle. *)
let run_to_halt ?halt t n =
  match halt with
  | None ->
    run t n;
    (max n 0, false)
  | Some h ->
    let rec go i =
      if i >= n then (i, false)
      else begin
        t.step ();
        if t.peek_int h <> 0 then (i + 1, true) else go (i + 1)
      end
    in
    go 0

let outputs t circuit =
  List.map
    (fun (n : Circuit.node) ->
      (n.Circuit.name, Format.asprintf "%a" Bits.pp (t.peek n.Circuit.id)))
    (Circuit.outputs circuit)

let poke_int t id v =
  let w = (Circuit.node t.circuit id).Circuit.width in
  t.poke id (Bits.of_int ~width:w v)

let of_reference r =
  let counters = Counters.create () in
  {
    sim_name = "reference";
    circuit = Reference.circuit r;
    poke = Reference.poke r;
    peek = Reference.peek r;
    peek_int = (fun id -> Bits.to_int_trunc (Reference.peek r id));
    step =
      (fun () ->
        Reference.step r;
        counters.Counters.cycles <- counters.Counters.cycles + 1);
    load_mem = Reference.load_mem r;
    read_mem = Reference.read_mem r;
    write_mem = Reference.write_mem_word r;
    take_dirty_mem = (fun () -> Reference.take_dirty_mem r);
    write_reg = Reference.force_register r;
    force = (fun ?mask id v -> ignore (Reference.force r ?mask id v));
    release = (fun id -> ignore (Reference.release r id));
    invalidate = (fun () -> ());
    counters = (fun () -> counters);
  }

let trace t ~observe ~stimulus =
  Array.map
    (fun pokes ->
      List.iter (fun (id, v) -> t.poke id v) pokes;
      t.step ();
      List.map t.peek observe)
    stimulus

let equal_traces a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun xs ys -> List.equal Bits.equal xs ys) a b
