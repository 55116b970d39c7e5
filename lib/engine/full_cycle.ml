module Bits = Gsim_bits.Bits
open Gsim_ir

type t = {
  rt : Runtime.t;
  sweeps : (unit -> int) array;
      (** the realized evaluation plan: native runs and closure runs, each
          returning its changed count *)
  nevals : int;  (** nodes evaluated per cycle *)
  write_commits : (unit -> bool) array;
  reg_commit : unit -> int;  (** latches every register, returns commits *)
  resets : ((unit -> bool) * (unit -> bool) array) array;
      (** (signal test, per-register appliers), grouped by reset signal *)
  forcible : (int, unit) Hashtbl.t;
      (** non-input node ids declared forcible at build time *)
  counters : Counters.t;
}

let create ?(backend = Eval.default) ?digest ?(forcible = []) c =
  let order = Circuit.eval_order c in
  let registers = Circuit.registers c in
  let fset = Hashtbl.create (max (2 * List.length forcible) 1) in
  List.iter
    (fun id ->
      match (Circuit.node c id).Circuit.kind with
      | Circuit.Input -> ()  (* pokes re-apply overrides; no guard needed *)
      | _ -> Hashtbl.replace fset id ())
    forcible;
  let is_forcible id = Hashtbl.mem fset id in
  let sel = Eval.select ?digest backend c in
  let rt = Runtime.create c in
  let sweeps = Eval.realize rt (Eval.plan ~forcible:is_forcible sel order) in
  let reg_commit = Runtime.reg_committer rt ~forcible:is_forcible registers in
  let counters = Counters.create () in
  counters.Counters.backend <- Eval.effective_string sel;
  counters.Counters.native_cache <- sel.Eval.cache;
  {
    rt;
    sweeps;
    nevals = Array.length order;
    write_commits = Runtime.write_committers rt;
    reg_commit;
    resets = Runtime.reset_groups rt ~forcible:is_forcible;
    forcible = fset;
    counters;
  }

let poke t id v = ignore (Runtime.poke t.rt id v)

let peek t id = Runtime.peek t.rt id

(* Full-cycle engines re-evaluate everything each step, so force/release
   need no wakeup — only the declaration check (non-input targets must
   have been routed around native runs at build time). *)
let check_forcible t id =
  let nd = Circuit.node (Runtime.circuit t.rt) id in
  match nd.Circuit.kind with
  | Circuit.Input -> ()
  | _ ->
    if not (Hashtbl.mem t.forcible id) then
      invalid_arg
        (Printf.sprintf "Full_cycle.force: node %S was not declared forcible"
           nd.Circuit.name)

let force t ?mask id v =
  check_forcible t id;
  ignore (Runtime.force t.rt ?mask id v)

let release t id = ignore (Runtime.release t.rt id)

let step t =
  let ctr = t.counters in
  let sweeps = t.sweeps in
  for i = 0 to Array.length sweeps - 1 do
    ctr.Counters.changed <- ctr.Counters.changed + (Array.unsafe_get sweeps i) ()
  done;
  ctr.Counters.evals <- ctr.Counters.evals + t.nevals;
  (* Memory writes first: they read register outputs of this cycle. *)
  Array.iter (fun w -> ignore (w ())) t.write_commits;
  ctr.Counters.reg_commits <- ctr.Counters.reg_commits + t.reg_commit ();
  Array.iter
    (fun (test, appliers) ->
      ctr.Counters.reset_checks <- ctr.Counters.reset_checks + 1;
      if test () then Array.iter (fun a -> ignore (a ())) appliers)
    t.resets;
  ctr.Counters.cycles <- ctr.Counters.cycles + 1

let load_mem t mi contents = Runtime.load_mem t.rt mi contents

let counters t = t.counters

let runtime t = t.rt

let sim t =
  {
    Sim.sim_name = "full-cycle";
    circuit = Runtime.circuit t.rt;
    poke = poke t;
    peek = peek t;
    peek_int = Runtime.peek_int t.rt;
    step = (fun () -> step t);
    load_mem = load_mem t;
    read_mem = (fun mi addr -> Runtime.read_mem t.rt mi addr);
    write_mem = Runtime.write_mem_word t.rt;
    take_dirty_mem = (fun () -> Runtime.drain_mem t.rt);
    write_reg = (fun id v -> Runtime.poke_register t.rt id v);
    force = (fun ?mask id v -> force t ?mask id v);
    release = (fun id -> release t id);
    invalidate = (fun () -> ());
    counters = (fun () -> t.counters);
  }
