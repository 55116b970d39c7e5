(* Shared measurement machinery for the paper-reproduction benches. *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core
module Isa = Gsim_designs.Isa
module Gsim = Gsim_core.Gsim

let quick = ref false

(* Cycle budget for speed measurements, scaled by design size so the big
   designs stay affordable. *)
let budget_for nodes =
  let base =
    if nodes < 500 then 40_000
    else if nodes < 8_000 then 12_000
    else if nodes < 25_000 then 5_000
    else 1_600
  in
  if !quick then max 200 (base / 10) else base

let now = Unix.gettimeofday

type measurement = {
  m_config : string;
  m_design : string;
  m_workload : string;
  cycles : int;  (* over all windows *)
  seconds : float;  (* over all windows *)
  hz : float;  (* median window *)
  hz_min : float;
  hz_max : float;
  minor_words_per_cycle : float;
  activity : float;
  counters : Counters.t;  (* over all windows *)
  supernodes : int;
}

(* Windows per measurement: the reported rate is their median, so one
   window disturbed by the host does not move a row. *)
let windows = 5

(* Build-once cache: designs are deterministic, so each named design is
   elaborated a single time per process and copied per engine. *)
let design_cache : (string, Stu_core.core) Hashtbl.t = Hashtbl.create 8

let build_design (d : Designs.design) =
  match Hashtbl.find_opt design_cache d.Designs.design_name with
  | Some core -> core
  | None ->
    let core = d.Designs.build () in
    Hashtbl.replace design_cache d.Designs.design_name core;
    core

(* Optimized-circuit cache: O3 on the largest design costs seconds, and
   every bench point would otherwise re-run the pass pipeline.  Interface
   node ids are preserved (no compaction), so the core handles stay
   valid. *)
let optimized_cache : (string * string, Circuit.t) Hashtbl.t = Hashtbl.create 16

let optimized_circuit (design : Designs.design) level =
  let key = (design.Designs.design_name, Gsim_passes.Pipeline.level_to_string level) in
  match Hashtbl.find_opt optimized_cache key with
  | Some c -> c
  | None ->
    let core = build_design design in
    let c = Circuit.copy core.Stu_core.circuit in
    ignore (Gsim_passes.Pipeline.optimize ~level c);
    Hashtbl.replace optimized_cache key c;
    c

(* Measure [config] running [prog] on [design] for the budgeted number of
   cycles (after a short warmup), split into [windows] equal consecutive
   windows timed separately.  The program must run longer than the
   budget; halting early would quietly measure an idle core.  Minor
   words allocated per cycle are deterministic, unlike the rates. *)
let measure ?cycles_override (config : Gsim.config) (design : Designs.design)
    (prog : Isa.program) =
  let core = build_design design in
  let pre = optimized_circuit design config.Gsim.opt_level in
  let compiled =
    Gsim.instantiate
      { config with Gsim.opt_level = Gsim_passes.Pipeline.O0 }
      pre
  in
  let sim = compiled.Gsim.sim in
  let h = core.Stu_core.h in
  (* Handles are stable: instantiate never compacts by default. *)
  Designs.load_program sim h prog;
  let nodes = Circuit.node_count core.Stu_core.circuit in
  let cycles =
    match cycles_override with
    | Some c -> c
    | None ->
      let b = budget_for nodes in
      (* Multi-threaded full-cycle pays per-level barriers; its steady
         rate converges in far fewer cycles, which matters when the host
         has fewer cores than domains. *)
      (match config.Gsim.engine with
       | Gsim.Full_cycle_engine n when n > 1 -> max 200 (b / 16)
       | _ -> b)
  in
  let warmup = max 8 (cycles / 20) in
  Designs.run_cycles sim warmup;
  if not (Bits.is_zero (sim.Sim.peek h.Stu_core.halt)) then
    failwith
      (Printf.sprintf "harness: %s halted during warmup; use a longer program"
         prog.Isa.prog_name);
  Counters.clear (sim.Sim.counters ());
  let per_window = max 1 (cycles / windows) in
  let cycles = per_window * windows in
  let secs = Array.make windows 0. in
  let words = ref 0. in
  for i = 0 to windows - 1 do
    let w0 = Gc.minor_words () in
    let t0 = now () in
    Designs.run_cycles sim per_window;
    secs.(i) <- now () -. t0;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  let rates = Array.map (fun dt -> float_of_int per_window /. dt) secs in
  Array.sort compare rates;
  if not (Bits.is_zero (sim.Sim.peek h.Stu_core.halt)) then
    failwith
      (Printf.sprintf "harness: %s halted inside the measured window" prog.Isa.prog_name);
  let ctr = sim.Sim.counters () in
  let total_nodes = Circuit.node_count compiled.Gsim.sim.Sim.circuit in
  let m =
    {
      m_config = config.Gsim.config_name;
      m_design = design.Designs.design_name;
      m_workload = prog.Isa.prog_name;
      cycles;
      seconds = Array.fold_left ( +. ) 0. secs;
      hz = rates.(windows / 2);
      hz_min = rates.(0);
      hz_max = rates.(windows - 1);
      minor_words_per_cycle = !words /. float_of_int cycles;
      activity = Counters.activity_factor ctr ~total_nodes;
      counters = ctr;
      supernodes = compiled.Gsim.supernodes;
    }
  in
  compiled.Gsim.destroy ();
  m

(* Workloads sized to outlast every budget (the assembler's imm12 bounds
   the loop counters at 2047). *)
let coremark_long () = Gsim_designs.Programs.coremark ~iters:200 ()

let linux_long () = Gsim_designs.Programs.linux_boot ~phases:400 ()

let spec_long name =
  match name with
  | "streaming" -> Gsim_designs.Programs.spec_streaming ~scale:40 ()
  | "pointer_chase" -> Gsim_designs.Programs.spec_pointer_chase ~scale:40 ()
  | "int_compute" -> Gsim_designs.Programs.spec_int_compute ~scale:20 ()
  | "mul_heavy" -> Gsim_designs.Programs.spec_mul_heavy ~scale:40 ()
  | "branch_heavy" -> Gsim_designs.Programs.spec_branch_heavy ~scale:20 ()
  | "icache" -> Gsim_designs.Programs.spec_icache ~scale:80 ()
  | _ -> invalid_arg "spec_long"

let spec_names =
  [ "streaming"; "pointer_chase"; "int_compute"; "mul_heavy"; "branch_heavy"; "icache" ]

(* --- Output helpers ---------------------------------------------------- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub s = Printf.printf "-- %s\n" s

let kseparated n =
  (* 1234567 -> "1,234,567" for the wide tables *)
  let s = string_of_int n in
  let b = Buffer.create 16 in
  String.iteri
    (fun i ch ->
      if i > 0 && (String.length s - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b ch)
    s;
  Buffer.contents b

let pp_hz hz =
  if hz >= 1e6 then Printf.sprintf "%.2f MHz" (hz /. 1e6)
  else if hz >= 1e3 then Printf.sprintf "%.1f kHz" (hz /. 1e3)
  else Printf.sprintf "%.0f Hz" hz

let geomean xs =
  match xs with
  | [] -> 0.
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))
