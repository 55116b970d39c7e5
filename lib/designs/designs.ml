module Bits = Gsim_bits.Bits
module Sim = Gsim_engine.Sim
open Gsim_ir

type design = {
  design_name : string;
  description : string;
  build : unit -> Stu_core.core;
}

let stu_core =
  {
    design_name = "stuCore";
    description = "in-order single-issue, runnable mini-RISC core";
    build = (fun () -> Stu_core.build ());
  }

let rocket_like =
  {
    design_name = "Rocket";
    description = "in-order single-issue with caches, predictor, small ROB";
    build = (fun () -> Synth_core.build Synth_core.rocket_like);
  }

let boom_like =
  {
    design_name = "BOOM";
    description = "out-of-order triple-issue class: wider clusters, deep pipes";
    build = (fun () -> Synth_core.build Synth_core.boom_like);
  }

let xiangshan_like =
  {
    design_name = "XiangShan";
    description = "out-of-order six-issue class: widest configuration";
    build = (fun () -> Synth_core.build Synth_core.xiangshan_like);
  }

let all = [ stu_core; rocket_like; boom_like; xiangshan_like ]

let by_name name =
  List.find_opt (fun d -> String.lowercase_ascii d.design_name = String.lowercase_ascii name) all

let load_program sim (h : Stu_core.handles) (p : Isa.program) =
  sim.Sim.load_mem h.Stu_core.imem p.Isa.code;
  if Array.length p.Isa.data > 0 then sim.Sim.load_mem h.Stu_core.dmem p.Isa.data

(* A plain loop over [peek_int]: no closure and no [Bits.t] per cycle,
   so a native engine runs a whole program without allocating. *)
let run_program ?(max_cycles = 2_000_000) sim (h : Stu_core.handles) =
  let n = ref 0 in
  while
    if !n >= max_cycles then failwith "Designs.run_program: no halt";
    sim.Sim.step ();
    incr n;
    sim.Sim.peek_int h.Stu_core.halt = 0
  do
    ()
  done;
  !n

let run_cycles sim n =
  for _ = 1 to n do
    sim.Sim.step ()
  done

let check_against_golden sim (h : Stu_core.handles) (p : Isa.program) ~dmem_size =
  let golden_regs, _, golden_retired =
    Isa.reference_execute ~code:p.Isa.code ~data:p.Isa.data ~dmem_size ()
  in
  load_program sim h p;
  ignore (run_program sim h);
  let retired = Bits.to_int_trunc (sim.Sim.peek h.Stu_core.instret) in
  if retired <> golden_retired then
    failwith
      (Printf.sprintf "%s: retired %d, golden %d" p.Isa.prog_name retired golden_retired);
  Array.iteri
    (fun k id ->
      if id >= 0 then begin
        let got = Bits.to_int_trunc (sim.Sim.peek id) in
        if got <> golden_regs.(k) then
          failwith
            (Printf.sprintf "%s: x%d = %d, golden %d" p.Isa.prog_name k got golden_regs.(k))
      end)
    h.Stu_core.reg_nodes

let optimize_design ?level (core : Stu_core.core) =
  ignore (Gsim_passes.Pipeline.optimize ?level core.Stu_core.circuit);
  let map = Circuit.compact core.Stu_core.circuit in
  Circuit.validate core.Stu_core.circuit;
  { core with Stu_core.h = Stu_core.relocate core.Stu_core.h map }

let stats_line c =
  let s = Circuit.stats c in
  Printf.sprintf "%-10s nodes=%-8d edges=%-8d regs=%-6d mems=%d" (Circuit.name c)
    s.Circuit.ir_nodes s.Circuit.ir_edges s.Circuit.registers_count s.Circuit.memories_count
