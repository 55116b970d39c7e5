(* C emitter: structure of the generated unit, mode differences, size
   accounting, and (when the native backend's C compiler is present) a
   differential run: each emitted unit is compiled with a generated main,
   replays random stimulus, and must print every output on every cycle
   exactly as the reference interpreter computes it. *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Expr = Gsim_ir.Expr
module Rand_circuit = Gsim_ir.Rand_circuit
module Partition = Gsim_partition.Partition
module Emit = Gsim_emit.Emit
module Firrtl = Gsim_firrtl.Firrtl
module Reference = Gsim_ir.Reference

let counter_circuit () =
  let c = Circuit.create ~name:"counter" () in
  let en = Circuit.add_input c ~name:"en" ~width:1 in
  let r = Circuit.add_register c ~name:"r" ~width:8 ~init:(Bits.zero 8) () in
  Circuit.set_next c r
    (Expr.mux (Expr.var ~width:1 en.Circuit.id)
       (Expr.unop (Expr.Extract (7, 0))
          (Expr.binop Expr.Add (Expr.var ~width:8 r.Circuit.read) (Expr.of_int ~width:8 1)))
       (Expr.var ~width:8 r.Circuit.read));
  Circuit.mark_output c r.Circuit.read;
  c

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_full_cycle_shape () =
  let r = Emit.emit ~mode:Emit.Full_cycle_mode (counter_circuit ()) in
  Alcotest.(check bool) "has eval" true (contains r.Emit.source "void gsim_eval(void)");
  Alcotest.(check bool) "has commit" true (contains r.Emit.source "void gsim_commit(void)");
  Alcotest.(check bool) "no active bits" false (contains r.Emit.source "act[");
  Alcotest.(check bool) "code accounted" true (r.Emit.code_bytes > 100);
  Alcotest.(check bool) "data accounted" true (r.Emit.data_bytes > 0)

let test_gsim_mode_shape () =
  let c = counter_circuit () in
  let p = Partition.gsim c ~max_size:8 in
  let r = Emit.emit ~mode:Emit.Gsim_mode ~partition:p c in
  Alcotest.(check bool) "packed words" true (contains r.Emit.source "actw[");
  Alcotest.(check bool) "ctz fast path" true (contains r.Emit.source "__builtin_ctzll");
  Alcotest.(check bool) "supernode fns" true (contains r.Emit.source "eval_super0")

let test_essent_mode_shape () =
  let c = counter_circuit () in
  let p = Partition.mffc c ~max_size:8 in
  let r = Emit.emit ~mode:Emit.Essent_mode ~partition:p c in
  Alcotest.(check bool) "bool active bits" true (contains r.Emit.source "bool act[");
  Alcotest.(check bool) "no packed words" false (contains r.Emit.source "actw[")

let test_slow_path_reset_emitted () =
  let src =
    {|
circuit R :
  module R :
    input clock : Clock
    input reset : UInt<1>
    input d : UInt<8>
    output o : UInt<8>

    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    r <= d
    o <= r
|}
  in
  let { Firrtl.circuit = c; _ } = Firrtl.load_string src in
  ignore (Gsim_passes.Pipeline.optimize ~level:Gsim_passes.Pipeline.O2 c);
  let r = Emit.emit ~mode:Emit.Full_cycle_mode c in
  (* The reset must appear as a block in gsim_commit() guarded by the
     reset input, not as a mux inside evaluation. *)
  let reset = Option.get (Circuit.find_node c "reset") in
  Alcotest.(check bool) "guarded reset block" true
    (contains r.Emit.source (Printf.sprintf "if ((a[%d] >> 1)) {" reset.Circuit.id))

let test_sizes_scale_with_design () =
  let small = Emit.emit (counter_circuit ()) in
  let st = Random.State.make [| 3 |] in
  let big_c =
    Rand_circuit.generate st
      { Rand_circuit.default_config with Rand_circuit.logic_nodes = 300 }
  in
  let big = Emit.emit big_c in
  Alcotest.(check bool) "bigger design emits more code" true
    (big.Emit.code_bytes > small.Emit.code_bytes);
  Alcotest.(check bool) "bigger design has more data" true
    (big.Emit.data_bytes > small.Emit.data_bytes)

let test_mode_of_string () =
  Alcotest.(check bool) "verilator" true (Emit.mode_of_string "verilator" = Some Emit.Full_cycle_mode);
  Alcotest.(check bool) "gsim" true (Emit.mode_of_string "gsim" = Some Emit.Gsim_mode);
  Alcotest.(check bool) "unknown" true (Emit.mode_of_string "vcs" = None)

(* --- Compile and run the emitted C ------------------------------------ *)

let compiler () =
  if Gsim_engine.Native.available () then Gsim_engine.Native.find_compiler () else None

let write path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let read path = In_channel.with_open_bin path In_channel.input_all

(* Runs [cc args] in a fresh directory holding [files]; fails the test
   with the compiler's diagnostics on error. *)
let compile name cc files args =
  let dir = Filename.temp_dir ("gsim_emit_" ^ name) "" in
  List.iter (fun (f, text) -> write (Filename.concat dir f) text) files;
  let log = Filename.concat dir "cc.log" in
  let rc =
    Sys.command
      (Printf.sprintf "cd %s && %s %s 2> %s" (Filename.quote dir) cc args (Filename.quote log))
  in
  if rc <> 0 then Alcotest.failf "%s: emitted C does not compile:\n%s" name (read log);
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let compiles name source =
  match compiler () with
  | None -> ()
  | Some cc -> remove_dir (compile name cc [ ("unit.c", source) ] "-c unit.c")

(* One output line per node: id, then its limbs high to low. *)
let line id v =
  let n = Gsim_emit.Emit_c.nl (Bits.width v) in
  String.concat " "
    (string_of_int id
     :: List.init n (fun i -> Printf.sprintf "%016Lx" (Bits.limb64 v (n - 1 - i))))

(* A main replaying [stim] through gsim_poke/gsim_cycle and printing every
   output after each cycle, and the reference's text for the same run. *)
let harness c stim =
  let outs = Circuit.outputs c in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "#include <stdio.h>\n#include <stdint.h>\n\
     void gsim_poke(long, const uint64_t *);\nvoid gsim_peek(long, uint64_t *);\n\
     void gsim_cycle(void);\n\
     static void show(long id, int n) {\n\
    \  uint64_t v[40];\n  gsim_peek(id, v);\n  printf(\"%ld\", id);\n\
    \  for (int i = n - 1; i >= 0; i--) printf(\" %016llx\", (unsigned long long)v[i]);\n\
    \  printf(\"\\n\");\n}\nint main(void) {\n";
  let expected = Buffer.create 4096 in
  let r = Reference.create c in
  Array.iter
    (fun pokes ->
      List.iter
        (fun (id, v) ->
          Reference.poke r id v;
          let n = Gsim_emit.Emit_c.nl (Bits.width v) in
          Printf.bprintf b "  gsim_poke(%d, (const uint64_t[]){ %s });\n" id
            (String.concat ", "
               (List.init n (fun i -> Printf.sprintf "UINT64_C(%Lu)" (Bits.limb64 v i)))))
        pokes;
      Buffer.add_string b "  gsim_cycle();\n";
      Reference.step r;
      List.iter
        (fun (nd : Circuit.node) ->
          Printf.bprintf b "  show(%d, %d);\n" nd.Circuit.id
            (Gsim_emit.Emit_c.nl nd.Circuit.width);
          Buffer.add_string expected (line nd.Circuit.id (Reference.peek r nd.Circuit.id));
          Buffer.add_char expected '\n')
        outs)
    stim;
  Buffer.add_string b "  return 0;\n}\n";
  (Buffer.contents b, Buffer.contents expected)

let modes c =
  [
    ("full-cycle", Emit.emit ~mode:Emit.Full_cycle_mode c);
    ("essent", Emit.emit ~mode:Emit.Essent_mode ~partition:(Partition.mffc c ~max_size:8) c);
    ("gsim", Emit.emit ~mode:Emit.Gsim_mode ~partition:(Partition.gsim c ~max_size:8) c);
  ]

(* Compile each mode's unit with the harness, run it, and compare its
   output with the reference line by line. *)
let differential name c stim =
  match compiler () with
  | None -> Alcotest.skip ()
  | Some cc ->
    let main, expected = harness c stim in
    List.iter
      (fun (mode, (r : Emit.result)) ->
        let name = Printf.sprintf "%s_%s" name mode in
        let dir =
          compile name cc [ ("unit.c", r.Emit.source); ("main.c", main) ]
            "-O0 -o sim unit.c main.c"
        in
        let out = Filename.concat dir "out.txt" in
        if Sys.command (Printf.sprintf "%s > %s" (Filename.quote (Filename.concat dir "sim"))
                          (Filename.quote out)) <> 0
        then Alcotest.failf "%s: the compiled unit failed to run" name;
        let got = read out in
        remove_dir dir;
        if got <> expected then begin
          let lines s = String.split_on_char '\n' s in
          let rec first i = function
            | g :: gs, e :: es -> if g = e then first (i + 1) (gs, es) else (i, g, e)
            | g :: _, [] -> (i, g, "")
            | [], e :: _ -> (i, "", e)
            | [], [] -> (i, "", "")
          in
          let i, g, e = first 0 (lines got, lines expected) in
          Alcotest.failf "%s: output line %d: emitted %S, reference %S" name i g e
        end)
      (modes c)

let cycles = 12

let test_random_circuits_run () =
  for seed = 1 to 20 do
    let st = Random.State.make [| seed; 0xe417 |] in
    let c =
      Rand_circuit.generate st { Rand_circuit.default_config with Rand_circuit.max_width = 130 }
    in
    (* Odd seeds run optimized circuits: slow-path resets, inlined and
       extracted expressions. *)
    if seed mod 2 = 1 then ignore (Gsim_passes.Pipeline.optimize ~level:Gsim_passes.Pipeline.O3 c);
    differential (Printf.sprintf "random%d" seed) c (Rand_circuit.random_stimulus st c ~cycles)
  done

(* Operators on 100-bit values that need the wide helpers: a parity
   reduction, a full-width product and a dynamic left shift. *)
let wide_ops_fir =
  {|
circuit WideOps :
  module WideOps :
    input clock : Clock
    input a : UInt<100>
    input b : UInt<100>
    input s : UInt<3>
    output p : UInt<1>
    output m : UInt<200>
    output d : UInt<107>

    p <= xorr(a)
    m <= mul(a, b)
    d <= dshl(a, s)
|}

let test_wide_ops_run () =
  let { Firrtl.circuit = c; _ } = Firrtl.load_string wide_ops_fir in
  let st = Random.State.make [| 100 |] in
  differential "wide_ops" c (Rand_circuit.random_stimulus st c ~cycles)

(* Memories read at a held address while writes land under it: the read
   ports must wake on the write, for a wide and a narrow data width. *)
let memories_fir =
  {|
circuit Mems :
  module Mems :
    input clock : Clock
    input ra : UInt<2>
    input wa : UInt<2>
    input we : UInt<1>
    input wd : UInt<70>
    output rd : UInt<70>
    output nd : UInt<8>

    mem m :
      data-type => UInt<70>
      depth => 4
      read-latency => 0
      write-latency => 1
      reader => r0
      writer => w0
    mem n :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      reader => r0
      writer => w0
    m.r0.addr <= ra
    m.r0.en <= UInt<1>(1)
    m.r0.clk <= clock
    m.w0.addr <= wa
    m.w0.data <= wd
    m.w0.mask <= UInt<1>(1)
    m.w0.en <= we
    m.w0.clk <= clock
    n.r0.addr <= ra
    n.r0.en <= UInt<1>(1)
    n.r0.clk <= clock
    n.w0.addr <= wa
    n.w0.data <= bits(wd, 7, 0)
    n.w0.mask <= UInt<1>(1)
    n.w0.en <= we
    n.w0.clk <= clock
    rd <= m.r0.data
    nd <= n.r0.data
|}

let test_memories_run () =
  let { Firrtl.circuit = c; _ } = Firrtl.load_string memories_fir in
  let st = Random.State.make [| 4 |] in
  differential "memories" c (Rand_circuit.random_stimulus st c ~cycles:40)

let test_unlowerable_node_rejected () =
  let c = Circuit.create ~name:"huge" () in
  let x = Circuit.add_input c ~name:"x" ~width:1500 in
  let v = Expr.var ~width:1500 x.Circuit.id in
  let n = Circuit.add_logic c ~name:"huge_cat" (Expr.binop Expr.Cat v v) in
  Circuit.mark_output c n.Circuit.id;
  match Emit.emit c with
  | _ -> Alcotest.fail "a 3000-bit subexpression was emitted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the node" true (contains msg "huge_cat")

let test_emitted_units_compile () =
  compiles "counter" (Emit.emit (counter_circuit ())).Emit.source;
  let c = counter_circuit () in
  let p = Partition.gsim c ~max_size:8 in
  compiles "counter_gsim" (Emit.emit ~mode:Emit.Gsim_mode ~partition:p c).Emit.source;
  (* A design with wide values and memories. *)
  let src =
    {|
circuit W :
  module W :
    input clock : Clock
    input a : UInt<100>
    input b : UInt<100>
    input waddr : UInt<4>
    input wen : UInt<1>
    output o : UInt<100>
    output s : UInt<1>

    mem m :
      data-type => UInt<16>
      depth => 16
      read-latency => 0
      write-latency => 1
      reader => r0
      writer => w0
    m.r0.addr <= waddr
    m.r0.en <= UInt<1>(1)
    m.r0.clk <= clock
    m.w0.addr <= waddr
    m.w0.data <= bits(a, 15, 0)
    m.w0.mask <= UInt<1>(1)
    m.w0.en <= wen
    m.w0.clk <= clock
    node t = tail(add(a, b), 1)
    o <= xor(t, a)
    s <= lt(a, b)
|}
  in
  let { Firrtl.circuit = c; _ } = Firrtl.load_string src in
  compiles "wide_mem" (Emit.emit c).Emit.source;
  let p = Partition.gsim c ~max_size:8 in
  compiles "wide_mem_gsim" (Emit.emit ~mode:Emit.Gsim_mode ~partition:p c).Emit.source

let test_stu_core_emits_and_compiles () =
  let core = Gsim_designs.Stu_core.build () in
  let c = core.Gsim_designs.Stu_core.circuit in
  ignore (Gsim_passes.Pipeline.optimize ~level:Gsim_passes.Pipeline.O3 c);
  let p = Partition.gsim c ~max_size:32 in
  let r = Emit.emit ~mode:Emit.Gsim_mode ~partition:p c in
  Alcotest.(check bool) "nontrivial unit" true (r.Emit.code_bytes > 2_000);
  compiles "stu_core" r.Emit.source

let () =
  Alcotest.run "emit"
    [
      ( "structure",
        [
          Alcotest.test_case "full-cycle shape" `Quick test_full_cycle_shape;
          Alcotest.test_case "gsim shape" `Quick test_gsim_mode_shape;
          Alcotest.test_case "essent shape" `Quick test_essent_mode_shape;
          Alcotest.test_case "slow-path reset" `Quick test_slow_path_reset_emitted;
          Alcotest.test_case "sizes scale" `Quick test_sizes_scale_with_design;
          Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
          Alcotest.test_case "unlowerable node rejected" `Quick test_unlowerable_node_rejected;
        ] );
      ( "c",
        [
          Alcotest.test_case "emitted C compiles" `Quick test_emitted_units_compile;
          Alcotest.test_case "stu_core compiles" `Quick test_stu_core_emits_and_compiles;
          Alcotest.test_case "random circuits run" `Quick test_random_circuits_run;
          Alcotest.test_case "100-bit xorr/mul/dshl run" `Quick test_wide_ops_run;
          Alcotest.test_case "memory writes wake reads" `Quick test_memories_run;
        ] );
    ]
