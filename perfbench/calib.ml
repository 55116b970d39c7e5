(* Host calibration.

   Wall time of a slice of work on a shared host moves by tens of
   percent with contention from other tenants (on this kind of host the
   simulator switches between a fast and a slow state every few
   seconds).  A fixed kernel runs between timed slices, and a slice's
   rate is reported as [work / secs * nominal / kernel rate], taking the
   geometric mean of the kernel runs on both sides of the slice: its
   rate on a host where the kernel runs at [nominal].  [nominal] is a
   constant, so every commit is scaled by the same number.

   The kernel is random read-modify-writes over a 16 KiB table, resident
   in L1.  On a 2-vCPU Xeon guest, over sets of five runs of boom-steady
   and rocket-cold, it cut the run-to-run coefficient of variation of
   the median rate from 2-18 % raw to 0.2-3 %.  In the same runs the
   loop over a 256 KiB table did about as well, over a 2 MiB table
   clearly worse (2-9 %), and a small expression-DAG interpreter no
   better. *)

let nominal = 4.0e8 (* kernel iterations per second *)

let words = 2048 (* 16 KiB of OCaml ints *)
let table = Array.init words (fun i -> i * 3)
let iterations = 20_000_000
let sink = ref 0

(* Kernel iterations per second; ~50 ms. *)
let kernel () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to iterations do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF;
    let i = (!x lsr 16) land (words - 1) in
    let v = Array.unsafe_get table i in
    acc := !acc + v;
    Array.unsafe_set table i (v lxor (!acc land 0xFF))
  done;
  sink := !sink + !acc;
  float_of_int iterations /. (Unix.gettimeofday () -. t0)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* The timed slices of one run.  Every fourth slice is followed by a
   second kernel run, so the kernel's rate after a work slice can be
   compared with its rate after a kernel run: [pollution] near 1 means
   the work does not disturb the kernel, so calibration neither hides a
   slowdown nor rewards a change that uses more cache. *)
type meter = {
  mutable before : float; (* the kernel run just before the next slice *)
  mutable slices : (float * float * float) list; (* work, seconds, factor *)
  mutable after_work : float list;
  mutable after_cal : float list;
}

let meter () = { before = kernel (); slices = []; after_work = []; after_cal = [] }

(* Record a finished slice of [work] units done in [secs]; returns its
   factor, from the kernel runs on both sides of the slice: multiply a
   rate by it, or divide a time by it. *)
let record m ~work ~secs =
  let after = kernel () in
  m.after_work <- after :: m.after_work;
  let factor = nominal /. sqrt (m.before *. after) in
  m.slices <- (work, secs, factor) :: m.slices;
  m.before <- after;
  if List.length m.slices mod 4 = 1 then begin
    m.before <- kernel ();
    m.after_cal <- m.before :: m.after_cal
  end;
  factor

let calibrated_rate m = median (List.map (fun (w, s, f) -> w /. s *. f) m.slices)
let raw_rate m = median (List.map (fun (w, s, _) -> w /. s) m.slices)
let cal_rate m = median m.after_work
let pollution m = median m.after_work /. median m.after_cal
