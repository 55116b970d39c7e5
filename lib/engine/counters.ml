type t = {
  mutable cycles : int;
  mutable evals : int;
  mutable changed : int;
  mutable exams : int;
  mutable activations : int;
  mutable reg_commits : int;
  mutable reset_checks : int;
  mutable backend : string;
  mutable native_cache : string;
}

let create () =
  {
    cycles = 0;
    evals = 0;
    changed = 0;
    exams = 0;
    activations = 0;
    reg_commits = 0;
    reset_checks = 0;
    backend = "";
    native_cache = "";
  }

let clear t =
  t.cycles <- 0;
  t.evals <- 0;
  t.changed <- 0;
  t.exams <- 0;
  t.activations <- 0;
  t.reg_commits <- 0;
  t.reset_checks <- 0

let activity_factor t ~total_nodes =
  if t.cycles = 0 || total_nodes = 0 then 0.
  else float_of_int t.evals /. (float_of_int t.cycles *. float_of_int total_nodes)

(* [backend] and [native_cache] are reported only when set: the
   reference engine (which never sets them) keeps byte-identical output
   to before the fields existed. *)
let to_json t =
  Printf.sprintf
    "{\"cycles\":%d,\"evals\":%d,\"changed\":%d,\"exams\":%d,\"activations\":%d,\"reg_commits\":%d,\"reset_checks\":%d%s%s}"
    t.cycles t.evals t.changed t.exams t.activations t.reg_commits t.reset_checks
    (if t.backend = "" then "" else Printf.sprintf ",\"backend\":%S" t.backend)
    (if t.native_cache = "" then ""
     else Printf.sprintf ",\"native_cache\":%S" t.native_cache)

let pp fmt t =
  Format.fprintf fmt
    "cycles=%d evals=%d changed=%d exams=%d activations=%d reg_commits=%d reset_checks=%d%t"
    t.cycles t.evals t.changed t.exams t.activations t.reg_commits t.reset_checks
    (fun fmt ->
      if t.backend <> "" then Format.fprintf fmt " backend=%s" t.backend;
      if t.native_cache <> "" then Format.fprintf fmt " native_cache=%s" t.native_cache)
