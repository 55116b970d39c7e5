(* In-memory span recorder for the benchmark's calls into each layer.

   A span has a name, a start, an end and the span that was open when it
   began.  Spans stay in memory until [write_chrome] dumps them as Chrome
   trace-event JSON.  When tracing is off, [span] is a single branch
   around a direct call.  Spans are recorded from the main thread only. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float; pid : int }

let enabled = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 1

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans :=
          { id; parent; name; t0; t1 = Unix.gettimeofday (); pid = Unix.getpid () } :: !spans)
      f
  end

(* Spans recorded by another process (a set-up child), re-numbered so
   their ids cannot collide with ours. *)
let adopt (ss : span list) =
  let base = !next_id in
  let top = List.fold_left (fun m s -> max m s.id) 0 ss in
  next_id := base + top + 1;
  List.iter
    (fun s ->
      spans :=
        { s with id = base + s.id; parent = (if s.parent = 0 then 0 else base + s.parent) }
        :: !spans)
    ss

(* Self time per span name over [ss]: each span's duration minus the
   part of it covered by its direct children, summed per name. *)
let self_times (ss : span list) =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time (s.pid, s.parent)
          ((try Hashtbl.find child_time (s.pid, s.parent) with Not_found -> 0.)
          +. (s.t1 -. s.t0)))
    ss;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. (try Hashtbl.find child_time (s.pid, s.id) with Not_found -> 0.)
      in
      Hashtbl.replace by_name s.name
        ((try Hashtbl.find by_name s.name with Not_found -> 0.) +. self))
    ss;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let to_line s = Printf.sprintf "span %d %d %s %.6f %.6f" s.id s.parent s.name s.t0 s.t1

let of_line ~pid line =
  match String.split_on_char ' ' line with
  | [ "span"; id; parent; name; t0; t1 ] ->
    Some
      {
        id = int_of_string id;
        parent = int_of_string parent;
        name;
        t0 = float_of_string t0;
        t1 = float_of_string t1;
        pid;
      }
  | _ -> None

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let origin = List.fold_left (fun m s -> min m s.t0) infinity !spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":%d,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.pid s.id s.parent)
    (List.sort (fun a b -> compare a.t0 b.t0) !spans);
  output_string oc "]}\n";
  close_out oc
