(* End-to-end tests of the gsim binary.

   - Every --json command prints exactly one JSON value on stdout.
   - Each local/remote pair (sim, fault campaign, fuzz run, cov collect)
     run on the same job against a `gsim serve` daemon prints the same
     result object, apart from the fields only one runner has, and writes
     byte-identical databases. *)

let gsim = Filename.concat (Sys.getcwd ()) "../bin/gsim_cli.exe"
let gray = Filename.concat (Sys.getcwd ()) "../examples/gray.fir"

(* --- a minimal JSON reader ------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let fail what = raise (Bad_json (Printf.sprintf "%s at offset %d" what !pos)) in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' -> incr pos; skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
         | 'u' -> Buffer.add_string b (String.sub text !pos 5); pos := !pos + 4
         | c -> Buffer.add_char b c);
        incr pos;
        go ()
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    let v =
      match peek () with
      | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = string () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
      | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
      | '"' -> Str (string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' ->
        let start = !pos in
        while
          match peek () with
          | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
          | _ -> false
        do
          incr pos
        done;
        Num (String.sub text start (!pos - start))
      | _ -> fail "unexpected character"
    in
    skip ();
    v
  in
  let v = value () in
  if !pos <> n then fail "trailing text after the JSON value";
  v

let without keys = function
  | Obj fields -> Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | v -> v

let keys = function Obj fields -> List.map fst fields | _ -> []

(* --- running the binary -------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs gsim in the current directory; returns stdout.  A nonzero exit
   fails the test with stderr attached. *)
let run args =
  let out = Filename.temp_file "gsim" ".out" and err = Filename.temp_file "gsim" ".err" in
  let rc = Sys.command (Filename.quote_command gsim args ~stdout:out ~stderr:err) in
  let stdout = read_file out in
  let stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  if rc <> 0 then
    Alcotest.failf "gsim %s exited %d: %s" (String.concat " " args) rc stderr;
  stdout

let run_json args =
  let out = run args in
  match parse_json out with
  | v -> v
  | exception Bad_json why ->
    Alcotest.failf "gsim %s: stdout is not one JSON value (%s):\n%s" (String.concat " " args)
      why out

let in_temp_dir f =
  let dir = Filename.temp_dir "gsim-cli" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect f ~finally:(fun () ->
      Sys.chdir cwd;
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))

let pp_json ppf v =
  let rec go = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Num s -> s
    | Str s -> Printf.sprintf "%S" s
    | Arr l -> "[" ^ String.concat "," (List.map go l) ^ "]"
    | Obj l -> "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (go v)) l) ^ "}"
  in
  Format.pp_print_string ppf (go v)

let json = Alcotest.testable pp_json ( = )

(* --- tests ---------------------------------------------------------------- *)

let local_json_is_one_value () =
  in_temp_dir @@ fun () ->
  let sim = run_json [ "sim"; gray; "-n"; "40"; "-p"; "en=1"; "--json"; "--coverage"; "c.cov";
                       "--save-checkpoint"; "ck" ] in
  Alcotest.(check bool) "sim object has outputs" true (List.mem "outputs" (keys sim));
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists "ck");
  ignore (run_json [ "sim"; gray; "-n"; "60"; "-p"; "en=1"; "--json"; "--shadow-stride"; "20";
                     "--checkpoint-dir"; "ring"; "--save-checkpoint"; "ck2" ]);
  ignore (run_json [ "run"; "stucore"; "quick"; "--json"; "--coverage"; "r.cov" ]);
  ignore (run_json [ "fault"; "campaign"; gray; "-p"; "en=1"; "--faults"; "5"; "-n"; "30";
                     "--db"; "f.fdb"; "--json" ]);
  ignore (run_json [ "fault"; "report"; "f.fdb"; "--json"; "--faults" ]);
  ignore (run_json [ "fuzz"; "run"; "--seed"; "3"; "-n"; "2"; "--setups"; "gsim+closures";
                     "-d"; "fz"; "--json" ]);
  ignore (run_json [ "fuzz"; "report"; "fz"; "--json" ]);
  ignore (run_json [ "cov"; "collect"; gray; "-p"; "en=1"; "-n"; "50"; "-o"; "g.cov"; "--json" ]);
  ignore (run_json [ "cov"; "collect"; "stucore"; "quick"; "-n"; "500"; "-o"; "s.cov"; "--json" ]);
  ignore (run_json [ "cov"; "report"; "g.cov"; "--json" ])

let with_daemon f =
  let sock = Filename.concat (Sys.getcwd ()) "gsimd.sock" in
  let log = Unix.openfile "gsimd.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process gsim
      [| gsim; "serve"; "--listen"; sock; "--workers"; "1"; "--spool"; "spool" |]
      Unix.stdin log log
  in
  Unix.close log;
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  let rec wait n =
    if not (Sys.file_exists sock) then
      if n = 0 then Alcotest.fail "gsim serve did not create its socket"
      else (Unix.sleepf 0.05; wait (n - 1))
  in
  wait 200;
  f sock;
  ignore (run [ "remote"; "shutdown"; "--to"; sock ]);
  stopped := true;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "gsim serve did not drain cleanly"

let same_bytes what a b =
  Alcotest.(check bool) (what ^ " databases are byte-identical") true (read_file a = read_file b)

(* Fields only one runner has: the local engine counters, and the
   daemon's plan-cache, compile-time and preemption verdicts. *)
let local_only = [ "counters" ]
let remote_only = [ "cache_hit"; "compile_seconds"; "preemptions" ]

let check_pair what local remote =
  Alcotest.(check json) (what ^ ": same result object") (without local_only local)
    (without remote_only remote)

let local_and_remote_agree () =
  in_temp_dir @@ fun () ->
  with_daemon @@ fun sock ->
  let remote args = run_json ("remote" :: List.hd args :: "--to" :: sock :: List.tl args) in
  let design = [ gray; "-p"; "en=1" ] in
  check_pair "sim"
    (run_json ([ "sim" ] @ design @ [ "-n"; "40"; "--json" ]))
    (remote ([ "sim" ] @ design @ [ "-n"; "40"; "--json" ]));
  let campaign = design @ [ "--faults"; "6"; "--seed"; "3"; "-n"; "40"; "--budget"; "15"; "--json" ] in
  check_pair "campaign"
    (run_json ([ "fault"; "campaign" ] @ campaign @ [ "--db"; "local.fdb" ]))
    (remote ([ "campaign" ] @ campaign @ [ "-o"; "remote.fdb" ]));
  same_bytes "campaign" "local.fdb" "remote.fdb";
  let fuzz = [ "--seed"; "2"; "-n"; "3"; "--setups"; "gsim+closures"; "--json" ] in
  check_pair "fuzz"
    (run_json ([ "fuzz"; "run" ] @ fuzz @ [ "-d"; "local-fuzz" ]))
    (remote ([ "fuzz" ] @ fuzz @ [ "-o"; "remote-fuzz.db" ]));
  same_bytes "fuzz" "local-fuzz/fuzz.db" "remote-fuzz.db";
  let cov = design @ [ "-n"; "100"; "--json" ] in
  check_pair "cov"
    (run_json ([ "cov"; "collect" ] @ cov @ [ "-o"; "local.cov" ]))
    (remote ([ "cov" ] @ cov @ [ "-o"; "remote.cov" ]));
  same_bytes "cov" "local.cov" "remote.cov";
  match run_json [ "remote"; "status"; "--to"; sock; "--json" ] with
  | Obj fields ->
    Alcotest.(check json) "four jobs completed" (Num "4") (List.assoc "completed" fields)
  | _ -> Alcotest.fail "status is not an object"

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "--json prints exactly one JSON value" `Quick
            local_json_is_one_value;
          Alcotest.test_case "local and remote runs of one job agree" `Quick
            local_and_remote_agree;
        ] );
    ]
