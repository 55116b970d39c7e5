(* Ahead-of-time native backend: emit C for a circuit's expression nodes
   (Emit_c), compile it to a shared object, dlopen it, and expose the
   per-node functions over the runtime's arenas (narrow int arena, the
   flat wide mirror, and the wide Bits.t arena, whose limb words the
   generated code mutates in place).

   Compiled objects are cached on disk keyed by the structural
   Circuit.digest (the key Gsim.Compile uses too) tagged with the emitter
   ABI version, and memoized in-process so concurrent daemon workers and
   repeated jobs reuse one warm handle without touching the compiler or
   the filesystem. *)

open Gsim_ir
module Emit_c = Gsim_emit.Emit_c

external dlopen_so : string -> nativeint = "gsim_native_dlopen"
external load_table : nativeint -> int -> int array = "gsim_native_load_table"

(* [@@noalloc] keeps every domain out of safepoints while C runs, so the
   raw arena pointers the stubs pass stay valid for the whole call. *)
external call : int -> int array -> Bytes.t -> Gsim_bits.Bits.t array -> int
  = "gsim_native_call"
  [@@noalloc]

external run : int array -> int array -> Bytes.t -> Gsim_bits.Bits.t array -> int
  = "gsim_native_run"
  [@@noalloc]

type unit_t = {
  digest : string;
  so_path : string;
  c_path : string;
  fns : int array;  (* per node id: tagged function pointer, 0 = none *)
  compiled_nodes : int;
}

type origin = Memo_hit | Disk_hit | Compiled

(* ------------------------------------------------------------------ *)
(* Environment switches                                                *)
(* ------------------------------------------------------------------ *)

(* GSIM_NATIVE=off disables the backend entirely (tests and the
   no-compiler CI job use it to exercise the fallback to closures).
   GSIM_CC overrides compiler discovery; both are re-read on every call
   so a test can flip them at runtime. *)
let enabled () =
  match Sys.getenv_opt "GSIM_NATIVE" with
  | Some ("off" | "0" | "no" | "false") -> false
  | _ -> true

let path_search exe =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char ':' path
    |> List.find_map (fun dir ->
           if dir = "" then None
           else
             let p = Filename.concat dir exe in
             if Sys.file_exists p then Some p else None)

(* Discovery result for the default (no GSIM_CC) case, memoized: probing
   PATH once per process is enough. *)
let discovered = ref None

let find_compiler () =
  match Sys.getenv_opt "GSIM_CC" with
  | Some "" -> None
  | Some cc -> Some cc
  | None -> (
    match !discovered with
    | Some r -> r
    | None ->
      let r = List.find_map path_search [ "cc"; "gcc"; "clang" ] in
      discovered := Some r;
      r)

let available () = enabled () && find_compiler () <> None

(* ------------------------------------------------------------------ *)
(* Disk cache                                                          *)
(* ------------------------------------------------------------------ *)

let cache_dir () =
  match Sys.getenv_opt "GSIM_NATIVE_CACHE" with
  | Some d when d <> "" -> d
  | _ -> (
    let sub base = Filename.concat base (Filename.concat "gsim" "native") in
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> sub d
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> sub (Filename.concat h ".cache")
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "gsim-native"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let key_of_digest d =
  Digest.to_hex (Digest.string (Printf.sprintf "gsim-native-abi%d\n%s" Emit_c.abi_version d))

let object_path c = Filename.concat (cache_dir ()) (key_of_digest (Circuit.digest c) ^ ".so")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable compiles : int;
  mutable disk_hits : int;
  mutable memo_hits : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable evictions : int;
}

let stats =
  { compiles = 0; disk_hits = 0; memo_hits = 0; failures = 0; timeouts = 0; evictions = 0 }

(* Guards the memo table and [stats], never a compile: see [load]. *)
let memo_lock = Mutex.create ()

let count f = Mutex.protect memo_lock (fun () -> f stats)

(* GSIM_NATIVE_CACHE_MB bounds the on-disk object cache (default
   512 MiB; 0 = unlimited).  Eviction is LRU by the .so's mtime, which
   [load_uncached] refreshes on every disk hit. *)
let cache_quota_bytes () =
  match Sys.getenv_opt "GSIM_NATIVE_CACHE_MB" with
  | Some s -> (
    match int_of_string_opt s with
    | Some mb when mb >= 0 -> mb * 1024 * 1024
    | _ -> 512 * 1024 * 1024)
  | None -> 512 * 1024 * 1024

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let prune_cache ?keep dir =
  let quota = cache_quota_bytes () in
  if quota > 0 then begin
    let entries =
      (try Array.to_list (Sys.readdir dir) with Sys_error _ -> [])
      |> List.filter_map (fun f ->
             if not (Filename.check_suffix f ".so") then None
             else
               let digest = Filename.chop_suffix f ".so" in
               let so = Filename.concat dir f in
               let c = Filename.concat dir (digest ^ ".c") in
               match Unix.stat so with
               | st -> Some (st.Unix.st_mtime, digest, st.Unix.st_size + file_size c)
               | exception Unix.Unix_error _ -> None)
    in
    let total = List.fold_left (fun a (_, _, b) -> a + b) 0 entries in
    if total > quota then begin
      let excess = ref (total - quota) in
      List.iter
        (fun (_, digest, bytes) ->
          if !excess > 0 && keep <> Some digest then begin
            (try Sys.remove (Filename.concat dir (digest ^ ".so")) with Sys_error _ -> ());
            (try Sys.remove (Filename.concat dir (digest ^ ".c")) with Sys_error _ -> ());
            excess := !excess - bytes;
            count (fun s -> s.evictions <- s.evictions + 1)
          end)
        (List.sort compare entries)
    end
  end

(* ------------------------------------------------------------------ *)
(* Compile + load                                                      *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* How long a single cc run may take before it is killed.  A compiler
   driven into pathological behaviour by generated code (or a wedged
   distcc wrapper) must not hold a worker hostage: the job falls back to
   closures instead. *)
let cc_timeout_seconds () =
  match Sys.getenv_opt "GSIM_CC_TIMEOUT" with
  | Some s -> ( match float_of_string_opt s with Some t when t > 0. -> t | _ -> 120.)
  | None -> 120.

(* Run [cmd] through the shell with a kill-on-timeout guard.
   [Unix.create_process] rather than [Unix.fork]: workers are domains,
   and OCaml 5 forbids fork once domains exist (create_process spawns
   without forking the runtime).  On timeout the driver gets SIGTERM —
   cc/gcc/clang drivers forward it to their cc1/as/ld children and clean
   up — then SIGKILL after a short grace.  Returns the shell's exit
   status, or [Error] on timeout. *)
let run_guarded cmd ~timeout =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process "/bin/sh"
          [| "/bin/sh"; "-c"; cmd |]
          null Unix.stdout Unix.stderr)
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED rc -> rc
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 128
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> 127
  in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap ());
        Error ()
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
    | _, Unix.WEXITED rc -> Ok rc
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Ok 128
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> Ok 127
  in
  wait ()

let compile_so ~cc ~c_path ~so_path =
  (* Build into a pid-unique temp and rename: concurrent processes
     compiling the same digest race benignly (rename is atomic and both
     objects are identical). *)
  let tmp = Printf.sprintf "%s.%d.tmp" so_path (Unix.getpid ()) in
  let log = tmp ^ ".log" in
  let cmd =
    Printf.sprintf "%s -O2 -shared -fPIC -o %s %s 2> %s" cc (Filename.quote tmp)
      (Filename.quote c_path) (Filename.quote log)
  in
  let timeout = cc_timeout_seconds () in
  match run_guarded cmd ~timeout with
  | Error () ->
    count (fun s -> s.timeouts <- s.timeouts + 1);
    (try Sys.remove log with Sys_error _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    Error
      (Printf.sprintf "cc timed out after %.0f s and was killed; using the interpreter"
         timeout)
  | Ok rc ->
    let diag =
      if rc = 0 then ""
      else
        try
          let ic = open_in log in
          let line = try input_line ic with End_of_file -> "" in
          close_in ic;
          line
        with Sys_error _ -> ""
    in
    (try Sys.remove log with Sys_error _ -> ());
    if rc <> 0 then begin
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "cc exited %d%s" rc (if diag = "" then "" else ": " ^ diag))
    end
    else begin
      Sys.rename tmp so_path;
      Ok ()
    end

let bind_so ~digest ~so_path ~c_path ~compiled_nodes =
  let handle = dlopen_so so_path in
  let fns = load_table handle Emit_c.abi_version in
  { digest; so_path; c_path; fns; compiled_nodes }

(* Process-wide memo: key -> entry.  Negative results (compile/bind
   failures) are memoized too, so a broken compiler is probed once per
   circuit rather than once per engine instance.  A key whose object is
   being built maps to [Building]; its other loaders wait on [built] for
   that result instead of compiling again (two builds of one key in this
   process would share the pid-unique temp object). *)
type entry = Building | Built of unit_t option

let memo : (string, entry) Hashtbl.t = Hashtbl.create 16
let built = Condition.create ()

let load_uncached c key =
  match find_compiler () with
  | None -> None
  | Some cc ->
    let dir = cache_dir () in
    (try mkdir_p dir with Unix.Unix_error _ | Sys_error _ -> ());
    let so_path = Filename.concat dir (key ^ ".so") in
    let c_path = Filename.concat dir (key ^ ".c") in
    let failed msg =
      count (fun s -> s.failures <- s.failures + 1);
      prerr_endline ("gsim: native backend: " ^ msg);
      None
    in
    let build () =
      let r = Emit_c.emit c in
      try
        write_file c_path r.Emit_c.source;
        match compile_so ~cc ~c_path ~so_path with
        | Error msg -> failed msg
        | Ok () ->
          let u =
            bind_so ~digest:key ~so_path ~c_path ~compiled_nodes:r.Emit_c.compiled_nodes
          in
          count (fun s -> s.compiles <- s.compiles + 1);
          prune_cache ~keep:key dir;
          Some (u, Compiled)
      with Failure msg | Sys_error msg -> failed msg
    in
    if Sys.file_exists so_path then begin
      (* Skip emission entirely: only the per-node gate is needed to
         report how many nodes the cached object covers. *)
      let compiled_nodes =
        Circuit.fold_nodes c ~init:0 ~f:(fun acc nd ->
            if Emit_c.compilable c nd then acc + 1 else acc)
      in
      match bind_so ~digest:key ~so_path ~c_path ~compiled_nodes with
      | u ->
        count (fun s -> s.disk_hits <- s.disk_hits + 1);
        (* Refresh recency so the quota pruner evicts cold digests first. *)
        (try Unix.utimes so_path 0. 0. with Unix.Unix_error _ -> ());
        Some (u, Disk_hit)
      | exception Failure msg ->
        (* A stale object (truncated by a crash, or otherwise unloadable)
           is replaced, not trusted: rebuild it once, here. *)
        prerr_endline ("gsim: native backend: rebuilding stale cache object: " ^ msg);
        (try Sys.remove so_path with Sys_error _ -> ());
        build ()
    end
    else build ()

(* [memo_lock] is held only for the table: emit, [cc] and [dlopen] run
   outside it, so a memo hit never waits for another circuit's compile. *)
let load ?digest c =
  if not (enabled ()) then None
  else begin
    let key = key_of_digest (match digest with Some d -> d | None -> Circuit.digest c) in
    let rec lookup () =
      match Hashtbl.find_opt memo key with
      | Some Building ->
        Condition.wait built memo_lock;
        lookup ()
      | Some (Built (Some u)) ->
        stats.memo_hits <- stats.memo_hits + 1;
        `Done (Some (u, Memo_hit))
      | Some (Built None) -> `Done None
      | None ->
        Hashtbl.replace memo key Building;
        `Build
    in
    match Mutex.protect memo_lock lookup with
    | `Done r -> r
    | `Build ->
      let settle update =
        Mutex.protect memo_lock (fun () ->
            update ();
            Condition.broadcast built)
      in
      (match load_uncached c key with
       | r ->
         settle (fun () -> Hashtbl.replace memo key (Built (Option.map fst r)));
         r
       | exception e ->
         (* Unexpected: leave the key unbuilt so a waiter retries. *)
         settle (fun () -> Hashtbl.remove memo key);
         raise e)
  end

(* ------------------------------------------------------------------ *)
(* Evaluator surface                                                   *)
(* ------------------------------------------------------------------ *)

let has_fn u id = id < Array.length u.fns && u.fns.(id) <> 0

let node_evaluator u rt id =
  let fn = u.fns.(id) in
  if fn = 0 then invalid_arg "Native.node_evaluator: node has no native function";
  let arena = Runtime.narrow_values rt in
  let wflat = Runtime.wide_flat rt in
  let wide = Runtime.wide_values rt in
  fun () -> call fn arena wflat wide <> 0

let run_step u rt ids =
  let fns =
    Array.map
      (fun id ->
        let fn = u.fns.(id) in
        if fn = 0 then invalid_arg "Native.run_step: node has no native function";
        fn)
      ids
  in
  let arena = Runtime.narrow_values rt in
  let wflat = Runtime.wide_flat rt in
  let wide = Runtime.wide_values rt in
  fun () -> run fns arena wflat wide
