open Gsim_ir
module Pass = Gsim_passes.Pass
module Pipeline = Gsim_passes.Pipeline

type culprit =
  | Guilty_pass of { pass : string; application : int }
  | Guilty_backend of string
  | Guilty_engine of string
  | Inconclusive of string

let culprit_token = function
  | Guilty_pass { pass; _ } -> "pass:" ^ pass
  | Guilty_backend b -> "backend:" ^ b
  | Guilty_engine e -> "engine:" ^ e
  | Inconclusive _ -> "unknown"

let culprit_to_string = function
  | Guilty_pass { pass; application } ->
    Printf.sprintf "pass %s (application %d)" pass application
  | Guilty_backend b -> Printf.sprintf "backend %s" b
  | Guilty_engine e -> Printf.sprintf "engine %s" e
  | Inconclusive why -> Printf.sprintf "inconclusive (%s)" why

(* [test] must run the failing subject's engine+backend at O0 on the given
   circuit (no further optimization) and report whether the recorded
   failure class reproduces; it must not mutate the circuit.  [test_alt]
   is the same engine with the other evaluation backend.

   If the unoptimized circuit already fails, the pipeline is innocent and
   the blame splits between backend and engine.  Otherwise we replay the
   exact stage plan the failing opt level runs ({!Pipeline.plan}, same
   fixpoint bounds), validating after every pass application and
   re-testing after every one that rewrote something; the first
   application after which the IR is invalid or the failure appears is the
   culprit. *)
let run ~level ~engine_name ~backend_name ?test_alt ~test circuit =
  if test circuit then
    match test_alt with
    | Some test_alt ->
      if test_alt circuit then Guilty_engine engine_name
      else Guilty_backend backend_name
    | None -> Guilty_engine engine_name
  else begin
    let work = Circuit.copy circuit in
    let app = ref 0 in
    let result = ref None in
    (try
       List.iter
         (fun (stage : Pipeline.stage) ->
           let rounds = ref 0 in
           let stage_done = ref false in
           while (not !stage_done) && !rounds < stage.Pipeline.stage_max_rounds do
             let changed = ref false in
             List.iter
               (fun (p : Pass.t) ->
                 if !result = None then begin
                   let o = Pass.apply p work in
                   incr app;
                   (* The optimizer validates once per pipeline; here every
                      application is checked, so a pass that breaks the IR
                      is blamed by name. *)
                   let broken =
                     match Circuit.validate work with
                     | () -> false
                     | exception (Failure _ | Circuit.Combinational_cycle _) -> true
                   in
                   if o.Pass.rewrites > 0 then changed := true;
                   if broken || (o.Pass.rewrites > 0 && test work) then
                     result :=
                       Some (Guilty_pass { pass = p.Pass.pass_name; application = !app })
                 end)
               stage.Pipeline.stage_passes;
             incr rounds;
             if (not !changed) || !result <> None then stage_done := true
           done)
         (Pipeline.plan level)
     with e ->
       result :=
         Some (Inconclusive ("bisection crashed: " ^ Printexc.to_string e)));
    match !result with
    | Some r -> r
    | None ->
      Inconclusive
        "failure did not reproduce under the linearized pipeline replay"
  end
