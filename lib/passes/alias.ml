open Gsim_ir

(* Aliases are resolved in one batched sweep: chains are followed to their
   final target first, then every expression is rewritten once.  This keeps
   the pass linear even on elaboration output where alias chains are long. *)
let run c =
  let protected = Analysis.port_protected c in
  let nmax = Circuit.max_id c in
  (* target.(id) = Some replacement expression for nodes being dissolved. *)
  let target : Expr.t option array = Array.make nmax None in
  let is_alias = Array.make nmax false in
  Circuit.iter_nodes c (fun n ->
      if n.Circuit.kind = Circuit.Logic && not n.Circuit.is_output then begin
        match n.Circuit.expr with
        | Some ({ Expr.desc = Expr.Var _; _ } as e) ->
          target.(n.Circuit.id) <- Some e;
          is_alias.(n.Circuit.id) <- true
        | Some ({ Expr.desc = Expr.Const _; _ } as e) when not protected.(n.Circuit.id) ->
          target.(n.Circuit.id) <- Some e;
          is_alias.(n.Circuit.id) <- true
        | Some _ | None -> ()
      end);
  (* Follow alias chains with path compression. *)
  let rec resolve id =
    match target.(id) with
    | Some { Expr.desc = Expr.Var v; _ } when is_alias.(v) ->
      let final = resolve v in
      target.(id) <- Some final;
      final
    | Some e -> e
    | None -> Expr.var ~width:(Circuit.node c id).Circuit.width id
  in
  for id = 0 to nmax - 1 do
    if is_alias.(id) then ignore (resolve id)
  done;
  (* Ports and resets name nodes, not expressions: a port-referenced
     alias whose chain ends in a constant must survive as a node (its own
     expression folds to the constant below). *)
  let changed = ref 0 in
  for id = 0 to nmax - 1 do
    if is_alias.(id) then
      match target.(id) with
      | Some { Expr.desc = Expr.Const _; _ } when protected.(id) ->
        is_alias.(id) <- false;
        target.(id) <- None
      | Some _ | None -> incr changed
  done;
  if !changed > 0 then begin
    let subst ~width v =
      if v < nmax && is_alias.(v) then begin
        match target.(v) with
        | Some e ->
          assert (Expr.width e = width);
          e
        | None -> Expr.var ~width v
      end
      else Expr.var ~width v
    in
    Circuit.iter_nodes c (fun n ->
        match n.Circuit.expr with
        | Some e ->
          let e' = Expr.map_vars subst e in
          if not (e' == e) then n.Circuit.expr <- Some e'
        | None -> ());
    (* Port and reset references are plain ids; only Var targets apply
       (port-protected ids never resolve to a Const: see above). *)
    let fix id =
      if id < nmax && is_alias.(id) then begin
        match target.(id) with
        | Some { Expr.desc = Expr.Var v; _ } -> v
        | Some _ | None -> id
      end
      else id
    in
    Array.iter
      (fun (m : Circuit.memory) ->
        m.Circuit.write_ports <-
          List.map
            (fun (w : Circuit.write_port) ->
              { Circuit.w_addr = fix w.w_addr; w_data = fix w.w_data; w_en = fix w.w_en })
            m.Circuit.write_ports;
        List.iter
          (fun data_id ->
            match (Circuit.node c data_id).Circuit.kind with
            | Circuit.Mem_read pi ->
              let p = Circuit.read_port c pi in
              let p' =
                { p with Circuit.r_addr = fix p.Circuit.r_addr; r_en = Option.map fix p.Circuit.r_en }
              in
              if p' <> p then
                (* Rewrite through a Var-only replace_uses would be O(N);
                   patch the port in place instead. *)
                Circuit.replace_read_port c pi p'
            | _ -> ())
          m.Circuit.read_port_ids)
      (Circuit.memories c);
    List.iter
      (fun (r : Circuit.register) ->
        match r.Circuit.reset with
        | Some rst ->
          let s = fix rst.Circuit.reset_signal in
          if s <> rst.Circuit.reset_signal then
            r.Circuit.reset <- Some { rst with Circuit.reset_signal = s }
        | None -> ())
      (Circuit.registers c);
    for id = 0 to nmax - 1 do
      if is_alias.(id) then Circuit.delete_node c id
    done
  end;
  !changed

let pass = { Pass.pass_name = "alias"; run }
