open Mj.Ast

(* Port signature of an ASR class: constant arguments of the
   declarePorts call made along the constructor chain that instantiates
   it with no arguments. Superclass constructors run first, so the call
   nearest the class itself wins. *)
let port_signature facts graph cls_name =
  let found = ref None in
  List.iter
    (fun node ->
      List.iter
        (fun body ->
          Mj.Visit.iter_exprs
            (fun e ->
              match e.expr with
              | Call { mname = "declarePorts"; args = [ a; b ]; _ } -> (
                  match
                    ( Analysis.Const_eval.const_int facts a,
                      Analysis.Const_eval.const_int facts b )
                  with
                  | Some n_in, Some n_out -> found := Some (Some (n_in, n_out))
                  | _ -> found := Some None)
              | _ -> ())
            body.Mj.Visit.b_stmts)
        (Analysis.Call_graph.bodies graph node))
    (List.rev (Analysis.Call_graph.constructors graph cls_name 0));
  !found

(* Occurrences of port operations in the reactive code of [cls]:
   (port number option, conditional?, in-loop?, location). *)
type port_access = {
  pa_port : int option;
  pa_conditional : bool;
  pa_loc : Mj.Loc.t;
  pa_subject : string;
}

let port_accesses facts graph cls_name ~methods_of_interest =
  let run = Analysis.Call_graph.method_node graph cls_name "run" in
  let accesses = ref [] in
  List.iter
    (fun node ->
      (* A call found in any method other than run itself counts as
         conditional: we cannot cheaply prove the call site fires
         exactly once. *)
      let in_run = run = Some node in
      List.iter
        (fun body ->
          let rec walk ~conditional stmts =
            List.iter (walk_stmt ~conditional) stmts
          and walk_stmt ~conditional s =
            match s.stmt with
            | Block stmts -> walk ~conditional stmts
            | If (c, t, f) ->
                scan_expr ~conditional c;
                walk_stmt ~conditional:true t;
                Option.iter (walk_stmt ~conditional:true) f
            | While (c, body) ->
                scan_expr ~conditional:true c;
                walk_stmt ~conditional:true body
            | Do_while (body, c) ->
                (* a do-while body runs at least once, but possibly more *)
                scan_expr ~conditional:true c;
                walk_stmt ~conditional:true body
            | For (init, cond, update, body) ->
                (match init with
                | Some (For_var (_, _, Some e)) | Some (For_expr e) ->
                    scan_expr ~conditional e
                | Some (For_var (_, _, None)) | None -> ());
                Option.iter (scan_expr ~conditional:true) cond;
                Option.iter (scan_expr ~conditional:true) update;
                walk_stmt ~conditional:true body
            | Var_decl (_, _, init) -> Option.iter (scan_expr ~conditional) init
            | Expr e | Return (Some e) -> scan_expr ~conditional e
            | Super_call args -> List.iter (scan_expr ~conditional) args
            | Return None | Break | Continue | Empty -> ()
          and scan_expr ~conditional e =
            Mj.Visit.iter_stmts
              [ { stmt = Expr e; sloc = e.eloc } ]
              ~stmt:(fun _ -> ())
              ~expr:(fun e ->
                match e.expr with
                | Call { mname; args = port_arg :: _; _ }
                  when List.mem mname methods_of_interest ->
                    accesses :=
                      { pa_port = Analysis.Const_eval.const_int facts port_arg;
                        pa_conditional = conditional || not in_run;
                        pa_loc = e.eloc;
                        pa_subject = Analysis.Call_graph.node_name node }
                      :: !accesses
                | Call { mname; args = []; _ }
                  when List.mem mname methods_of_interest ->
                    accesses :=
                      { pa_port = None; pa_conditional = true; pa_loc = e.eloc;
                        pa_subject = Analysis.Call_graph.node_name node }
                      :: !accesses
                | _ -> ())
          in
          walk ~conditional:false body.Mj.Visit.b_stmts)
        (Analysis.Call_graph.bodies graph node))
    (Analysis.Call_graph.reachable graph ~roots:(Option.to_list run));
  List.rev !accesses

let rec rule_static_ports =
  { Rule.id = "D0-static-ports";
    title = "the port signature must be a compile-time constant";
    paper_ref = "SDF extension: static actor signatures";
    check = check_static_ports }

and check_static_ports checked =
  let graph = Analysis.Call_graph.build checked in
  let facts = Analysis.Facts.of_checked checked in
  List.filter_map
    (fun cls ->
      match port_signature facts graph cls with
      | Some (Some _) -> None
      | Some None | None ->
          let decl = find_class checked.Mj.Typecheck.program cls in
          Some
            (Rule.make_violation ~rule:rule_static_ports
               ~loc:(match decl with Some d -> d.cl_loc | None -> Mj.Loc.dummy)
               ~subject:cls
               ~fixes:
                 [ Rule.Manual
                     "call declarePorts with integer constants in the \
                      constructor" ]
               "port signature is not statically known"))
    (Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "ASR")

let single_rate ~rule ~direction ~count_of ~methods checked =
  let graph = Analysis.Call_graph.build checked in
  let facts = Analysis.Facts.of_checked checked in
  List.concat_map
    (fun cls ->
      match port_signature facts graph cls with
      | Some (Some signature) ->
          let n_ports = count_of signature in
          let accesses =
            port_accesses facts graph cls ~methods_of_interest:methods
          in
          let violations = ref [] in
          List.iter
            (fun access ->
              match access.pa_port with
              | None ->
                  violations :=
                    Rule.make_violation ~rule ~loc:access.pa_loc
                      ~subject:access.pa_subject
                      ~fixes:[ Rule.Manual "use a constant port number" ]
                      (Printf.sprintf "%s port is not a constant" direction)
                    :: !violations
              | Some _ when access.pa_conditional ->
                  violations :=
                    Rule.make_violation ~rule ~loc:access.pa_loc
                      ~subject:access.pa_subject
                      ~fixes:
                        [ Rule.Manual
                            (Printf.sprintf
                               "hoist the %s out of the loop/branch so every \
                                firing transfers exactly one token"
                               direction) ]
                      (Printf.sprintf "conditional %s access" direction)
                    :: !violations
              | Some _ -> ())
            accesses;
          (* exactly one unconditional access per port *)
          for port = 0 to n_ports - 1 do
            let hits =
              List.filter
                (fun a -> a.pa_port = Some port && not a.pa_conditional)
                accesses
            in
            match hits with
            | [ _ ] -> ()
            | [] ->
                let decl = find_class checked.Mj.Typecheck.program cls in
                violations :=
                  Rule.make_violation ~rule
                    ~loc:(match decl with Some d -> d.cl_loc | None -> Mj.Loc.dummy)
                    ~subject:(cls ^ ".run")
                    ~fixes:
                      [ Rule.Manual
                          (Printf.sprintf "add exactly one %s of port %d per firing"
                             direction port) ]
                    (Printf.sprintf "port %d has no unconditional %s" port direction)
                  :: !violations
            | _ :: _ :: _ ->
                List.iter
                  (fun a ->
                    violations :=
                      Rule.make_violation ~rule ~loc:a.pa_loc ~subject:a.pa_subject
                        ~fixes:
                          [ Rule.Manual
                              (Printf.sprintf
                                 "merge the multiple %ss of port %d into one"
                                 direction port) ]
                        (Printf.sprintf "port %d is %s more than once" port
                           direction)
                      :: !violations)
                  hits
          done;
          List.rev !violations
      | Some None | None -> [])
    (Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "ASR")

let rec rule_single_reads =
  { Rule.id = "D1-single-rate-reads";
    title = "every input port is read exactly once per firing";
    paper_ref = "SDF extension: unit consumption rates";
    check =
      (fun checked ->
        single_rate ~rule:rule_single_reads ~direction:"read" ~count_of:fst
          ~methods:[ "readPort"; "readPortArray" ] checked) }

let rec rule_single_writes =
  { Rule.id = "D2-single-rate-writes";
    title = "every output port is written exactly once per firing";
    paper_ref = "SDF extension: unit production rates";
    check =
      (fun checked ->
        single_rate ~rule:rule_single_writes ~direction:"write" ~count_of:snd
          ~methods:[ "writePort"; "writePortArray" ] checked) }

let rec rule_no_presence =
  { Rule.id = "D3-no-presence-test";
    title = "token absence is not observable in dataflow";
    paper_ref = "SDF extension: blocking reads";
    check = check_no_presence }

and check_no_presence checked =
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun body ->
          let violations = ref [] in
          Mj.Visit.iter_exprs
            (fun e ->
              match e.expr with
              | Call { mname = "portPresent"; _ } ->
                  violations :=
                    Rule.make_violation ~rule:rule_no_presence ~loc:e.eloc
                      ~subject:(Mj.Visit.body_name body)
                      ~fixes:
                        [ Rule.Manual
                            "restructure so every firing consumes its tokens \
                             unconditionally" ]
                      "portPresent used"
                    :: !violations
              | _ -> ())
            body.Mj.Visit.b_stmts;
          List.rev !violations)
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.classes

(* Boundedness rules shared with the ASR policy. *)
let shared_rule_ids =
  [ "R1-no-threads"; "R2-no-reactive-allocation"; "R3-no-while-loops";
    "R4-bounded-for-loops"; "R5-no-recursion"; "R7-no-finalizers" ]

let rules =
  [ rule_static_ports; rule_single_reads; rule_single_writes; rule_no_presence ]
  @ List.filter
      (fun r -> List.mem r.Rule.id shared_rule_ids)
      Asr_policy.rules

let rule_ids = List.map (fun r -> r.Rule.id) rules

let check checked =
  Rule.order_violations (List.concat_map (fun r -> r.Rule.check checked) rules)

let compliant checked = not (List.exists Rule.is_blocking (check checked))
