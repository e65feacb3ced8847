open Mj.Ast

(* ------------------------------------------------------------------ *)
(* R1: no threads                                                      *)
(* ------------------------------------------------------------------ *)

let rec rule_no_threads =
  { Rule.id = "R1-no-threads";
    title = "direct use of Java threads is prohibited";
    paper_ref =
      "§4.3: \"direct use of Java threads is prohibited, and concurrency is \
       obtained through specification of separate functional blocks\"";
    check = check_no_threads }

and check_no_threads checked =
  let threads = Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "Thread" in
  let violations = ref [] in
  let manual =
    Rule.Manual
      "express each thread as a separate ASR functional block; communicate \
       through channels instead of shared variables"
  in
  List.iter
    (fun cls ->
      if List.mem cls.cl_name threads then
        violations :=
          Rule.make_violation ~rule:rule_no_threads ~loc:cls.cl_loc
            ~subject:cls.cl_name ~fixes:[ manual ]
            (Printf.sprintf "class '%s' extends Thread" cls.cl_name)
          :: !violations;
      List.iter
        (fun body ->
          Mj.Visit.iter_exprs
            (fun e ->
              match e.expr with
              | Call { mname = ("start" | "join" | "yield") as mname; resolved = Some r; _ }
                when String.equal r.rc_class "Thread" ->
                  violations :=
                    Rule.make_violation ~rule:rule_no_threads ~loc:e.eloc
                      ~subject:(Mj.Visit.body_name body) ~fixes:[ manual ]
                      (Printf.sprintf "call to Thread.%s" mname)
                    :: !violations
              | _ -> ())
            body.Mj.Visit.b_stmts)
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.classes;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* R2: allocation only during initialization                           *)
(* ------------------------------------------------------------------ *)

(* Phase split of a specification (paper §4): loading, linking and
   initialization describe the system's structure; the code [run] can
   reach is its reactive behaviour. The reactive roots are the [run]
   each ASR subclass enters; a program with none is analyzed relative
   to its static [main] methods (design-phase programs). *)
let reactive_roots (checked : Mj.Typecheck.checked) graph =
  match Mj.Symtab.subclasses checked.symtab "ASR" with
  | [] ->
      List.filter_map
        (fun cls ->
          match find_method cls "main" with
          | Some m when m.m_mods.is_static -> Some (cls.cl_name, "main")
          | Some _ | None -> None)
        checked.program.classes
  | classes ->
      List.filter_map
        (fun cls -> Analysis.Call_graph.method_node graph cls "run")
        classes

let rec rule_no_reactive_alloc =
  { Rule.id = "R2-no-reactive-allocation";
    title = "objects may be instantiated only during initialization";
    paper_ref =
      "§4.3: \"one important restriction is that objects may be instantiated \
       only during initialization\"";
    check = check_no_reactive_alloc }

and check_no_reactive_alloc checked =
  let graph = Analysis.Call_graph.build checked in
  let violations = ref [] in
  let reactive_bodies =
    List.concat_map
      (fun node ->
        List.map
          (fun body -> (node, body))
          (Analysis.Call_graph.bodies graph node))
      (Analysis.Call_graph.reachable graph ~roots:(reactive_roots checked graph))
  in
  List.iter
    (fun (node, body) ->
      (* Only reactive-phase *methods* matter; constructors reached from
         run would themselves be flagged as allocations at the new-site. *)
      match body.Mj.Visit.b_kind with
      | Mj.Visit.Ctor _ | Mj.Visit.Field_init _ -> ()
      | Mj.Visit.Method _ ->
          (* Sites the hoist-alloc transformation will actually rewrite. *)
          let hoistable = Hashtbl.create 8 in
          Mj.Visit.iter_stmts body.Mj.Visit.b_stmts
            ~expr:(fun _ -> ())
            ~stmt:(fun s ->
              if
                Analysis.Escape.hoistable_decl checked
                  ~method_body:body.Mj.Visit.b_stmts s
              then
                match s.stmt with
                | Var_decl (_, _, Some init) -> Hashtbl.replace hoistable init.eloc ()
                | _ -> ());
          Mj.Visit.iter_exprs
            (fun e ->
              match e.expr with
              | New_array (_, _) ->
                  let fixes =
                    if Hashtbl.mem hoistable e.eloc then
                      [ Rule.Automatic "hoist-alloc";
                        Rule.Manual
                          "preallocate the array in the constructor and reuse it" ]
                    else
                      [ Rule.Manual
                          "preallocate a maximum-size buffer during \
                           initialization and index into it" ]
                  in
                  violations :=
                    Rule.make_violation ~rule:rule_no_reactive_alloc ~loc:e.eloc
                      ~subject:(Analysis.Call_graph.node_name node) ~fixes
                      "array allocated in the reactive phase"
                    :: !violations
              | New_object (cls, _) ->
                  violations :=
                    Rule.make_violation ~rule:rule_no_reactive_alloc ~loc:e.eloc
                      ~subject:(Analysis.Call_graph.node_name node)
                      ~fixes:
                        [ Rule.Manual
                            (Printf.sprintf
                               "construct the '%s' instance during \
                                initialization and reset its state per reaction"
                               cls) ]
                      (Printf.sprintf "object of class '%s' allocated in the \
                                       reactive phase" cls)
                    :: !violations
              | _ -> ())
            body.Mj.Visit.b_stmts)
    reactive_bodies;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* R3/R4: loops                                                        *)
(* ------------------------------------------------------------------ *)

let rec rule_no_while =
  { Rule.id = "R3-no-while-loops";
    title = "while and do-while loops may not be used";
    paper_ref = "§4.3: \"while and do while loops may not be used\"";
    check = check_no_while }

and check_no_while checked =
  let violations = ref [] in
  List.iter
    (fun cls ->
      List.iter
        (fun body ->
          Mj.Visit.iter_stmts body.Mj.Visit.b_stmts
            ~expr:(fun _ -> ())
            ~stmt:(fun s ->
              match s.stmt with
              | While _ ->
                  let fixes =
                    if Loop_bounds.while_convertible checked s then
                      [ Rule.Automatic "while-to-for" ]
                    else
                      [ Rule.Manual
                          "rewrite as a for loop with a calculable bound" ]
                  in
                  violations :=
                    Rule.make_violation ~rule:rule_no_while ~loc:s.sloc
                      ~subject:(Mj.Visit.body_name body) ~fixes
                      "while loop"
                    :: !violations
              | Do_while _ ->
                  violations :=
                    Rule.make_violation ~rule:rule_no_while ~loc:s.sloc
                      ~subject:(Mj.Visit.body_name body)
                      ~fixes:[ Rule.Automatic "do-while-to-for" ]
                      "do-while loop"
                    :: !violations
              | _ -> ()))
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.classes;
  List.rev !violations

let rec rule_bounded_for =
  { Rule.id = "R4-bounded-for-loops";
    title = "for loops need calculable bounds and an unmodified index";
    paper_ref =
      "§4.3: \"calculable upper bounds on loop iterations are required ... \
       the iteration variable in for loops cannot be modified within the \
       loop\"";
    check = check_bounded_for }

and check_bounded_for checked =
  let violations = ref [] in
  List.iter
    (fun cls ->
      List.iter
        (fun body ->
          Mj.Visit.iter_stmts body.Mj.Visit.b_stmts
            ~expr:(fun _ -> ())
            ~stmt:(fun s ->
              match s.stmt with
              | For _ -> (
                  match
                    Loop_bounds.for_bound ~enclosing:body.Mj.Visit.b_stmts
                      checked s
                  with
                  | Loop_bounds.Bounded _ -> ()
                  | Loop_bounds.Index_modified name ->
                      violations :=
                        Rule.make_violation ~rule:rule_bounded_for ~loc:s.sloc
                          ~subject:(Mj.Visit.body_name body)
                          ~fixes:
                            [ Rule.Manual
                                "hoist the index modification out of the body" ]
                          (Printf.sprintf
                             "loop index '%s' is modified inside the body" name)
                        :: !violations
                  | Loop_bounds.Unrecognized why ->
                      violations :=
                        Rule.make_violation ~rule:rule_bounded_for ~loc:s.sloc
                          ~subject:(Mj.Visit.body_name body)
                          ~fixes:
                            [ Rule.Manual
                                "use a constant (literal, static final, or \
                                 fixed array length) bound with a constant step" ]
                          (Printf.sprintf "iteration count is not calculable: %s"
                             why)
                        :: !violations)
              | _ -> ()))
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.classes;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* R5: no recursion                                                    *)
(* ------------------------------------------------------------------ *)

let rec rule_no_recursion =
  { Rule.id = "R5-no-recursion";
    title = "circular method invocations are not allowed";
    paper_ref = "§4.3: \"circular method invocations are not allowed\"";
    check = check_no_recursion }

and check_no_recursion checked =
  let graph = Analysis.Call_graph.build checked in
  let user_classes =
    List.map (fun c -> c.cl_name) checked.Mj.Typecheck.program.classes
  in
  List.filter_map
    (fun ((cls, _) as node) ->
      if List.mem cls user_classes then
        Some
          (Rule.make_violation ~rule:rule_no_recursion
             ~loc:(Analysis.Call_graph.node_loc graph node)
             ~subject:(Analysis.Call_graph.node_name node)
             ~fixes:
               [ Rule.Manual
                   "convert the recursion into an iteration with an explicit \
                    statically-sized stack" ]
             "method participates in a call cycle")
      else None)
    (Analysis.Call_graph.recursive_nodes graph)

(* ------------------------------------------------------------------ *)
(* R6: private state                                                   *)
(* ------------------------------------------------------------------ *)

let rec rule_private_state =
  { Rule.id = "R6-private-state";
    title = "an ASR object's variables must be private";
    paper_ref =
      "§4.3: \"we must also take care that an ASR object's internal state may \
       not be externally accessible by requiring the object's variables to be \
       private\"";
    check = check_private_state }

and check_private_state checked =
  let violations = ref [] in
  List.iter
    (fun cls ->
      List.iter
        (fun f ->
          if (not f.f_mods.is_static) && f.f_mods.visibility <> Private then begin
            let fixes =
              if
                Analysis.Escape.field_accessed_externally checked ~cls:cls.cl_name
                  ~field:f.f_name
              then
                [ Rule.Manual
                    "add accessor methods (or channels) and make the field \
                     private" ]
              else [ Rule.Automatic "privatize-fields" ]
            in
            violations :=
              Rule.make_violation ~rule:rule_private_state ~loc:f.f_loc
                ~subject:(cls.cl_name ^ "." ^ f.f_name)
                ~fixes "instance field is not private"
              :: !violations
          end)
        cls.cl_fields)
    checked.Mj.Typecheck.program.classes;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* R7: no finalizers                                                   *)
(* ------------------------------------------------------------------ *)

let rec rule_no_finalizers =
  { Rule.id = "R7-no-finalizers";
    title = "finalization is disallowed";
    paper_ref =
      "§4: \"finalization is disallowed, as it may be considered as \
       representing the termination or destruction of the system\"";
    check = check_no_finalizers }

and check_no_finalizers checked =
  List.concat_map
    (fun cls ->
      List.filter_map
        (fun m ->
          if String.equal m.m_name "finalize" then
            Some
              (Rule.make_violation ~rule:rule_no_finalizers ~loc:m.m_loc
                 ~subject:(cls.cl_name ^ ".finalize")
                 ~fixes:[ Rule.Automatic "remove-finalizers" ]
                 "finalizer declared")
          else None)
        cls.cl_methods)
    checked.Mj.Typecheck.program.classes

(* ------------------------------------------------------------------ *)
(* R8: linked structures (caution)                                     *)
(* ------------------------------------------------------------------ *)

let rec rule_linked_structures =
  { Rule.id = "R8-linked-structures";
    title = "linked data structures should be statically allocated";
    paper_ref =
      "§4.3: \"the use of linked structures ... should be checked for and \
       eliminated in favor of statically allocated data structures\"";
    check = check_linked_structures }

and check_linked_structures checked =
  (* Classes on a cycle of the instance-field type-reference graph. *)
  let program = checked.Mj.Typecheck.program in
  let user = List.map (fun c -> c.cl_name) program.classes in
  let refs cls =
    List.filter_map
      (fun f ->
        if f.f_mods.is_static then None
        else
          let rec class_of = function
            | TClass c when List.mem c user -> Some c
            | TArray elem -> class_of elem
            | TClass _ | TInt | TBool | TDouble | TString | TVoid | TNull ->
                None
          in
          class_of f.f_ty)
      cls.cl_fields
  in
  let on_cycle = Hashtbl.create 8 in
  let state = Hashtbl.create 8 in
  let rec visit stack name =
    match Hashtbl.find_opt state name with
    | Some `In_progress ->
        let rec mark = function
          | [] -> ()
          | n :: rest ->
              Hashtbl.replace on_cycle n ();
              if not (String.equal n name) then mark rest
        in
        mark stack
    | Some `Done -> ()
    | None ->
        Hashtbl.replace state name `In_progress;
        (match find_class program name with
        | Some cls -> List.iter (visit (name :: stack)) (refs cls)
        | None -> ());
        Hashtbl.replace state name `Done
  in
  List.iter (fun c -> visit [] c.cl_name) program.classes;
  List.filter_map
    (fun cls ->
      if Hashtbl.mem on_cycle cls.cl_name then
        Some
          (Rule.make_violation ~rule:rule_linked_structures ~severity:Rule.Caution
             ~loc:cls.cl_loc ~subject:cls.cl_name
             ~fixes:
               [ Rule.Manual
                   "replace the linked structure with statically allocated \
                    arrays sized for the worst case" ]
             "class participates in a linked (self-referential) structure")
      else None)
    program.classes

(* ------------------------------------------------------------------ *)
(* R9: bounded reaction time                                           *)
(* ------------------------------------------------------------------ *)

let rec rule_bounded_reaction =
  { Rule.id = "R9-bounded-reaction";
    title = "the reaction must have a computable worst-case time bound";
    paper_ref =
      "§4.3: \"computation of the output must be bounded in time; otherwise \
       the system's execution would never advance to the next instant\"";
    check = check_bounded_reaction }

and check_bounded_reaction checked =
  List.filter_map
    (fun cls ->
      match Time_bound.reaction_bound checked ~cls with
      | Time_bound.Cycles _ -> None
      | Time_bound.Unbounded why ->
          let decl = find_class checked.Mj.Typecheck.program cls in
          Some
            (Rule.make_violation ~rule:rule_bounded_reaction
               ~loc:(match decl with Some d -> d.cl_loc | None -> Mj.Loc.dummy)
               ~subject:(cls ^ ".run")
               ~fixes:
                 [ Rule.Manual
                     "remove the unbounded construct (see R3/R4/R5 findings)" ]
               (Printf.sprintf "no worst-case reaction bound: %s" why)))
    (Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "ASR")

(* ------------------------------------------------------------------ *)
(* R10: no shared-field races                                          *)
(* ------------------------------------------------------------------ *)

let rec rule_no_races =
  { Rule.id = "R10-no-shared-field-races";
    title = "static fields may not be shared between threads with writes";
    paper_ref =
      "§4.2/Fig. 8: the unrestricted threaded example communicates through \
       an unprotected shared variable; the ASR restriction removes the race \
       by construction";
    check = check_no_races }

and check_no_races checked =
  List.concat_map
    (fun (r : Analysis.Races.race) ->
      let related =
        (* at least one racing write and one racing read, so a JSON
           consumer can point at both sides of the race *)
        let take what sites =
          match sites with (_, loc) :: _ -> [ (what, loc) ] | [] -> []
        in
        take "write" r.Analysis.Races.r_writes @ take "read" r.r_reads
      in
      let head =
        Rule.make_violation ~rule:rule_no_races ~loc:r.Analysis.Races.r_loc
          ~subject:(r.r_class ^ "." ^ r.r_field)
          ~fixes:
            [ Rule.Manual
                "communicate through an ASR channel (or join before reading) \
                 instead of an unsynchronized static field" ]
          ~related
          (Analysis.Races.describe r)
      in
      let site (root, loc) what =
        Rule.make_violation ~rule:rule_no_races ~severity:Rule.Caution ~loc
          ~subject:(r.r_class ^ "." ^ r.r_field)
          ~fixes:[]
          (Printf.sprintf "%s of racy field from %s" what
             (Analysis.Races.root_label root))
      in
      head
      :: (List.map (fun w -> site w "write") r.r_writes
         @ List.map (fun rd -> site rd "read") r.r_reads))
    (Analysis.Races.detect checked)

(* ------------------------------------------------------------------ *)

let rules =
  [ rule_no_threads; rule_no_reactive_alloc; rule_no_while; rule_bounded_for;
    rule_no_recursion; rule_private_state; rule_no_finalizers;
    rule_linked_structures; rule_bounded_reaction; rule_no_races ]

let rule_ids = List.map (fun r -> r.Rule.id) rules

let check checked =
  Rule.order_violations (List.concat_map (fun r -> r.Rule.check checked) rules)

let compliant checked = not (List.exists Rule.is_blocking (check checked))

let check_source ?(file = "<source>") src =
  check (Mj.Typecheck.check_source ~file src)
