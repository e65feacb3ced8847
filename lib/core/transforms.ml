open Mj.Ast

type t = {
  id : string;
  description : string;
  apply : Mj.Typecheck.checked -> Mj.Ast.program * int;
}

let mk ?(loc = Mj.Loc.dummy) expr = { expr; eloc = loc; ety = None }

let mk_stmt ?(loc = Mj.Loc.dummy) stmt = { stmt; sloc = loc }

(* ------------------------------------------------------------------ *)
(* while-to-for / do-while-to-for                                      *)
(* ------------------------------------------------------------------ *)

(* Constant initializer for [index] provided by an adjacent statement. *)
let init_of checked index s =
  match s.stmt with
  | Var_decl (TInt, name, (Some start as init)) when String.equal name index ->
      if Analysis.Const_eval.const_int checked start <> None then
        Some (For_var (TInt, name, init))
      else None
  | Expr ({ expr = Assign ((Lname n | Llocal n), start); _ } as assign)
    when String.equal n index ->
      if Analysis.Const_eval.const_int checked start <> None then Some (For_expr assign)
      else None
  | _ -> None

let loop_rewrites ~do_while checked =
  let count = ref 0 in
  let match_loop s =
    match (do_while, s.stmt) with
    | false, While _ | true, Do_while _ ->
        Policy.Loop_bounds.while_parts checked s
    | _, _ -> None
  in
  (* do-while converts only when the constant start provably enters. *)
  let entry_ok index init cond =
    if not do_while then true
    else
      let start =
        match init with
        | For_var (_, _, Some e) | For_expr { expr = Assign (_, e); _ } ->
            Analysis.Const_eval.const_int checked e
        | For_var (_, _, None) | For_expr _ -> None
      in
      match (start, Policy.Loop_bounds.exit_test checked ~index cond) with
      | Some c, Some (op, limit) -> (
          match op with
          | Lt -> c < limit
          | Le -> c <= limit
          | Gt -> c > limit
          | Ge -> c >= limit
          | _ -> false)
      | _, _ -> false
  in
  let uses_local name stmts =
    Mj.Visit.exists_expr
      (fun e ->
        match e.expr with
        | Local n | Name n -> String.equal n name
        | _ -> false)
      stmts
  in
  let rec rewrite = function
    | [] -> []
    | first :: (second :: rest as tail) -> (
        match match_loop second with
        | Some (index, cond, update, prefix) -> (
            match init_of checked index first with
            | Some init when entry_ok index init cond ->
                incr count;
                (* Moving the declaration into the for header shrinks its
                   scope; if the index is used after the loop, keep the
                   declaration and re-initialize in the header instead
                   (the initializer is a compile-time constant). *)
                let header_init, keep_decl =
                  match init with
                  | For_var (_, name, Some start) when uses_local name rest ->
                      ( For_expr (mk ~loc:start.eloc (Assign (Llocal name, start))),
                        [ first ] )
                  | For_var _ | For_expr _ -> (init, [])
                in
                keep_decl
                @ mk_stmt ~loc:second.sloc
                    (For
                       ( Some header_init, Some cond, Some update,
                         mk_stmt (Block prefix) ))
                  :: rewrite rest
            | Some _ | None -> first :: rewrite tail)
        | None -> (
            (* A lone convertible while still becomes a for. *)
            match match_loop first with
            | Some (_, cond, update, prefix) when not do_while ->
                incr count;
                mk_stmt ~loc:first.sloc
                  (For (None, Some cond, Some update, mk_stmt (Block prefix)))
                :: rewrite tail
            | Some _ | None -> first :: rewrite tail))
    | [ only ] -> (
        match match_loop only with
        | Some (_, cond, update, prefix) when not do_while ->
            incr count;
            [ mk_stmt ~loc:only.sloc
                (For (None, Some cond, Some update, mk_stmt (Block prefix))) ]
        | Some _ | None -> [ only ])
  in
  let program =
    Rewrite.map_program_bodies
      (fun ~cls:_ stmts -> rewrite stmts)
      checked.Mj.Typecheck.program
  in
  (program, !count)

(* A convertible [while] without an adjacent constant initializer still
   becomes a [for], leaving R4 to report the bound; a [do-while] only
   when the constant initial value provably passes the entry test. *)
let while_to_for =
  { id = "while-to-for";
    description = "convert counted while loops into bounded for loops";
    apply = loop_rewrites ~do_while:false }

let do_while_to_for =
  { id = "do-while-to-for";
    description = "convert counted do-while loops whose entry test provably holds";
    apply = loop_rewrites ~do_while:true }

(* ------------------------------------------------------------------ *)
(* hoist-alloc                                                         *)
(* ------------------------------------------------------------------ *)

let hoist_alloc_apply (checked : Mj.Typecheck.checked) =
  let count = ref 0 in
  let classes =
    List.map
      (fun cls ->
        (* (field declaration, element type, constant size) *)
        let hoisted = ref [] in
        let fresh_field base =
          let taken name =
            List.exists (fun f -> String.equal f.f_name name) cls.cl_fields
            || List.exists
                 (fun (f, _, _) -> String.equal f.f_name name)
                 !hoisted
          in
          let rec pick k =
            let name = Printf.sprintf "_pre_%s_%d" base k in
            if taken name then pick (k + 1) else name
          in
          pick 0
        in
        let zero_fill_stmt field elem size loc =
          let zero = Option.get (Analysis.Escape.hoistable_zero elem) in
          let fill_index = "_zi" in
          mk_stmt ~loc
            (For
               ( Some (For_var (TInt, fill_index, Some (mk (Int_lit 0)))),
                 Some
                   (mk (Binary (Lt, mk (Local fill_index), mk (Int_lit size)))),
                 Some (mk (Post_incr (1, Llocal fill_index))),
                 mk_stmt
                   (Expr
                      (mk
                         (Assign
                            ( Lindex
                                ( mk (Field_access (mk This, field)),
                                  mk (Local fill_index) ),
                              mk zero )))) ))
        in
        let rewrite_method m =
          match m.m_body with
          | None -> m
          | Some _ when m.m_mods.is_static -> m
          | Some body ->
              let f stmts =
                List.concat_map
                  (fun s ->
                    match s.stmt with
                    | Var_decl
                        ( TArray elem,
                          x,
                          Some { expr = New_array (elem2, [ dim ]); eloc; _ } )
                      when equal_ty elem elem2
                           && Analysis.Const_eval.const_int checked dim <> None
                           && Analysis.Escape.hoistable_zero elem <> None
                           && not (Analysis.Escape.local_escapes x body) ->
                        let size = Option.get (Analysis.Const_eval.const_int checked dim) in
                        let field = fresh_field x in
                        incr count;
                        hoisted :=
                          ( { f_mods =
                                { visibility = Private; is_static = false;
                                  is_final = false; is_native = false };
                              f_ty = TArray elem; f_name = field; f_init = None;
                              f_loc = eloc },
                            elem, size )
                          :: !hoisted;
                        [ mk_stmt ~loc:s.sloc
                            (Var_decl
                               (TArray elem, x, Some (mk (Field_access (mk This, field)))));
                          zero_fill_stmt field elem size s.sloc ]
                    | _ -> [ s ])
                  stmts
              in
              { m with m_body = Some (Rewrite.map_stmt_list f body) }
        in
        let methods = List.map rewrite_method cls.cl_methods in
        if !hoisted = [] then { cls with cl_methods = methods }
        else begin
          let alloc_stmts =
            List.rev_map
              (fun (f, elem, size) ->
                mk_stmt ~loc:f.f_loc
                  (Expr
                     (mk
                        (Assign
                           ( Lfield (mk This, f.f_name),
                             mk (New_array (elem, [ mk (Int_lit size) ])) )))))
              !hoisted
          in
          let ctors =
            match cls.cl_ctors with
            | [] ->
                [ { c_mods = { no_mods with visibility = Public };
                    c_params = []; c_body = alloc_stmts; c_loc = cls.cl_loc } ]
            | ctors ->
                List.map (fun c -> { c with c_body = c.c_body @ alloc_stmts }) ctors
          in
          { cls with cl_methods = methods;
            cl_fields = cls.cl_fields @ List.rev_map (fun (f, _, _) -> f) !hoisted;
            cl_ctors = ctors }
        end)
      checked.Mj.Typecheck.program.classes
  in
  ({ classes }, !count)

let hoist_alloc =
  { id = "hoist-alloc";
    description = "preallocate constant-size reactive arrays in the constructor";
    apply = hoist_alloc_apply }

(* ------------------------------------------------------------------ *)
(* privatize-fields                                                    *)
(* ------------------------------------------------------------------ *)

let privatize_apply (checked : Mj.Typecheck.checked) =
  let count = ref 0 in
  let classes =
    List.map
      (fun cls ->
        { cls with
          cl_fields =
            List.map
              (fun f ->
                if
                  (not f.f_mods.is_static)
                  && f.f_mods.visibility <> Private
                  && not
                       (Analysis.Escape.field_accessed_externally checked
                          ~cls:cls.cl_name ~field:f.f_name)
                then begin
                  incr count;
                  { f with f_mods = { f.f_mods with visibility = Private } }
                end
                else f)
              cls.cl_fields })
      checked.Mj.Typecheck.program.classes
  in
  ({ classes }, !count)

let privatize_fields =
  { id = "privatize-fields";
    description = "make externally-unreferenced instance fields private";
    apply = privatize_apply }

(* ------------------------------------------------------------------ *)
(* remove-finalizers                                                   *)
(* ------------------------------------------------------------------ *)

let remove_finalizers_apply (checked : Mj.Typecheck.checked) =
  let called =
    List.exists
      (fun cls ->
        List.exists
          (fun body ->
            Mj.Visit.exists_expr
              (fun e ->
                match e.expr with
                | Call { mname = "finalize"; _ } -> true
                | _ -> false)
              body.Mj.Visit.b_stmts)
          (Mj.Visit.bodies cls))
      checked.Mj.Typecheck.program.classes
  in
  if called then (checked.Mj.Typecheck.program, 0)
  else
    let count = ref 0 in
    let classes =
      List.map
        (fun cls ->
          let methods =
            List.filter
              (fun m ->
                if String.equal m.m_name "finalize" then begin
                  incr count;
                  false
                end
                else true)
              cls.cl_methods
          in
          { cls with cl_methods = methods })
        checked.Mj.Typecheck.program.classes
    in
    ({ classes }, !count)

let remove_finalizers =
  { id = "remove-finalizers";
    description = "delete finalize methods that are never invoked";
    apply = remove_finalizers_apply }

let catalogue =
  [ remove_finalizers; privatize_fields; while_to_for; do_while_to_for;
    hoist_alloc ]

let find id = List.find_opt (fun t -> String.equal t.id id) catalogue
