module Ast = Mj.Ast
module Loc = Mj.Loc

type change = {
  ch_class : string;
  ch_site : string;
  ch_loc : Loc.t;
  ch_before : string;
  ch_after : string;
}

type iteration = {
  it_index : int;
  it_violations : Policy.Rule.violation list;
  it_transform : string option;
  it_description : string;
  it_sites : int;
  it_changes : change list;
  it_checked : Mj.Typecheck.checked;
}

type t = {
  p_iterations : iteration list;
  p_compliant : bool;
  p_residual : Policy.Rule.violation list;
  p_final : string;
}

(* ------------------------------------------------------------------ *)
(* Snippet printers. Pretty covers statements and whole classes; field
   and method headers are small enough to render here. *)

let vis_string = function
  | Ast.Public -> "public "
  | Ast.Private -> "private "
  | Ast.Protected -> "protected "
  | Ast.Package -> ""

let mods_string (m : Ast.modifiers) =
  vis_string m.visibility
  ^ (if m.is_static then "static " else "")
  ^ (if m.is_final then "final " else "")
  ^ if m.is_native then "native " else ""

let field_string (f : Ast.field_decl) =
  let init =
    match f.f_init with
    | None -> ""
    | Some e -> " = " ^ Mj.Pretty.expr_to_string e
  in
  Printf.sprintf "%s%s %s%s;" (mods_string f.f_mods)
    (Ast.ty_to_string f.f_ty) f.f_name init

let params_string ps =
  String.concat ", "
    (List.map (fun (ty, name) -> Ast.ty_to_string ty ^ " " ^ name) ps)

let method_header (m : Ast.method_decl) =
  Printf.sprintf "%s%s %s(%s)" (mods_string m.m_mods)
    (Ast.ty_to_string m.m_ret) m.m_name
    (params_string m.m_params)

let ctor_header cls (c : Ast.ctor_decl) =
  Printf.sprintf "%s%s(%s)" (mods_string c.c_mods) cls
    (params_string c.c_params)

let stmts_string stmts =
  String.concat "\n" (List.map Mj.Pretty.stmt_to_string stmts)

let class_string cls = Format.asprintf "%a" Mj.Pretty.pp_class cls

(* ------------------------------------------------------------------ *)
(* Structural diff.  Declarations are matched by stable keys (class and
   member names, constructor arity); changed statement lists are
   narrowed to the smallest differing span so the audit points at what
   a rewrite actually touched, not the whole method. *)

let span_loc ~fallback stmts =
  let real = List.filter (fun s -> not (Loc.is_dummy s.Ast.sloc)) stmts in
  match real with
  | [] -> fallback
  | first :: _ ->
      let last = List.nth real (List.length real - 1) in
      Loc.merge first.Ast.sloc last.Ast.sloc

(* Trim the longest common prefix and suffix (under equal_stmt) off a
   pair of statement lists, returning (kept_before, kept_after, loc of
   the replaced region in the before program). *)
let diff_stmts ~fallback before after =
  let rec drop_prefix b a =
    match (b, a) with
    | x :: b', y :: a' when Ast.equal_stmt x y -> drop_prefix b' a'
    | _ -> (b, a)
  in
  let b, a = drop_prefix before after in
  let rb, ra = drop_prefix (List.rev b) (List.rev a) in
  let b = List.rev rb and a = List.rev ra in
  (b, a, span_loc ~fallback b)

let diff_bodies ~cls ~site ~fallback before after =
  if Ast.equal_stmts before after then []
  else
    let b, a, loc = diff_stmts ~fallback before after in
    [ { ch_class = cls; ch_site = site; ch_loc = loc;
        ch_before = stmts_string b; ch_after = stmts_string a } ]

let diff_methods cls (before : Ast.method_decl list)
    (after : Ast.method_decl list) =
  let removed =
    List.filter_map
      (fun m ->
        if List.exists (fun m' -> m'.Ast.m_name = m.Ast.m_name) after then None
        else
          Some
            { ch_class = cls; ch_site = "method " ^ m.Ast.m_name;
              ch_loc = m.Ast.m_loc;
              ch_before =
                method_header m ^ " { "
                ^ (match m.Ast.m_body with
                  | None -> ""
                  | Some b -> stmts_string b)
                ^ " }";
              ch_after = "" })
      before
  in
  let added_or_changed =
    List.concat_map
      (fun m' ->
        match
          List.find_opt (fun m -> m.Ast.m_name = m'.Ast.m_name) before
        with
        | None ->
            [ { ch_class = cls; ch_site = "method " ^ m'.Ast.m_name;
                ch_loc = m'.Ast.m_loc; ch_before = "";
                ch_after =
                  method_header m' ^ " { "
                  ^ (match m'.Ast.m_body with
                    | None -> ""
                    | Some b -> stmts_string b)
                  ^ " }" } ]
        | Some m -> (
            match (m.Ast.m_body, m'.Ast.m_body) with
            | Some b, Some b' ->
                diff_bodies ~cls ~site:("method " ^ m'.Ast.m_name)
                  ~fallback:m.Ast.m_loc b b'
            | _ ->
                if Ast.equal_method m m' then []
                else
                  [ { ch_class = cls; ch_site = "method " ^ m'.Ast.m_name;
                      ch_loc = m.Ast.m_loc;
                      ch_before = method_header m;
                      ch_after = method_header m' } ]))
      after
  in
  removed @ added_or_changed

let diff_fields cls (before : Ast.field_decl list)
    (after : Ast.field_decl list) =
  let removed =
    List.filter_map
      (fun f ->
        if List.exists (fun f' -> f'.Ast.f_name = f.Ast.f_name) after then None
        else
          Some
            { ch_class = cls; ch_site = "field " ^ f.Ast.f_name;
              ch_loc = f.Ast.f_loc; ch_before = field_string f;
              ch_after = "" })
      before
  in
  let added_or_changed =
    List.filter_map
      (fun f' ->
        match
          List.find_opt (fun f -> f.Ast.f_name = f'.Ast.f_name) before
        with
        | None ->
            (* New fields are synthesized (e.g. by hoist_alloc); their
               loc points at the allocation site they came from. *)
            Some
              { ch_class = cls; ch_site = "field " ^ f'.Ast.f_name;
                ch_loc = f'.Ast.f_loc; ch_before = "";
                ch_after = field_string f' }
        | Some f ->
            if Ast.equal_field f f' then None
            else
              Some
                { ch_class = cls; ch_site = "field " ^ f'.Ast.f_name;
                  ch_loc = f.Ast.f_loc; ch_before = field_string f;
                  ch_after = field_string f' })
      after
  in
  removed @ added_or_changed

let diff_ctors cls (before : Ast.ctor_decl list) (after : Ast.ctor_decl list) =
  let arity (c : Ast.ctor_decl) = List.length c.c_params in
  List.concat_map
    (fun c' ->
      match List.find_opt (fun c -> arity c = arity c') before with
      | None ->
          [ { ch_class = cls;
              ch_site = Printf.sprintf "constructor/%d" (arity c');
              ch_loc = c'.Ast.c_loc; ch_before = "";
              ch_after = ctor_header cls c' ^ " { "
                         ^ stmts_string c'.Ast.c_body ^ " }" } ]
      | Some c ->
          diff_bodies ~cls
            ~site:(Printf.sprintf "constructor/%d" (arity c'))
            ~fallback:c.Ast.c_loc c.Ast.c_body c'.Ast.c_body)
    after

let diff_class (before : Ast.class_decl) (after : Ast.class_decl) =
  let cls = after.Ast.cl_name in
  diff_fields cls before.Ast.cl_fields after.Ast.cl_fields
  @ diff_ctors cls before.Ast.cl_ctors after.Ast.cl_ctors
  @ diff_methods cls before.Ast.cl_methods after.Ast.cl_methods

let diff_program ~(before : Ast.program) ~(after : Ast.program) =
  List.concat_map
    (fun (c' : Ast.class_decl) ->
      match Ast.find_class before c'.Ast.cl_name with
      | None ->
          [ { ch_class = c'.Ast.cl_name; ch_site = "class";
              ch_loc = c'.Ast.cl_loc; ch_before = "";
              ch_after = class_string c' } ]
      | Some c -> if Ast.equal_class c c' then [] else diff_class c c')
    after.Ast.classes
  @ List.filter_map
      (fun (c : Ast.class_decl) ->
        if Ast.find_class after c.Ast.cl_name <> None then None
        else
          Some
            { ch_class = c.Ast.cl_name; ch_site = "class";
              ch_loc = c.Ast.cl_loc; ch_before = class_string c;
              ch_after = "" })
      before.Ast.classes

(* ------------------------------------------------------------------ *)
(* Export. *)

module Json = Telemetry.Json

let loc_fields (loc : Loc.t) =
  [ ("file", Json.Str loc.file);
    ("line", Json.Int loc.start_pos.Loc.line);
    ("col", Json.Int loc.start_pos.Loc.col) ]

let violation_json (v : Policy.Rule.violation) =
  Json.Obj
    ([ ("rule", Json.Str v.rule_id);
       ("severity",
        Json.Str
          (match v.severity with
          | Policy.Rule.Forbidden -> "forbidden"
          | Policy.Rule.Caution -> "caution")) ]
    @ loc_fields v.loc
    @ [ ("subject", Json.Str v.subject); ("message", Json.Str v.message) ])

let change_json c =
  Json.Obj
    ([ ("class", Json.Str c.ch_class); ("site", Json.Str c.ch_site) ]
    @ loc_fields c.ch_loc
    @ [ ("before", Json.Str c.ch_before); ("after", Json.Str c.ch_after) ])

let iteration_json it =
  Json.Obj
    [ ("iteration", Json.Int it.it_index);
      ("violations", Json.List (List.map violation_json it.it_violations));
      ("transform",
       match it.it_transform with None -> Json.Null | Some s -> Json.Str s);
      ("description", Json.Str it.it_description);
      ("sites", Json.Int it.it_sites);
      ("changes", Json.List (List.map change_json it.it_changes)) ]

let to_json p =
  Json.Obj
    [ ("compliant", Json.Bool p.p_compliant);
      ("iterations", Json.List (List.map iteration_json p.p_iterations));
      ("residual", Json.List (List.map violation_json p.p_residual));
      ("final", Json.Str p.p_final) ]

let to_string p =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "refinement audit: %d iteration(s), %s"
    (List.length p.p_iterations)
    (if p.p_compliant then "compliant" else "NOT compliant");
  List.iter
    (fun it ->
      line "iteration %d:" it.it_index;
      List.iter
        (fun (v : Policy.Rule.violation) ->
          line "  [%s] %s: %s" v.rule_id (Loc.to_string v.loc) v.message)
        it.it_violations;
      (match it.it_transform with
      | None -> line "  no transform applied"
      | Some id ->
          line "  applied %s (%d site(s)) — %s" id it.it_sites
            it.it_description);
      List.iter
        (fun c ->
          line "  %s %s.%s:" (Loc.to_string c.ch_loc) c.ch_class c.ch_site;
          let dump prefix text =
            if text <> "" then
              String.split_on_char '\n' text
              |> List.iter (fun l -> line "    %s %s" prefix l)
          in
          dump "-" c.ch_before;
          dump "+" c.ch_after)
        it.it_changes)
    p.p_iterations;
  (match p.p_residual with
  | [] -> ()
  | vs ->
      line "residual violations:";
      List.iter
        (fun (v : Policy.Rule.violation) ->
          line "  [%s] %s: %s" v.rule_id (Loc.to_string v.loc) v.message)
        vs);
  Buffer.contents buf
