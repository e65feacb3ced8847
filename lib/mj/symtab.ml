open Ast

type t = {
  table : (string, class_decl) Hashtbl.t;
  users : class_decl list;
  all : class_decl list;
}

let find_class t name = Hashtbl.find_opt t.table name

let get_class t name =
  match find_class t name with
  | Some c -> c
  | None -> Diag.error "unknown class '%s'" name

let is_class t name = Hashtbl.mem t.table name

let superclass t name = (get_class t name).cl_super

let ancestors t name =
  let rec loop acc name =
    match (get_class t name).cl_super with
    | None -> List.rev (name :: acc)
    | Some super ->
        if List.mem super acc || String.equal super name then
          Diag.error "cyclic inheritance involving class '%s'" name
        else loop (name :: acc) super
  in
  loop [] name

let is_subclass t ~sub ~super = List.mem super (ancestors t sub)

let lookup_method t cls name =
  let rec loop cls_name =
    let cls = get_class t cls_name in
    match find_method cls name with
    | Some m -> Some (cls_name, m)
    | None -> (
        match cls.cl_super with None -> None | Some s -> loop s)
  in
  loop cls

let lookup_field t cls name =
  let rec loop cls_name =
    let cls = get_class t cls_name in
    match find_field cls name with
    | Some f -> Some (cls_name, f)
    | None -> (
        match cls.cl_super with None -> None | Some s -> loop s)
  in
  loop cls

let default_ctor =
  { c_mods = { no_mods with visibility = Public }; c_params = []; c_body = [];
    c_loc = Loc.dummy }

let lookup_ctor t cls arity =
  let decl = get_class t cls in
  match decl.cl_ctors with
  | [] -> if arity = 0 then Some default_ctor else None
  | ctors -> List.find_opt (fun c -> List.length c.c_params = arity) ctors

let instance_fields t cls =
  let classes = List.rev (ancestors t cls) in
  List.concat_map
    (fun cls_name ->
      let decl = get_class t cls_name in
      List.filter_map
        (fun f -> if f.f_mods.is_static then None else Some (cls_name, f))
        decl.cl_fields)
    classes

let static_fields t =
  List.concat_map
    (fun cls ->
      List.filter_map
        (fun f -> if f.f_mods.is_static then Some (cls.cl_name, f) else None)
        cls.cl_fields)
    t.all

let program t = { classes = t.all }

let user_classes t = t.users

let subclasses t super =
  List.filter_map
    (fun c ->
      if
        (not (String.equal c.cl_name super))
        && is_subclass t ~sub:c.cl_name ~super
      then Some c.cl_name
      else None)
    t.all

let check_no_duplicates kind names loc =
  let sorted = List.sort String.compare names in
  let rec loop = function
    | a :: b :: _ when String.equal a b ->
        Diag.error ~loc "duplicate %s '%s'" kind a
    | _ :: rest -> loop rest
    | [] -> ()
  in
  loop sorted

let check_class t cls =
  check_no_duplicates "field" (List.map (fun f -> f.f_name) cls.cl_fields)
    cls.cl_loc;
  check_no_duplicates "method" (List.map (fun m -> m.m_name) cls.cl_methods)
    cls.cl_loc;
  check_no_duplicates "constructor arity"
    (List.map (fun c -> string_of_int (List.length c.c_params)) cls.cl_ctors)
    cls.cl_loc;
  (match cls.cl_super with
  | None -> ()
  | Some super ->
      if not (is_class t super) then
        Diag.error ~loc:cls.cl_loc "class '%s' extends unknown class '%s'"
          cls.cl_name super);
  (* Trigger the cycle check. *)
  let (_ : string list) = ancestors t cls.cl_name in
  (* Field shadowing is rejected: it defeats the encapsulation analysis. *)
  (match cls.cl_super with
  | None -> ()
  | Some super ->
      List.iter
        (fun f ->
          match lookup_field t super f.f_name with
          | Some (defining, _) ->
              Diag.error ~loc:f.f_loc
                "field '%s' in class '%s' shadows a field of class '%s'"
                f.f_name cls.cl_name defining
          | None -> ())
        cls.cl_fields);
  (* Override compatibility: same return type and parameter types. *)
  match cls.cl_super with
  | None -> ()
  | Some super ->
      List.iter
        (fun m ->
          match lookup_method t super m.m_name with
          | None -> ()
          | Some (defining, inherited) ->
              let compatible =
                equal_ty m.m_ret inherited.m_ret
                && List.length m.m_params = List.length inherited.m_params
                && List.for_all2
                     (fun (t1, _) (t2, _) -> equal_ty t1 t2)
                     m.m_params inherited.m_params
              in
              if not compatible then
                Diag.error ~loc:m.m_loc
                  "method '%s' in class '%s' overrides '%s.%s' with an \
                   incompatible signature"
                  m.m_name cls.cl_name defining inherited.m_name;
              if inherited.m_mods.is_static <> m.m_mods.is_static then
                Diag.error ~loc:m.m_loc
                  "method '%s' in class '%s' changes staticness of inherited \
                   method"
                  m.m_name cls.cl_name)
        cls.cl_methods

let build program =
  let builtins = Builtins.classes () in
  let all = builtins @ program.classes in
  check_no_duplicates "class" (List.map (fun c -> c.cl_name) all) Loc.dummy;
  let table = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace table c.cl_name c) all;
  let t = { table; users = program.classes; all } in
  List.iter (check_class t) all;
  t

let replace_all t classes =
  let names_old = List.sort String.compare (List.map (fun c -> c.cl_name) t.all) in
  let names_new = List.sort String.compare (List.map (fun c -> c.cl_name) classes) in
  if not (List.equal String.equal names_old names_new) then
    Diag.error "replace_all: class set changed";
  let table = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace table c.cl_name c) classes;
  let user_names = List.map (fun c -> c.cl_name) t.users in
  let users = List.filter (fun c -> List.mem c.cl_name user_names) classes in
  { table; users; all = classes }
