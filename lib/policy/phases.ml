open Mj.Ast

let asr_classes (checked : Mj.Typecheck.checked) =
  List.filter_map
    (fun cls ->
      if
        (not (String.equal cls.cl_name "ASR"))
        && Mj.Symtab.is_subclass checked.symtab ~sub:cls.cl_name ~super:"ASR"
      then Some cls.cl_name
      else None)
    checked.program.classes

(* Entry points of the reactive phase: the [run] methods of ASR
   subclasses; when a program has none, its static [main] methods
   (design-phase programs are analyzed relative to [main]). *)
let reactive_roots (checked : Mj.Typecheck.checked) =
  match asr_classes checked with
  | [] ->
      List.filter_map
        (fun cls ->
          match find_method cls "main" with
          | Some m when m.m_mods.is_static ->
              Some (Call_graph.method_node cls.cl_name "main")
          | Some _ | None -> None)
        checked.program.classes
  | classes -> List.map (fun cls -> Call_graph.method_node cls "run") classes

let body_of_node (checked : Mj.Typecheck.checked) (cls_name, member) =
  match find_class checked.program cls_name with
  | None -> None
  | Some cls ->
      let bodies = Mj.Visit.bodies cls in
      List.find_opt
        (fun b ->
          match b.Mj.Visit.b_kind with
          | Mj.Visit.Method m -> String.equal m.m_name member
          | Mj.Visit.Ctor c ->
              String.equal member
                (Printf.sprintf "<init>/%d" (List.length c.c_params))
          | Mj.Visit.Field_init _ -> false)
        bodies

let reactive_bodies checked graph =
  let roots = reactive_roots checked in
  let reachable = Call_graph.reachable graph ~roots in
  List.filter_map
    (fun node ->
      match body_of_node checked node with
      | Some body -> Some (node, body)
      | None -> None)
    reachable
