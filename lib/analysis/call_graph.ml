open Mj.Ast

type node = string * string

type t = {
  tab : Mj.Symtab.t;
  all_nodes : node list;
  edges : (node, node list) Hashtbl.t;
  bodies : (node, Mj.Visit.body list) Hashtbl.t;
  super_ctors : (node, node) Hashtbl.t;
  overrides : (node, node list) Hashtbl.t;
  locs : (node, Mj.Loc.t) Hashtbl.t;
}

let ctor_member arity = Printf.sprintf "<init>/%d" arity

let node_name (cls, m) = Printf.sprintf "%s.%s" cls m

let method_node t cls name =
  Option.map
    (fun (defining, _) -> (defining, name))
    (Mj.Symtab.lookup_method t.tab cls name)

let ctor_node t cls arity =
  if
    Mj.Symtab.is_class t.tab cls
    && Mj.Symtab.lookup_ctor t.tab cls arity <> None
  then Some (cls, ctor_member arity)
  else None

let find tbl node = Option.value ~default:[] (Hashtbl.find_opt tbl node)

let callees t node = find t.edges node

let bodies t node = find t.bodies node

let node_loc t node =
  Option.value ~default:Mj.Loc.dummy (Hashtbl.find_opt t.locs node)

let call_targets t call =
  match call.resolved with
  | None -> []
  | Some r ->
      let node = (r.rc_class, call.mname) in
      if r.rc_static then [ node ] else node :: find t.overrides node

let rec constructors_from t node =
  node
  :: (match Hashtbl.find_opt t.super_ctors node with
     | Some super -> constructors_from t super
     | None -> [])

let constructors t cls arity =
  match ctor_node t cls arity with
  | Some node -> constructors_from t node
  | None -> []

(* Callees of [stmts]: every target of each call, and the constructor a
   [new] names (its superclass constructors are that node's callees). A
   [super(...)] statement is the enclosing constructor's superclass edge,
   added by [build]. *)
let edges_of_stmts t stmts =
  let acc = ref [] in
  Mj.Visit.iter_exprs
    (fun e ->
      match e.expr with
      | New_object (c, args) ->
          acc := (c, ctor_member (List.length args)) :: !acc
      | Call call -> acc := List.rev_append (call_targets t call) !acc
      | Int_lit _ | Double_lit _ | Bool_lit _ | String_lit _ | Null_lit | This
      | Name _ | Local _ | Field_access _ | Static_field _ | Array_length _
      | Index _ | New_array _ | Unary _ | Binary _ | Assign _ | Op_assign _
      | Pre_incr _ | Post_incr _ | Cast _ | Cond _ ->
          ())
    stmts;
  !acc

let build (checked : Mj.Typecheck.checked) =
  let tab = checked.symtab in
  let program = Mj.Symtab.program tab in
  let t =
    { tab; all_nodes = []; edges = Hashtbl.create 128;
      bodies = Hashtbl.create 128; super_ctors = Hashtbl.create 32;
      overrides = Hashtbl.create 32; locs = Hashtbl.create 128 }
  in
  (* Overrides first: the edges of a virtual call depend on them. *)
  List.iter
    (fun cls ->
      List.iter
        (fun super ->
          List.iter
            (fun m ->
              let target = (super, m.m_name) in
              Hashtbl.replace t.overrides target
                (find t.overrides target @ [ (cls.cl_name, m.m_name) ]))
            cls.cl_methods)
        (List.tl (Mj.Symtab.ancestors tab cls.cl_name)))
    program.classes;
  let all_nodes = ref [] in
  let declare node loc bodies ~super =
    all_nodes := node :: !all_nodes;
    Hashtbl.replace t.locs node loc;
    Hashtbl.replace t.bodies node bodies;
    Option.iter (Hashtbl.replace t.super_ctors node) super;
    Hashtbl.replace t.edges node
      (Option.to_list super
      @ List.concat_map (fun b -> edges_of_stmts t b.Mj.Visit.b_stmts) bodies)
  in
  List.iter
    (fun cls ->
      let name = cls.cl_name in
      let field_inits =
        List.filter
          (fun b ->
            match b.Mj.Visit.b_kind with
            | Mj.Visit.Field_init f -> not f.f_mods.is_static
            | Mj.Visit.Method _ | Mj.Visit.Ctor _ -> false)
          (Mj.Visit.bodies cls)
      in
      let ctors =
        if cls.cl_ctors = [] then
          [ { c_mods = no_mods; c_params = []; c_body = []; c_loc = cls.cl_loc } ]
        else cls.cl_ctors
      in
      List.iter
        (fun c ->
          (* The superclass constructor an explicit [super(...)] selects,
             else the implicit no-argument one. *)
          let super =
            Option.bind (Mj.Symtab.superclass tab name) (fun super ->
                ctor_node t super
                  (match c.c_body with
                  | { stmt = Super_call args; _ } :: _ -> List.length args
                  | _ -> 0))
          in
          declare
            (name, ctor_member (List.length c.c_params))
            c.c_loc ~super
            (field_inits
            @ [ { Mj.Visit.b_class = name; b_kind = Mj.Visit.Ctor c;
                  b_stmts = c.c_body } ]))
        ctors;
      List.iter
        (fun m ->
          declare (name, m.m_name) m.m_loc ~super:None
            (match m.m_body with
            | None -> []
            | Some stmts ->
                [ { Mj.Visit.b_class = name; b_kind = Mj.Visit.Method m;
                    b_stmts = stmts } ]))
        cls.cl_methods)
    program.classes;
  { t with all_nodes = List.rev !all_nodes }

let reachable t ~roots =
  let seen = Hashtbl.create 64 in
  let rec visit node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      List.iter visit (callees t node)
    end
  in
  List.iter visit roots;
  List.filter (Hashtbl.mem seen) t.all_nodes

let recursive_nodes t =
  let state = Hashtbl.create 64 in
  let on_cycle = Hashtbl.create 16 in
  let rec visit stack node =
    match Hashtbl.find_opt state node with
    | Some `In_progress ->
        (* Everything from the first occurrence of [node] in the stack
           participates in the cycle. *)
        let rec mark = function
          | [] -> ()
          | n :: rest ->
              Hashtbl.replace on_cycle n ();
              if n <> node then mark rest
        in
        mark stack
    | Some `Done -> ()
    | None ->
        Hashtbl.replace state node `In_progress;
        List.iter (visit (node :: stack)) (callees t node);
        Hashtbl.replace state node `Done
  in
  List.iter (visit []) t.all_nodes;
  List.filter (Hashtbl.mem on_cycle) t.all_nodes
