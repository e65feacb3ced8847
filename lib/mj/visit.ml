open Ast

type body = { b_class : string; b_kind : kind; b_stmts : stmt list }

and kind =
  | Method of method_decl
  | Ctor of ctor_decl
  | Field_init of field_decl

let bodies cls =
  let field_bodies =
    List.filter_map
      (fun f ->
        match f.f_init with
        | None -> None
        | Some e ->
            Some
              { b_class = cls.cl_name; b_kind = Field_init f;
                b_stmts = [ { stmt = Expr e; sloc = e.eloc } ] })
      cls.cl_fields
  in
  let ctor_bodies =
    List.map
      (fun c -> { b_class = cls.cl_name; b_kind = Ctor c; b_stmts = c.c_body })
      cls.cl_ctors
  in
  let method_bodies =
    List.filter_map
      (fun m ->
        match m.m_body with
        | None -> None
        | Some stmts ->
            Some { b_class = cls.cl_name; b_kind = Method m; b_stmts = stmts })
      cls.cl_methods
  in
  field_bodies @ ctor_bodies @ method_bodies

let body_name b =
  match b.b_kind with
  | Method m -> Printf.sprintf "%s.%s" b.b_class m.m_name
  | Ctor c -> Printf.sprintf "%s.<init>/%d" b.b_class (List.length c.c_params)
  | Field_init f -> Printf.sprintf "%s.%s=" b.b_class f.f_name

let rec iter_expr_deep f e =
  f e;
  let lvalue lv =
    match lv with
    | Lname _ | Llocal _ -> ()
    | Lfield (o, _) -> iter_expr_deep f o
    | Lstatic_field _ -> ()
    | Lindex (a, i) ->
        iter_expr_deep f a;
        iter_expr_deep f i
  in
  match e.expr with
  | Int_lit _ | Double_lit _ | Bool_lit _ | String_lit _ | Null_lit | This
  | Name _ | Local _ | Static_field _ ->
      ()
  | Field_access (o, _) | Array_length o | Unary (_, o) | Cast (_, o) ->
      iter_expr_deep f o
  | Index (a, i) ->
      iter_expr_deep f a;
      iter_expr_deep f i
  | Call c ->
      (match c.recv with
      | Rexpr o -> iter_expr_deep f o
      | Rsuper | Rimplicit | Rstatic _ -> ());
      List.iter (iter_expr_deep f) c.args
  | New_object (_, args) -> List.iter (iter_expr_deep f) args
  | New_array (_, dims) -> List.iter (iter_expr_deep f) dims
  | Binary (_, x, y) ->
      iter_expr_deep f x;
      iter_expr_deep f y
  | Assign (lv, rhs) ->
      lvalue lv;
      iter_expr_deep f rhs
  | Op_assign (_, lv, rhs) ->
      lvalue lv;
      iter_expr_deep f rhs
  | Pre_incr (_, lv) | Post_incr (_, lv) -> lvalue lv
  | Cond (c, a, b) ->
      iter_expr_deep f c;
      iter_expr_deep f a;
      iter_expr_deep f b

let rec iter_stmt_deep ~stmt ~expr s =
  stmt s;
  let e = iter_expr_deep expr in
  match s.stmt with
  | Block stmts -> List.iter (iter_stmt_deep ~stmt ~expr) stmts
  | Var_decl (_, _, init) -> Option.iter e init
  | Expr x -> e x
  | If (c, t, f) ->
      e c;
      iter_stmt_deep ~stmt ~expr t;
      Option.iter (iter_stmt_deep ~stmt ~expr) f
  | While (c, body) ->
      e c;
      iter_stmt_deep ~stmt ~expr body
  | Do_while (body, c) ->
      iter_stmt_deep ~stmt ~expr body;
      e c
  | For (init, cond, update, body) ->
      (match init with
      | Some (For_var (_, _, ie)) -> Option.iter e ie
      | Some (For_expr x) -> e x
      | None -> ());
      Option.iter e cond;
      Option.iter e update;
      iter_stmt_deep ~stmt ~expr body
  | Return v -> Option.iter e v
  | Super_call args -> List.iter e args
  | Break | Continue | Empty -> ()

let iter_stmts ~stmt ~expr stmts = List.iter (iter_stmt_deep ~stmt ~expr) stmts

let iter_exprs f stmts = iter_stmts ~stmt:(fun _ -> ()) ~expr:f stmts

let exists_expr pred stmts =
  let found = ref false in
  iter_exprs (fun e -> if pred e then found := true) stmts;
  !found

let exists_stmt pred stmts =
  let found = ref false in
  iter_stmts ~stmt:(fun s -> if pred s then found := true) ~expr:(fun _ -> ()) stmts;
  !found

let iter_expr = iter_expr_deep
