open Mj.Ast
module Cost = Mj_runtime.Cost

type bound = Cycles of int | Unbounded of string

exception Unbounded_exc of string

let tariff = Cost.interpreter_tariff

type ctx = {
  checked : Mj.Typecheck.checked;
  memo : (string * string, int) Hashtbl.t;
  in_progress : (string * string, unit) Hashtbl.t;
  (* The statements of the body currently being costed, so loop-bound
     queries can hand the interval analysis its enclosing context. *)
  mutable enclosing : stmt list;
}

let with_enclosing ctx stmts f =
  let saved = ctx.enclosing in
  ctx.enclosing <- stmts;
  Fun.protect ~finally:(fun () -> ctx.enclosing <- saved) f

let rec expr_cost ctx e =
  let t = tariff in
  let base = t.Cost.dispatch in
  base
  +
  match e.expr with
  | Int_lit _ | Double_lit _ | Bool_lit _ | String_lit _ | Null_lit | This -> 0
  | Name _ | Local _ -> t.Cost.load_store
  | Field_access (o, _) -> t.Cost.field + expr_cost ctx o
  | Static_field _ -> t.Cost.field
  | Array_length o -> t.Cost.field + expr_cost ctx o
  | Index (a, i) -> t.Cost.array + expr_cost ctx a + expr_cost ctx i
  | Call call -> call_cost ctx call
  | New_object (cls, args) ->
      t.Cost.alloc_base
      + List.fold_left (fun acc a -> acc + expr_cost ctx a) 0 args
      + ctor_cost ctx cls (List.length args)
  | New_array (_, dims) ->
      (* Allocation cost grows with the (statically known) size; use the
         constant when available, else charge the base only — the memory
         rule will have flagged reactive allocations anyway. *)
      t.Cost.alloc_base
      + List.fold_left
          (fun acc d ->
            acc + expr_cost ctx d
            + t.Cost.alloc_word
              * Option.value ~default:0 (Const_eval.const_int ctx.checked d))
          0 dims
  | Unary (_, x) -> t.Cost.arith + expr_cost ctx x
  | Binary (_, x, y) -> t.Cost.arith + expr_cost ctx x + expr_cost ctx y
  | Assign (lv, rhs) -> lvalue_cost ctx lv + expr_cost ctx rhs
  | Op_assign (_, lv, rhs) ->
      t.Cost.arith + (2 * lvalue_cost ctx lv) + expr_cost ctx rhs
  | Pre_incr (_, lv) | Post_incr (_, lv) ->
      t.Cost.arith + (2 * lvalue_cost ctx lv)
  | Cast (_, x) -> t.Cost.arith + expr_cost ctx x
  | Cond (c, a, b) ->
      t.Cost.arith + expr_cost ctx c + max (expr_cost ctx a) (expr_cost ctx b)

and lvalue_cost ctx = function
  | Lname _ | Llocal _ -> tariff.Cost.load_store
  | Lfield (o, _) -> tariff.Cost.field + expr_cost ctx o
  | Lstatic_field _ -> tariff.Cost.field
  | Lindex (a, i) -> tariff.Cost.array + expr_cost ctx a + expr_cost ctx i

and call_cost ctx call =
  let t = tariff in
  let args = List.fold_left (fun acc a -> acc + expr_cost ctx a) 0 call.args in
  let recv =
    match call.recv with
    | Rexpr o -> expr_cost ctx o
    | Rsuper | Rimplicit | Rstatic _ -> 0
  in
  let target =
    match call.resolved with
    | None -> raise (Unbounded_exc "unresolved call")
    | Some r ->
        if r.rc_native then t.Cost.native
        else named_method_cost ctx r.rc_class call.mname
  in
  t.Cost.call + args + recv + target

and ctor_cost ctx cls arity =
  body_cost ctx (cls, Printf.sprintf "<init>/%d" arity) (fun () ->
      match Mj.Symtab.lookup_ctor ctx.checked.Mj.Typecheck.symtab cls arity with
      | None -> raise (Unbounded_exc (Printf.sprintf "no constructor %s/%d" cls arity))
      | Some ctor ->
          let fields_cost =
            match find_class (Mj.Symtab.program ctx.checked.Mj.Typecheck.symtab) cls with
            | None -> 0
            | Some decl ->
                List.fold_left
                  (fun acc f ->
                    match f.f_init with
                    | Some e when not f.f_mods.is_static ->
                        acc + expr_cost ctx e + tariff.Cost.field
                    | Some _ | None -> 0 + acc)
                  0 decl.cl_fields
          in
          let super_cost =
            match
              (ctor.c_body, Mj.Symtab.superclass ctx.checked.Mj.Typecheck.symtab cls)
            with
            | { stmt = Super_call args; _ } :: _, Some super ->
                ctor_cost ctx super (List.length args)
            | _, Some super -> ctor_cost ctx super 0
            | _, None -> 0
          in
          let body =
            match ctor.c_body with
            | { stmt = Super_call _; _ } :: rest -> rest
            | body -> body
          in
          super_cost + fields_cost
          + with_enclosing ctx body (fun () -> stmts_cost ctx body))

and named_method_cost ctx cls mname =
  match Mj.Symtab.lookup_method ctx.checked.Mj.Typecheck.symtab cls mname with
  | None -> raise (Unbounded_exc (Printf.sprintf "no method %s.%s" cls mname))
  | Some (defining, m) -> (
      match m.m_body with
      | None -> tariff.Cost.native
      | Some body ->
          (* Dynamic dispatch: bound by the worst over all overrides. *)
          let overrides =
            List.filter_map
              (fun c ->
                if
                  (not (String.equal c.cl_name defining))
                  && Mj.Symtab.is_subclass ctx.checked.Mj.Typecheck.symtab
                       ~sub:c.cl_name ~super:defining
                then
                  Option.map
                    (fun m' -> (c.cl_name, m'))
                    (find_method c mname)
                else None)
              (Mj.Symtab.program ctx.checked.Mj.Typecheck.symtab).classes
          in
          let cost_of (owner, (m : method_decl)) =
            match m.m_body with
            | None -> tariff.Cost.native
            | Some body ->
                body_cost ctx (owner, mname) (fun () ->
                    with_enclosing ctx body (fun () -> stmts_cost ctx body))
          in
          List.fold_left
            (fun acc target -> max acc (cost_of target))
            (body_cost ctx (defining, mname) (fun () ->
                 with_enclosing ctx body (fun () -> stmts_cost ctx body)))
            overrides)

and body_cost ctx key compute =
  match Hashtbl.find_opt ctx.memo key with
  | Some cost -> cost
  | None ->
      if Hashtbl.mem ctx.in_progress key then
        raise
          (Unbounded_exc
             (Printf.sprintf "recursive invocation through %s.%s" (fst key)
                (snd key)));
      Hashtbl.replace ctx.in_progress key ();
      let cost = compute () in
      Hashtbl.remove ctx.in_progress key;
      Hashtbl.replace ctx.memo key cost;
      cost

and stmts_cost ctx stmts =
  List.fold_left (fun acc s -> acc + stmt_cost ctx s) 0 stmts

and stmt_cost ctx s =
  let t = tariff in
  t.Cost.dispatch
  +
  match s.stmt with
  | Block stmts -> stmts_cost ctx stmts
  | Var_decl (_, _, init) ->
      t.Cost.load_store
      + Option.fold ~none:0 ~some:(fun e -> expr_cost ctx e) init
  | Expr e -> expr_cost ctx e
  | If (c, then_s, else_s) ->
      expr_cost ctx c
      + max (stmt_cost ctx then_s)
          (Option.fold ~none:0 ~some:(fun e -> stmt_cost ctx e) else_s)
  | While _ -> raise (Unbounded_exc "while loop")
  | Do_while _ -> raise (Unbounded_exc "do-while loop")
  | For (init, cond, update, body) -> (
      match Loop_bounds.for_bound ~enclosing:ctx.enclosing ctx.checked s with
      | Loop_bounds.Bounded n ->
          let header =
            (match init with
            | Some (For_var (_, _, Some e)) | Some (For_expr e) -> expr_cost ctx e
            | Some (For_var (_, _, None)) | None -> 0)
            + Option.fold ~none:0 ~some:(fun e -> expr_cost ctx e) cond
          in
          let per_iteration =
            stmt_cost ctx body
            + Option.fold ~none:0 ~some:(fun e -> expr_cost ctx e) update
            + Option.fold ~none:0 ~some:(fun e -> expr_cost ctx e) cond
          in
          header + (n * per_iteration)
      | Loop_bounds.Index_modified name ->
          raise (Unbounded_exc (Printf.sprintf "loop index '%s' modified" name))
      | Loop_bounds.Unrecognized why ->
          raise (Unbounded_exc (Printf.sprintf "for loop: %s" why)))
  | Return e -> Option.fold ~none:0 ~some:(fun e -> expr_cost ctx e) e
  | Break | Continue | Empty -> 0
  | Super_call args ->
      List.fold_left (fun acc a -> acc + expr_cost ctx a) 0 args

let method_bound checked ~cls ~mname =
  let ctx =
    { checked; memo = Hashtbl.create 32;
      in_progress = Hashtbl.create 8; enclosing = [] }
  in
  try Cycles (named_method_cost ctx cls mname)
  with Unbounded_exc why -> Unbounded why

let reaction_bound checked ~cls = method_bound checked ~cls ~mname:"run"
