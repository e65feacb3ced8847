open Mj.Ast
module Cost = Mj_runtime.Cost

type bound = Cycles of int | Unbounded of string

exception Unbounded_exc of string

let tariff = Cost.interpreter_tariff

type ctx = {
  facts : Analysis.Facts.t;
  graph : Analysis.Call_graph.t;
  memo : (Analysis.Call_graph.node, int) Hashtbl.t;
  in_progress : (Analysis.Call_graph.node, unit) Hashtbl.t;
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
      let ctors = Analysis.Call_graph.constructors ctx.graph cls (List.length args) in
      if ctors = [] then
        raise
          (Unbounded_exc
             (Printf.sprintf "no constructor %s/%d" cls (List.length args)));
      t.Cost.alloc_base
      + List.fold_left (fun acc a -> acc + expr_cost ctx a) 0 args
      + List.fold_left (fun acc node -> acc + node_cost ctx node) 0 ctors
  | New_array (_, dims) ->
      (* Allocation cost grows with the (statically known) size; use the
         constant when available, else charge the base only — the memory
         rule will have flagged reactive allocations anyway. *)
      t.Cost.alloc_base
      + List.fold_left
          (fun acc d ->
            acc + expr_cost ctx d
            + t.Cost.alloc_word
              * Option.value ~default:0
                  (Analysis.Const_eval.const_int ctx.facts d))
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
        else
          (* Dynamic dispatch: bound by the worst target. *)
          List.fold_left
            (fun acc node -> max acc (node_cost ctx node))
            0
            (Analysis.Call_graph.call_targets ctx.graph call)
  in
  t.Cost.call + args + recv + target

(* The code a node runs itself: a method's body, or a constructor's
   field initializers and body (its superclass constructor is costed as
   the next link of the chain, so its [super(...)] statement is
   skipped); a native method has no body. *)
and node_cost ctx node =
  match Analysis.Call_graph.bodies ctx.graph node with
  | [] -> tariff.Cost.native
  | bodies ->
      body_cost ctx node (fun () ->
          List.fold_left
            (fun acc body ->
              acc
              +
              match body.Mj.Visit.b_kind with
              | Mj.Visit.Field_init { f_init = Some e; _ } ->
                  expr_cost ctx e + tariff.Cost.field
              | Mj.Visit.Field_init { f_init = None; _ } -> 0
              | Mj.Visit.Ctor { c_body = { stmt = Super_call _; _ } :: stmts; _ }
              | Mj.Visit.Ctor { c_body = stmts; _ }
              | Mj.Visit.Method { m_body = Some stmts; _ } ->
                  with_enclosing ctx stmts (fun () -> stmts_cost ctx stmts)
              | Mj.Visit.Method { m_body = None; _ } -> 0)
            0 bodies)

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
      match Loop_bounds.for_bound ~enclosing:ctx.enclosing ctx.facts s with
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

let reaction_bound checked ~cls =
  let graph = Analysis.Call_graph.build checked in
  let ctx =
    { facts = Analysis.Facts.of_checked checked; graph;
      memo = Hashtbl.create 32; in_progress = Hashtbl.create 8;
      enclosing = [] }
  in
  match Analysis.Call_graph.method_node graph cls "run" with
  | None -> Unbounded (Printf.sprintf "no method %s.run" cls)
  | Some run -> (
      try Cycles (node_cost ctx run)
      with Unbounded_exc why -> Unbounded why)
