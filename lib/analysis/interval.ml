(* Interval analysis over MJ method bodies.

   An abstract-interpretation client of {!Cfg} and {!Dataflow}: each int
   local is tracked as a 32-bit interval, each array local as a
   statically-known length. The analysis follows the runtime's wrapping
   semantics — any operation whose exact result range escapes
   [int32] goes to top, so a concrete wrapped value is always inside the
   abstract interval (no claim is ever made that elides a real trap).

   Three facts are extracted from the converged fixpoint:
   - [safe_sites]: array accesses (keyed by the span of the index
     subexpression) whose index interval provably sits inside the
     array's known length, on every path — the bounds-check elision plan;
   - [loop_envs]: the abstract environment at each [for] statement's
     entry, which {!for_bound} turns into iteration counts that see
     through locals (copied bounds, affine arithmetic, nested loops);
   - reachability (implicitly): dead branches refine to bottom. *)

open Mj.Ast
open Itv

(* ------------------------------------------------------------------ *)
(* Abstract evaluation                                                 *)
(* ------------------------------------------------------------------ *)

type aval = Aint of itv | Aarr of int option | Aother

type ctx = {
  facts : Facts.t;
  mutable record : bool;  (* true during the post-fixpoint reporting pass *)
  sites : (Mj.Loc.t, bool) Hashtbl.t;  (* index-expr span -> always safe *)
  loop_envs : (Mj.Loc.t, env) Hashtbl.t;  (* for-stmt span -> entry env *)
}

let make_ctx facts =
  { facts; record = false; sites = Hashtbl.create 32;
    loop_envs = Hashtbl.create 8 }

let lookup env name ety =
  match SMap.find_opt name env with
  | Some (Vint i) -> Aint i
  | Some (Varr l) -> Aarr l
  | None -> (
      match ety with
      | Some TInt -> Aint top
      | Some (TArray _) -> Aarr None
      | _ -> Aother)

let bind env name = function
  | Aint i -> SMap.add name (Vint i) env
  | Aarr l -> SMap.add name (Varr l) env
  | Aother -> SMap.remove name env

let join_aval a b =
  match (a, b) with
  | Aint i, Aint j -> Aint (join_itv i j)
  | Aarr m, Aarr n -> Aarr (if m = n then m else None)
  | _ -> Aother

let as_itv = function Aint i -> i | Aarr _ | Aother -> top

let record_site ctx loc safe =
  if ctx.record then
    let prev = Option.value (Hashtbl.find_opt ctx.sites loc) ~default:true in
    Hashtbl.replace ctx.sites loc (prev && safe)

let rec eval ctx env e : env * aval =
  match e.expr with
  | Int_lit n -> (env, Aint (const n))
  | Double_lit _ | Bool_lit _ | String_lit _ | Null_lit | This -> (env, Aother)
  | Local name | Name name -> (env, lookup env name e.ety)
  | Field_access (o, fname) -> (
      let env, _ = eval ctx env o in
      match e.ety with
      | Some TInt -> (env, Aint top)
      | Some (TArray _) ->
          let len =
            match o.ety with
            | Some (TClass cls) ->
                Const_eval.field_array_length ctx.facts ~cls ~field:fname
            | _ -> None
          in
          (env, Aarr len)
      | _ -> (env, Aother))
  | Static_field _ -> (
      match e.ety with
      | Some TInt -> (
          match Const_eval.const_int ctx.facts e with
          | Some n -> (env, Aint (const n))
          | None -> (env, Aint top))
      | Some (TArray _) -> (env, Aarr None)
      | _ -> (env, Aother))
  | Array_length o -> (
      let env, ov = eval ctx env o in
      match ov with
      | Aarr (Some n) -> (env, Aint (const n))
      | _ -> (
          match Const_eval.const_int ctx.facts e with
          | Some n -> (env, Aint (const n))
          | None -> (env, Aint { lo = 0; hi = max32 })))
  | Index (a, i) ->
      let env, av = eval ctx env a in
      let env, iv = eval ctx env i in
      note_access ctx av iv i.eloc;
      let v =
        match e.ety with
        | Some TInt -> Aint top
        | Some (TArray _) -> Aarr None
        | _ -> Aother
      in
      (env, v)
  | Call call ->
      let env =
        match call.recv with
        | Rexpr o -> fst (eval ctx env o)
        | Rsuper | Rimplicit | Rstatic _ -> env
      in
      let env =
        List.fold_left (fun env a -> fst (eval ctx env a)) env call.args
      in
      (* Calls cannot rebind the caller's locals, and a tracked array
         length is an object property fixed at allocation — so no havoc
         is needed; only the result is unknown. *)
      let v =
        match e.ety with
        | Some TInt -> Aint top
        | Some (TArray _) -> Aarr None
        | _ -> Aother
      in
      (env, v)
  | New_object (_, args) ->
      (List.fold_left (fun env a -> fst (eval ctx env a)) env args, Aother)
  | New_array (_, [ dim ]) -> (
      let env, dv = eval ctx env dim in
      match dv with
      | Aint { lo; hi } when lo = hi && lo >= 0 -> (env, Aarr (Some lo))
      | _ -> (env, Aarr None))
  | New_array (_, dims) ->
      (List.fold_left (fun env d -> fst (eval ctx env d)) env dims, Aarr None)
  | Unary (Neg, x) ->
      let env, xv = eval ctx env x in
      let v =
        match xv with Aint i -> Aint (neg_itv i) | _ -> as_int_val e
      in
      (env, v)
  | Unary (Not, x) -> (fst (eval ctx env x), Aother)
  | Binary ((And | Or), a, b) ->
      (* Short-circuit in expression position: the right operand may or
         may not run — join both possibilities. *)
      let env_a, _ = eval ctx env a in
      let env_ab, _ = eval ctx env_a b in
      (join_env env_a env_ab, Aother)
  | Binary ((Eq | Neq | Lt | Gt | Le | Ge), a, b) ->
      let env, _ = eval ctx env a in
      let env, _ = eval ctx env b in
      (env, Aother)
  | Binary (op, a, b) -> (
      let env, av = eval ctx env a in
      let env, bv = eval ctx env b in
      match (e.ety, av, bv) with
      | Some TInt, Aint x, Aint y ->
          let v =
            match op with
            | Add -> add_itv x y
            | Sub -> sub_itv x y
            | Mul -> mul_itv x y
            | Div -> div_itv x y
            | Mod -> mod_itv x y
            | Shl -> shl_itv x y
            | Shr -> shr_itv x y
            | Band -> band_itv x y
            | Bor | Bxor -> top
            | Eq | Neq | Lt | Gt | Le | Ge | And | Or -> top
          in
          (env, Aint v)
      | Some TInt, _, _ -> (env, Aint top)
      | _ -> (env, Aother))
  | Assign (lv, rhs) ->
      let env, v = eval ctx env rhs in
      let env = assign_lvalue ctx env lv v in
      (env, v)
  | Op_assign (op, lv, rhs) ->
      let env, old = read_lvalue ctx env lv in
      let env, rv = eval ctx env rhs in
      let v =
        match (old, rv) with
        | Aint x, Aint y -> (
            match op with
            | Add -> Aint (add_itv x y)
            | Sub -> Aint (sub_itv x y)
            | Mul -> Aint (mul_itv x y)
            | Div -> Aint (div_itv x y)
            | Mod -> Aint (mod_itv x y)
            | Shl -> Aint (shl_itv x y)
            | Shr -> Aint (shr_itv x y)
            | Band -> Aint (band_itv x y)
            | Bor | Bxor -> Aint top
            | Eq | Neq | Lt | Gt | Le | Ge | And | Or -> Aother)
        | _ -> if e.ety = Some TInt then Aint top else Aother
      in
      let env = write_lvalue ctx env lv v in
      (env, v)
  | Pre_incr (d, lv) ->
      let env, old = read_lvalue ctx env lv in
      let v =
        match old with
        | Aint i -> Aint (add_itv i (const d))
        | _ -> Aint top
      in
      (write_lvalue ctx env lv v, v)
  | Post_incr (d, lv) ->
      let env, old = read_lvalue ctx env lv in
      let v =
        match old with
        | Aint i -> Aint (add_itv i (const d))
        | _ -> Aint top
      in
      let old = match old with Aint _ -> old | _ -> Aint top in
      (write_lvalue ctx env lv v, old)
  | Cast (TInt, x) -> (
      let env, xv = eval ctx env x in
      match (x.ety, xv) with
      | Some TInt, Aint i -> (env, Aint i)
      | _ -> (env, Aint top))
  | Cast (_, x) ->
      let env, xv = eval ctx env x in
      let v = match (e.ety, xv) with Some (TArray _), Aarr l -> Aarr l | _ -> Aother in
      (env, v)
  | Cond (c, a, b) ->
      let env, _ = eval ctx env c in
      let env_a, va = eval ctx env a in
      let env_b, vb = eval ctx env b in
      (join_env env_a env_b, join_aval va vb)

and as_int_val e = if e.ety = Some TInt then Aint top else Aother

and note_access ctx av iv loc =
  let safe =
    match (av, iv) with
    | Aarr (Some len), Aint { lo; hi } -> lo >= 0 && hi < len
    | _ -> false
  in
  record_site ctx loc safe

and read_lvalue ctx env = function
  | Lname name | Llocal name -> (env, lookup env name (Some TInt))
  | Lfield (o, _) -> (fst (eval ctx env o), Aint top)
  | Lstatic_field _ -> (env, Aint top)
  | Lindex (a, i) ->
      let env, av = eval ctx env a in
      let env, iv = eval ctx env i in
      note_access ctx av iv i.eloc;
      (env, Aint top)

and write_lvalue ctx env lv v =
  match lv with
  | Lname name | Llocal name -> bind env name v
  | Lfield (o, _) -> fst (eval ctx env o)
  | Lstatic_field _ -> env
  | Lindex _ ->
      (* The array and index were already evaluated (and the site
         recorded) by the paired [read_lvalue]. *)
      env

and assign_lvalue ctx env lv v =
  match lv with
  | Lname name | Llocal name -> bind env name v
  | Lfield (o, _) -> fst (eval ctx env o)
  | Lstatic_field _ -> env
  | Lindex (a, i) ->
      let env, av = eval ctx env a in
      let env, iv = eval ctx env i in
      note_access ctx av iv i.eloc;
      env

(* ------------------------------------------------------------------ *)
(* Condition refinement                                                *)
(* ------------------------------------------------------------------ *)

let negate_rel = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Neq
  | Neq -> Eq
  | op -> op

let mirror_rel = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | op -> op

(* Narrow [x] to satisfy [x REL y]; None means the branch is dead. *)
let refine_itv x rel y =
  match rel with
  | Lt -> if y.hi = min32 then None else meet_itv x { lo = min32; hi = y.hi - 1 }
  | Le -> meet_itv x { lo = min32; hi = y.hi }
  | Gt -> if y.lo = max32 then None else meet_itv x { lo = y.lo + 1; hi = max32 }
  | Ge -> meet_itv x { lo = y.lo; hi = max32 }
  | Eq -> meet_itv x y
  | Neq ->
      if y.lo = y.hi && x.lo = x.hi && x.lo = y.lo then None
      else
        let x = if y.lo = y.hi && x.lo = y.lo then { x with lo = x.lo + 1 } else x in
        let x = if y.lo = y.hi && x.hi = y.lo then { x with hi = x.hi - 1 } else x in
        if x.lo > x.hi then None else Some x
  | _ -> Some x

let local_of e =
  match e.expr with Local n | Name n -> Some n | _ -> None

(* Locals written anywhere inside [e] (assignments, compound
   assignments, increments). *)
let written_locals e =
  let acc = ref [] in
  Mj.Visit.iter_expr
    (fun x ->
      match x.expr with
      | Assign (lv, _) | Op_assign (_, lv, _) | Pre_incr (_, lv)
      | Post_incr (_, lv) -> (
          match lv with
          | Lname n | Llocal n -> if not (List.mem n !acc) then acc := n :: !acc
          | Lfield _ | Lstatic_field _ | Lindex _ -> ())
      | _ -> ())
    e;
  !acc

let rec assume ctx env cond sense : state =
  match cond.expr with
  | Bool_lit b -> if b = sense then Some env else None
  | Unary (Not, x) -> assume ctx env x (not sense)
  | Binary (((Lt | Le | Gt | Ge | Eq | Neq) as op), l, r)
    when l.ety = Some TInt && r.ety = Some TInt ->
      let env, lv = eval ctx env l in
      let env, rv = eval ctx env r in
      let op = if sense then op else negate_rel op in
      let li = as_itv lv and ri = as_itv rv in
      (* The relation constrains the operand *values at comparison
         time*. If the condition itself writes a local (e.g.
         [i < ++i]), that local's post-condition binding differs from
         the compared value, so narrowing it with the relation would be
         unsound — skip those. *)
      let written = written_locals cond in
      let narrow env name rel other =
        if List.mem name written then Some env
        else
          match SMap.find_opt name env with
          | Some (Vint cur) -> (
              match refine_itv cur rel other with
              | Some i -> Some (SMap.add name (Vint i) env)
              | None -> None)
          | Some (Varr _) -> Some env
          | None -> (
              match refine_itv top rel other with
              | Some i -> Some (SMap.add name (Vint i) env)
              | None -> None)
      in
      let st =
        match local_of l with
        | Some n -> narrow env n op ri
        | None -> Some env
      in
      Option.bind st (fun env ->
          match local_of r with
          | Some n -> narrow env n (mirror_rel op) li
          | None -> Some env)
  | _ ->
      (* Boolean locals, calls, etc.: evaluate for side effects only. *)
      Some (fst (eval ctx env cond))

(* ------------------------------------------------------------------ *)
(* Transfer + analysis driver                                          *)
(* ------------------------------------------------------------------ *)

let transfer ctx cmd (st : state) : state =
  match st with
  | None -> None
  | Some env -> (
      match cmd with
      | Cfg.Decl (_, name, init) -> (
          match init with
          | Some e ->
              let env, v = eval ctx env e in
              Some (bind env name v)
          | None -> Some (SMap.remove name env))
      | Cfg.Eval e -> Some (fst (eval ctx env e))
      | Cfg.Assume (c, sense) -> assume ctx env c sense
      | Cfg.Ret e -> (
          match e with
          | Some e -> Some (fst (eval ctx env e))
          | None -> Some env)
      | Cfg.Loop_head loc ->
          if ctx.record then begin
            let env' =
              match Hashtbl.find_opt ctx.loop_envs loc with
              | Some prev -> join_env prev env
              | None -> env
            in
            Hashtbl.replace ctx.loop_envs loc env'
          end;
          Some env)

type summary = Facts.summary

module Solver = Dataflow.Make (State)

let analyze_body facts stmts =
  let cfg = Cfg.build stmts in
  let ctx = make_ctx facts in
  let in_states =
    Solver.solve ~transfer:(transfer ctx) (Dataflow.plan cfg)
      ~init:(Some SMap.empty)
  in
  (* Reporting pass: walk every reachable block once under its converged
     in-state, collecting loop-entry environments and site safety. *)
  ctx.record <- true;
  Array.iteri
    (fun i b ->
      match in_states.(i) with
      | None -> ()
      | Some _ ->
          ignore
            (List.fold_left
               (fun st c -> transfer ctx c st)
               in_states.(i) b.Cfg.cmds))
    cfg.Cfg.blocks;
  let safe = Hashtbl.create 32 in
  Hashtbl.iter (fun loc ok -> if ok then Hashtbl.replace safe loc ()) ctx.sites;
  { Facts.safe_sites = safe; loop_envs = ctx.loop_envs }

(* Policy passes ask about every loop of the same body in turn, so the
   summary is memoized in the program's context. *)
let analyze facts stmts =
  Facts.memo_summary facts stmts (fun () -> analyze_body facts stmts)

let safe_sites (summary : summary) = summary.Facts.safe_sites

(* ------------------------------------------------------------------ *)
(* Loop bounds from the fixpoint                                       *)
(* ------------------------------------------------------------------ *)

(* The closed-form iteration count assumes the limit expression is
   stable across iterations: no side effects of its own, and none of its
   locals written by the body or the update. *)
let rec pure_limit e =
  match e.expr with
  | Int_lit _ | Local _ | Name _ | Static_field _ -> true
  | Array_length o | Field_access (o, _) -> pure_limit o
  | Unary (Neg, o) | Cast (TInt, o) -> pure_limit o
  | Binary ((Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor), a, b)
    ->
      pure_limit a && pure_limit b
  | _ -> false

let locals_of e =
  let acc = ref [] in
  Mj.Visit.iter_expr
    (fun x ->
      match x.expr with
      | Local n | Name n -> if not (List.mem n !acc) then acc := n :: !acc
      | _ -> ())
    e;
  !acc

let modifies_local name stmts =
  let hit lv =
    match lv with
    | Lname n | Llocal n -> String.equal n name
    | Lfield _ | Lstatic_field _ | Lindex _ -> false
  in
  Mj.Visit.exists_expr
    (fun e ->
      match e.expr with
      | Assign (lv, _) | Op_assign (_, lv, _) | Pre_incr (_, lv)
      | Post_incr (_, lv) ->
          hit lv
      | _ -> false)
    stmts

let iterations ~start ~limit ~step ~op =
  let count =
    match op with
    | Lt -> if step > 0 then (limit - start + step - 1) / step else -1
    | Le -> if step > 0 then (limit - start + step) / step else -1
    | Gt -> if step < 0 then (start - limit - step - 1) / -step else -1
    | Ge -> if step < 0 then (start - limit - step) / -step else -1
    | _ -> -1
  in
  if count < 0 then None
  else if count = 0 then Some 0
  else
    (* The closed form assumes exact arithmetic, but the concrete index
       wraps at int32: the last executed increment starts from the
       largest (smallest) index still inside the loop, and its result
       must stay representable or the loop runs far past the computed
       count (e.g. [i < 2147483646; i += 4] wraps before ever failing
       the test). *)
    let no_wrap =
      match op with
      | Lt -> limit - 1 + step <= max32
      | Le -> limit + step <= max32
      | Gt -> limit + 1 + step >= min32
      | Ge -> limit + step >= min32
      | _ -> false
    in
    if no_wrap then Some count else None

(* Constant step detection by abstract probing: running the update from
   i = c must land on exactly i = c + step for two distinct probes —
   which accepts i++, i += k, i = i + k and rejects any non-unit affine
   or non-deterministic update. *)
let step_of ctx env name update =
  let probe v =
    let env = SMap.add name (Vint (const v)) env in
    let env, _ = eval ctx env update in
    match SMap.find_opt name env with
    | Some (Vint { lo; hi }) when lo = hi -> Some lo
    | _ -> None
  in
  match (probe 0, probe 1) with
  | Some c0, Some c1 when c1 = c0 + 1 && c0 <> 0 -> Some c0
  | _ -> None

let for_bound facts (summary : summary) s =
  match s.stmt with
  | For (init, Some cond, Some update, body) -> (
      match Hashtbl.find_opt summary.Facts.loop_envs s.sloc with
      | None -> None
      | Some env0 -> (
          let ctx = make_ctx facts in
          let index =
            match init with
            | Some (For_var (TInt, name, Some e)) -> Some (name, e)
            | Some (For_expr { expr = Assign ((Lname name | Llocal name), e); _ })
              ->
                Some (name, e)
            | _ -> None
          in
          match index with
          | None -> None
          | Some (name, start_e) -> (
              let env1, start_v = eval ctx env0 start_e in
              let env1 = bind env1 name start_v in
              let test =
                match cond.expr with
                | Binary (((Lt | Le | Gt | Ge) as op), l, r) -> (
                    match (local_of l, local_of r) with
                    | Some n, _ when String.equal n name -> Some (op, r)
                    | _, Some n when String.equal n name ->
                        Some (mirror_rel op, l)
                    | _ -> None)
                | _ -> None
              in
              match test with
              | None -> None
              | Some (op, limit_e) -> (
                  let loop_stmts = [ body; { s with stmt = Expr update } ] in
                  let stable =
                    pure_limit limit_e
                    && (not (List.mem name (locals_of limit_e)))
                    && List.for_all
                         (fun n -> not (modifies_local n loop_stmts))
                         (locals_of limit_e)
                  in
                  (* The constant step from [step_of] is probed in the
                     loop-entry environment, so every local the update
                     reads (other than the index itself) must keep its
                     entry value across iterations — reject if the body
                     or the update writes one (e.g. [i += k] with
                     [k = 1] in the body). *)
                  let step_stable =
                    List.for_all
                      (fun n ->
                        String.equal n name
                        || not (modifies_local n loop_stmts))
                      (locals_of update)
                  in
                  if
                    (not stable) || (not step_stable)
                    || modifies_local name [ body ]
                  then None
                  else
                    match (start_v, eval ctx env1 limit_e) with
                    | Aint start, (_, Aint limit) -> (
                        if is_top start || is_top limit then None
                        else
                          match step_of ctx env1 name update with
                          | None -> None
                          | Some step ->
                              (* Worst case over the abstract start and
                                 limit: most distant pairing. *)
                              let start_w =
                                if step > 0 then start.lo else start.hi
                              in
                              let limit_w =
                                if step > 0 then limit.hi else limit.lo
                              in
                              if
                                (step > 0 && (start.lo = min32 || limit.hi = max32))
                                || (step < 0
                                   && (start.hi = max32 || limit.lo = min32))
                              then None
                              else
                                iterations ~start:start_w ~limit:limit_w ~step
                                  ~op)
                    | _ -> None))))
  | _ -> None
