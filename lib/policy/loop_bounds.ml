open Mj.Ast

type bound_result =
  | Bounded of int
  | Index_modified of string
  | Unrecognized of string

let local_name = function
  | Lname n | Llocal n -> Some n
  | Lfield _ | Lstatic_field _ | Lindex _ -> None

(* Does the statement list modify local [name]? *)
let modifies_local name stmts =
  Mj.Visit.exists_expr
    (fun e ->
      match e.expr with
      | Assign (lv, _) | Op_assign (_, lv, _) | Pre_incr (_, lv) | Post_incr (_, lv)
        -> (
          match local_name lv with
          | Some n -> String.equal n name
          | None -> false)
      | _ -> false)
    stmts

(* Constant step applied to index [name] by the update expression. *)
let step_of facts name update =
  match update.expr with
  | Pre_incr (d, lv) | Post_incr (d, lv) -> (
      match local_name lv with
      | Some n when String.equal n name -> Some d
      | _ -> None)
  | Op_assign (Add, lv, rhs) -> (
      match (local_name lv, Analysis.Const_eval.const_int facts rhs) with
      | Some n, Some c when String.equal n name -> Some c
      | _ -> None)
  | Op_assign (Sub, lv, rhs) -> (
      match (local_name lv, Analysis.Const_eval.const_int facts rhs) with
      | Some n, Some c when String.equal n name -> Some (-c)
      | _ -> None)
  | Assign (lv, { expr = Binary (Add, { expr = Local n2 | Name n2; _ }, rhs); _ })
    -> (
      match (local_name lv, Analysis.Const_eval.const_int facts rhs) with
      | Some n, Some c when String.equal n name && String.equal n2 name -> Some c
      | _ -> None)
  | Assign (lv, { expr = Binary (Sub, { expr = Local n2 | Name n2; _ }, rhs); _ })
    -> (
      match (local_name lv, Analysis.Const_eval.const_int facts rhs) with
      | Some n, Some c when String.equal n name && String.equal n2 name ->
          Some (-c)
      | _ -> None)
  | _ -> None

(* Exit test [i REL limit] (or mirrored) with a constant limit. *)
let test_of facts name cond =
  let limit_of e = Analysis.Const_eval.const_int facts e in
  match cond.expr with
  | Binary (((Lt | Le | Gt | Ge) as op), { expr = Local n | Name n; _ }, limit)
    when String.equal n name -> (
      match limit_of limit with Some l -> Some (op, l) | None -> None)
  | Binary (((Lt | Le | Gt | Ge) as op), limit, { expr = Local n | Name n; _ })
    when String.equal n name -> (
      match limit_of limit with
      | Some l ->
          let mirrored =
            match op with Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | _ -> op
          in
          Some (mirrored, l)
      | None -> None)
  | _ -> None

let min32 = -0x8000_0000
let max32 = 0x7fff_ffff

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
       wraps at int32: the last executed increment must stay
       representable or the loop runs far past the computed count
       (e.g. [i < 2147483646; i += 4] wraps before failing the test). *)
    let no_wrap =
      match op with
      | Lt -> limit - 1 + step <= max32
      | Le -> limit + step <= max32
      | Gt -> limit + 1 + step >= min32
      | Ge -> limit + step >= min32
      | _ -> false
    in
    if no_wrap then Some count else None

(* The original syntactic recognizer: [int i = <const>; i REL <const>;
   i += <const>]. Kept as the fast path; the interval fallback below
   subsumes it for everything it accepts. *)
let syntactic_for_bound facts s =
  match s.stmt with
  | For (init, cond, update, body) -> (
      let index =
        match init with
        | Some (For_var (TInt, name, Some start)) ->
            Option.map (fun n -> (name, n)) (Analysis.Const_eval.const_int facts start)
        | Some (For_expr { expr = Assign (lv, start); _ }) -> (
            match (local_name lv, Analysis.Const_eval.const_int facts start) with
            | Some name, Some n -> Some (name, n)
            | _ -> None)
        | Some (For_var _) | Some (For_expr _) | None -> None
      in
      match index with
      | None -> Unrecognized "initializer is not 'int i = <constant>'"
      | Some (name, start) -> (
          match cond with
          | None -> Unrecognized "missing exit test"
          | Some cond -> (
              match test_of facts name cond with
              | None ->
                  Unrecognized
                    "exit test is not '<index> REL <compile-time constant>'"
              | Some (op, limit) -> (
                  match update with
                  | None -> Unrecognized "missing update"
                  | Some update -> (
                      match step_of facts name update with
                      | None ->
                          Unrecognized "update is not a constant step of the index"
                      | Some step ->
                          if modifies_local name [ body ] then Index_modified name
                          else (
                            match iterations ~start ~limit ~step ~op with
                            | Some n -> Bounded n
                            | None ->
                                Unrecognized
                                  "step direction or int32 wrap-around leaves \
                                   the loop unbounded"))))))
  | Block _ | Var_decl _ | Expr _ | If _ | While _ | Do_while _ | Return _
  | Break | Continue | Super_call _ | Empty ->
      invalid_arg "Loop_bounds.for_bound: not a for statement"

(* Full bound computation: syntactic first, then the interval analysis
   over [enclosing] (the method body containing the loop; defaults to
   the loop alone). The fallback sees bounds flowing through locals,
   affine limit arithmetic, and nested-loop index ranges — anything the
   abstract environment at the loop head pins down. Entry parameters
   and call results are top there, so loops governed by runtime inputs
   stay Unrecognized. *)
let for_bound ?enclosing facts s =
  match syntactic_for_bound facts s with
  | (Bounded _ | Index_modified _) as r -> r
  | Unrecognized _ as r -> (
      let enclosing = match enclosing with Some ss -> ss | None -> [ s ] in
      let summary = Analysis.Interval.analyze facts enclosing in
      match Analysis.Interval.for_bound facts summary s with
      | Some n -> Bounded n
      | None -> r)

(* while (i REL limit) { body...; i += c; } where body does not
   otherwise touch i, and limit/step are compile-time constants. A
   [break]/[continue] in the body would change meaning under the
   conversion (the step moves into the for header), so those disqualify. *)
let loop_parts facts cond body =
  let stmts = match body.stmt with Block b -> b | _ -> [ body ] in
  let has_jump =
    Mj.Visit.exists_stmt
      (fun s -> match s.stmt with Break | Continue -> true | _ -> false)
      stmts
  in
  if has_jump then None
  else
    match List.rev stmts with
    | { stmt = Expr update; _ } :: rev_prefix -> (
        let index =
          match cond.expr with
          | Binary ((Lt | Le | Gt | Ge), { expr = Local n | Name n; _ }, _) ->
              Some n
          | Binary ((Lt | Le | Gt | Ge), _, { expr = Local n | Name n; _ }) ->
              Some n
          | _ -> None
        in
        match index with
        | None -> None
        | Some name -> (
            match (test_of facts name cond, step_of facts name update) with
            | Some _, Some step
              when step <> 0 && not (modifies_local name (List.rev rev_prefix))
              ->
                Some (name, cond, update, List.rev rev_prefix)
            | _ -> None))
    | _ -> None

let while_parts facts s =
  match s.stmt with
  | While (cond, body) | Do_while (body, cond) -> loop_parts facts cond body
  | Block _ | Var_decl _ | Expr _ | If _ | For _ | Return _ | Break
  | Continue | Super_call _ | Empty ->
      None

let while_convertible facts s =
  match s.stmt with
  | While _ -> while_parts facts s <> None
  | Block _ | Var_decl _ | Expr _ | If _ | Do_while _ | For _ | Return _
  | Break | Continue | Super_call _ | Empty ->
      false

let exit_test facts ~index cond = test_of facts index cond
