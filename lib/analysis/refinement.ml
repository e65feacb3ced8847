(* Per-transform verification conditions for the SFR engine.

   [Engine.refine] records, for every iteration, the program before and
   after the one transform it applied. This module checks a simulation
   relation between those two ASTs, per transform, so the provenance
   audit becomes a chain of discharged correspondences instead of one
   end-to-end leap:

   - while-to-for / do-while-to-for: the rewritten loop is structurally
     bisimilar (same condition, same per-iteration effect) and the
     initializer motion is effect-equal on the interval domain; where
     the trip count is decidable the two loops are additionally unrolled
     side by side and compared state-by-state. A converted do-while must
     prove its entry test — the for loop tests before the first
     iteration, the do-while body ran unconditionally.
   - hoist-alloc: the reactive allocation site is replaced by an alias
     to a fresh private arena field, preallocated in every constructor
     at the same constant size and zero-filled to the element type's
     default before use; the local provably never escapes the method
     ([Escape.local_escapes]), so the aliasing is unobservable.
   - privatize-fields: only field visibility changed, and the before
     program never touches the field from outside the declaring class.
   - remove-finalizers: only methods named [finalize] were removed, and
     the before program never calls one.

   Everything outside the recognized rewrite sites must be structurally
   identical — an unrecognized difference fails a VC. A failing VC
   carries both source spans so the caller (lib/core's [Verify]) can
   emit a [Rule.violation] pointing at the before and after sites.

   Soundness caveat: the simulation argument lives on the interval
   domain over locals — heap effects are compared structurally, not
   semantically, and statement pairs the aligner cannot match are
   rejected rather than explored. The checker is therefore sound for
   rejection (a discharged VC really is a simulation on the abstract
   domain) but incomplete: a semantically correct transform written in
   an unexpected shape is refused. *)

open Mj.Ast

type vc = {
  vc_transform : string;
  vc_class : string;
  vc_site : string;  (* human description of the rewrite site *)
  vc_before : Mj.Loc.t;
  vc_after : Mj.Loc.t;
  vc_ok : bool;
  vc_detail : string;  (* why it is discharged, or why it failed *)
}

let vc ~transform ~cls ~site ~before ~after ok detail =
  { vc_transform = transform; vc_class = cls; vc_site = site;
    vc_before = before; vc_after = after; vc_ok = ok; vc_detail = detail }

(* ------------------------------------------------------------------ *)
(* Interval-domain execution helpers                                   *)
(* ------------------------------------------------------------------ *)

let empty_env : Interval.state = Some Interval.SMap.empty

let exec ctx stmts (st : Interval.state) : Interval.state =
  match (st, stmts) with
  | None, _ -> None
  | Some _, [] -> st
  | Some _, _ ->
      let cfg = Cfg.build stmts in
      let in_states =
        Interval.Solver.solve ~transfer:(Interval.transfer ctx) cfg ~init:st
      in
      in_states.(cfg.Cfg.exit_id)

(* Decide a condition under an abstract environment: assuming the
   opposite truth value yields the unreachable state exactly when the
   condition is definite. *)
type truth = T_true | T_false | T_unknown

let truth ctx env cond =
  if Interval.assume ctx env cond false = None then T_true
  else if Interval.assume ctx env cond true = None then T_false
  else T_unknown

(* Unroll one loop on the interval domain, recording the environment
   after every iteration. [test_first] distinguishes while/for from
   do-while. Stops at [cap] iterations or when the condition becomes
   abstractly undecidable. *)
type unrolled = {
  u_states : Interval.env list;  (* after each completed iteration *)
  u_exact : bool;  (* loop provably terminated within the cap *)
}

let unroll_cap = 4096

let unroll ctx ~test_first ~cond ~body env0 =
  let rec go env n acc =
    if n >= unroll_cap then { u_states = List.rev acc; u_exact = false }
    else
      let step env acc =
        match exec ctx body (Some env) with
        | None -> None
        | Some env' -> Some (env', env' :: acc)
      in
      if test_first then
        match truth ctx env cond with
        | T_false -> { u_states = List.rev acc; u_exact = true }
        | T_unknown -> { u_states = List.rev acc; u_exact = false }
        | T_true -> (
            match step env acc with
            | None -> { u_states = List.rev acc; u_exact = false }
            | Some (env', acc) -> go env' (n + 1) acc)
      else
        match step env acc with
        | None -> { u_states = List.rev acc; u_exact = false }
        | Some (env', acc) -> (
            match truth ctx env' cond with
            | T_false -> { u_states = List.rev (env' :: acc); u_exact = true }
            | T_unknown -> { u_states = List.rev (env' :: acc); u_exact = false }
            | T_true -> go env' (n + 1) (env' :: acc))
  in
  match env0 with
  | None -> { u_states = []; u_exact = false }
  | Some env -> go env 0 []

let env_equal = Interval.SMap.equal Interval.equal_vstate

(* Compare two unrolled iteration sequences state by state. Returns
   [Ok description] or [Error description]. When either side hit the
   cap or an undecidable test, only the common prefix is compared — the
   structural bisimulation already covers the remainder. *)
let compare_unrolls before after =
  let rec common n b a =
    match (b, a) with
    | [], [] -> Ok n
    | [], _ :: _ | _ :: _, [] -> Ok n  (* prefix exhausted on one side *)
    | eb :: b, ea :: a -> if env_equal eb ea then common (n + 1) b a else Error n
  in
  match common 0 before.u_states after.u_states with
  | Error n -> Error (Printf.sprintf "interval states diverge at iteration %d" n)
  | Ok n ->
      if before.u_exact && after.u_exact then
        if List.length before.u_states = List.length after.u_states then
          Ok (Printf.sprintf "%d iterations compared state-by-state" n)
        else
          Error
            (Printf.sprintf "iteration counts differ (%d vs %d)"
               (List.length before.u_states)
               (List.length after.u_states))
      else Ok (Printf.sprintf "%d iterations compared, remainder by structural bisimulation" n)

(* ------------------------------------------------------------------ *)
(* Structural alignment                                                *)
(* ------------------------------------------------------------------ *)

let body_stmts s = match s.stmt with Block l -> l | _ -> [ s ]

(* Walk two statement lists in parallel. [site] is offered every
   position first and may consume a rewrite site (returning how many
   statements it consumed on each side plus its VCs); failing that,
   structurally equal heads are skipped and same-shaped compound heads
   are descended into. Anything else is an alignment failure. *)
let rec align ~site ~fail before after =
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  match site before after with
  | Some (nb, na, vcs) -> vcs @ align ~site ~fail (drop nb before) (drop na after)
  | None -> (
      match (before, after) with
      | [], [] -> []
      | b :: bs, a :: as_ when equal_stmt b a -> align ~site ~fail bs as_
      | b :: bs, a :: as_ -> (
          let descend l1 l2 = align ~site ~fail l1 l2 in
          match (b.stmt, a.stmt) with
          | If (c1, t1, e1), If (c2, t2, e2) when equal_expr c1 c2 ->
              descend (body_stmts t1) (body_stmts t2)
              @ (match (e1, e2) with
                | None, None -> []
                | Some s1, Some s2 -> descend (body_stmts s1) (body_stmts s2)
                | _ -> [ fail b.sloc a.sloc "if/else shape changed" ])
              @ align ~site ~fail bs as_
          | While (c1, b1), While (c2, b2) when equal_expr c1 c2 ->
              descend (body_stmts b1) (body_stmts b2) @ align ~site ~fail bs as_
          | Do_while (b1, c1), Do_while (b2, c2) when equal_expr c1 c2 ->
              descend (body_stmts b1) (body_stmts b2) @ align ~site ~fail bs as_
          | For (i1, c1, u1, b1), For (i2, c2, u2, b2)
            when Option.equal equal_for_init i1 i2
                 && Option.equal equal_expr c1 c2
                 && Option.equal equal_expr u1 u2 ->
              descend (body_stmts b1) (body_stmts b2) @ align ~site ~fail bs as_
          | Block l1, Block l2 -> descend l1 l2 @ align ~site ~fail bs as_
          | _, _ -> [ fail b.sloc a.sloc "unrecognized rewrite at this site" ])
      | b :: _, [] -> [ fail b.sloc b.sloc "statements disappeared with no matching rewrite" ]
      | [], a :: _ -> [ fail a.sloc a.sloc "statements appeared with no matching rewrite" ])

(* ------------------------------------------------------------------ *)
(* Program-pair plumbing                                               *)
(* ------------------------------------------------------------------ *)

let pair_classes ~transform before after =
  let bc = before.classes and ac = after.classes in
  if
    List.length bc = List.length ac
    && List.for_all2 (fun b a -> String.equal b.cl_name a.cl_name) bc ac
  then Ok (List.combine bc ac)
  else
    Error
      (vc ~transform ~cls:"<program>" ~site:"class list"
         ~before:Mj.Loc.dummy ~after:Mj.Loc.dummy false
         "transform changed the set of classes")

let method_sig_equal a b =
  equal_modifiers a.m_mods b.m_mods
  && equal_ty a.m_ret b.m_ret
  && String.equal a.m_name b.m_name
  && List.length a.m_params = List.length b.m_params
  && List.for_all2
       (fun (t1, n1) (t2, n2) -> equal_ty t1 t2 && String.equal n1 n2)
       a.m_params b.m_params

(* Align every method and constructor body of a class pair under [site];
   signatures, fields and everything not handed to [site] must be
   untouched. Used by the loop transforms (fields unchanged) and by
   hoist-alloc (which checks fields/ctors separately). *)
let align_bodies ~transform ~site (bcls, acls) =
  let fail ~cls before after detail =
    vc ~transform ~cls ~site:"statement alignment" ~before ~after false detail
  in
  let cls = bcls.cl_name in
  let meths =
    if List.length bcls.cl_methods <> List.length acls.cl_methods then
      [ vc ~transform ~cls ~site:"method list" ~before:bcls.cl_loc
          ~after:acls.cl_loc false "transform changed the set of methods" ]
    else
      List.concat_map
        (fun (bm, am) ->
          if not (method_sig_equal bm am) then
            [ vc ~transform ~cls ~site:("method " ^ bm.m_name)
                ~before:bm.m_loc ~after:am.m_loc false
                "method signature changed" ]
          else
            match (bm.m_body, am.m_body) with
            | None, None -> []
            | Some b, Some a -> align ~site:(site ~cls) ~fail:(fail ~cls) b a
            | _ ->
                [ vc ~transform ~cls ~site:("method " ^ bm.m_name)
                    ~before:bm.m_loc ~after:am.m_loc false
                    "method body appeared or disappeared" ])
        (List.combine bcls.cl_methods acls.cl_methods)
  in
  let ctors =
    if List.length bcls.cl_ctors <> List.length acls.cl_ctors then
      [ vc ~transform ~cls ~site:"constructor list" ~before:bcls.cl_loc
          ~after:acls.cl_loc false "transform changed the set of constructors" ]
    else
      List.concat_map
        (fun (bc, ac) -> align ~site:(site ~cls) ~fail:(fail ~cls) bc.c_body ac.c_body)
        (List.combine bcls.cl_ctors acls.cl_ctors)
  in
  meths @ ctors

let fields_identical ~transform (bcls, acls) =
  if
    List.length bcls.cl_fields = List.length acls.cl_fields
    && List.for_all2 equal_field bcls.cl_fields acls.cl_fields
  then []
  else
    [ vc ~transform ~cls:bcls.cl_name ~site:"field list" ~before:bcls.cl_loc
        ~after:acls.cl_loc false "transform changed the class fields" ]

(* ------------------------------------------------------------------ *)
(* VC: while-to-for / do-while-to-for                                  *)
(* ------------------------------------------------------------------ *)

let init_as_stmt = function
  | For_var (t, n, i) -> mk_stmt (Var_decl (t, n, i))
  | For_expr e -> mk_stmt (Expr e)

(* One conversion site. The before body may itself contain further
   converted loops (the transform rewrites every site in one pass,
   bottom-up), so body correspondence recurses through [align] with the
   same site matcher instead of requiring strict equality, and the
   iteration-by-iteration comparison runs each side's own body. *)
let rec loop_site_vc ~transform ~do_while ~before_checked ~after_checked ~cls
    ~init_before ~init_after ~loop_stmt ~for_stmt ~cond ~cond' ~update'
    ~loop_body ~for_prefix =
  let mk ok detail =
    vc ~transform ~cls
      ~site:
        (Printf.sprintf "%s at line %d"
           (if do_while then "do-while loop" else "while loop")
           loop_stmt.sloc.Mj.Loc.start_pos.Mj.Loc.line)
      ~before:loop_stmt.sloc ~after:for_stmt.sloc ok detail
  in
  if not (equal_expr cond cond') then [ mk false "loop condition changed" ]
  else
    (* Per-iteration effect: the while body must be the for body
       followed by the update expression (modulo nested conversions,
       aligned recursively). *)
    let body = body_stmts loop_body in
    let prefix = body_stmts for_prefix in
    match List.rev body with
    | { stmt = Expr u; _ } :: rev_prefix when equal_expr u update' ->
        let fail before after detail =
          vc ~transform ~cls ~site:"statement alignment" ~before ~after false
            detail
        in
        let nested =
          align
            ~site:
              (loop_site ~transform ~do_while ~before_checked ~after_checked
                 ~cls)
            ~fail (List.rev rev_prefix) prefix
        in
        let ctx_b = Interval.make_ctx before_checked in
        let ctx_a = Interval.make_ctx after_checked in
        (* Initializer motion is effect-equal on the interval domain. *)
        let env_b0 = exec ctx_b init_before empty_env in
        let env_a0 = exec ctx_a init_after empty_env in
        if not (Interval.State.equal env_b0 env_a0) then
          mk false "initializer motion changes the abstract environment"
          :: nested
        else
          (* A converted do-while must prove its entry test: the for
             loop tests before the first iteration. *)
          let entry_ok =
            (not do_while)
            ||
            match env_a0 with
            | None -> false
            | Some env -> truth ctx_a env cond' = T_true
          in
          if not entry_ok then
            mk false
              "entry test is not provably true, but the do-while body ran \
               unconditionally"
            :: nested
          else
            let step = prefix @ [ mk_stmt (Expr update') ] in
            let ub =
              unroll ctx_b ~test_first:(not do_while) ~cond ~body env_b0
            in
            let ua = unroll ctx_a ~test_first:true ~cond:cond' ~body:step env_a0 in
            (match compare_unrolls ub ua with
            | Ok d -> mk true ("simulation holds: " ^ d)
            | Error d -> mk false d)
            :: nested
    | _ -> [ mk false "loop body is not the for body followed by the update" ]

and loop_site ~transform ~do_while ~before_checked ~after_checked ~cls before
    after =
  let is_loop s =
    match (do_while, s.stmt) with
    | false, While (c, b) -> Some (c, b)
    | true, Do_while (b, c) -> Some (c, b)
    | _ -> None
  in
  let header_corresponds i1 hi =
    (* The moved initializer and the for-header initializer perform the
       same assignment (the exact effect comparison happens on the
       interval domain in [loop_site_vc]). *)
    match (i1.stmt, hi) with
    | Var_decl (TInt, x, Some start), For_var (TInt, x', Some start') ->
        String.equal x x' && equal_expr start start'
    | Expr { expr = Assign ((Lname x | Llocal x), start); _ },
      For_expr { expr = Assign ((Lname x' | Llocal x'), start'); _ } ->
        String.equal x x' && equal_expr start start'
    | _ -> false
  in
  let reinit_corresponds i1 hi =
    match (i1.stmt, hi) with
    | Var_decl (TInt, x, Some start),
      For_expr { expr = Assign ((Lname x' | Llocal x'), start'); _ } ->
        String.equal x x' && equal_expr start start'
    | _ -> false
  in
  let site_vc =
    loop_site_vc ~transform ~do_while ~before_checked ~after_checked ~cls
  in
  match (before, after) with
  (* initializer folded into the header: 2 statements become 1 *)
  | ( i1 :: l :: _,
      ({ stmt = For (Some hi, Some c', Some u', fb); _ } as f) :: _ )
    when is_loop l <> None && header_corresponds i1 hi ->
      let c, b = Option.get (is_loop l) in
      Some
        ( 2, 1,
          site_vc ~init_before:[ i1 ] ~init_after:[ init_as_stmt hi ]
            ~loop_stmt:l ~for_stmt:f ~cond:c ~cond':c' ~update':u' ~loop_body:b
            ~for_prefix:fb )
  (* declaration kept (index used after the loop), header re-initializes *)
  | ( i1 :: l :: _,
      i1' :: ({ stmt = For (Some hi, Some c', Some u', fb); _ } as f) :: _ )
    when is_loop l <> None && equal_stmt i1 i1' && reinit_corresponds i1 hi ->
      let c, b = Option.get (is_loop l) in
      Some
        ( 2, 2,
          site_vc ~init_before:[ i1 ] ~init_after:[ i1; init_as_stmt hi ]
            ~loop_stmt:l ~for_stmt:f ~cond:c ~cond':c' ~update':u' ~loop_body:b
            ~for_prefix:fb )
  (* a lone while with no adjacent initializer *)
  | ( ({ stmt = While (c, b); _ } as l) :: _,
      ({ stmt = For (None, Some c', Some u', fb); _ } as f) :: _ )
    when not do_while ->
      Some
        ( 1, 1,
          site_vc ~init_before:[] ~init_after:[] ~loop_stmt:l ~for_stmt:f
            ~cond:c ~cond':c' ~update':u' ~loop_body:b ~for_prefix:fb )
  | _ -> None

let check_loop_transform ~transform ~do_while before_checked after_checked =
  let before = before_checked.Mj.Typecheck.program in
  let after = after_checked.Mj.Typecheck.program in
  match pair_classes ~transform before after with
  | Error v -> [ v ]
  | Ok pairs ->
      List.concat_map
        (fun pair ->
          fields_identical ~transform pair
          @ align_bodies ~transform
              ~site:(fun ~cls ->
                loop_site ~transform ~do_while ~before_checked ~after_checked
                  ~cls)
              pair)
        pairs

(* ------------------------------------------------------------------ *)
(* VC: hoist-alloc                                                     *)
(* ------------------------------------------------------------------ *)

let is_pre_field name =
  String.length name >= 5 && String.equal (String.sub name 0 5) "_pre_"

(* Constructor-suffix arena allocations: field -> (element type, size). *)
let arena_allocs stmts =
  List.filter_map
    (fun s ->
      match s.stmt with
      | Expr
          { expr =
              Assign
                ( Lfield ({ expr = This; _ }, f),
                  { expr = New_array (elem, [ { expr = Int_lit size; _ } ]); _ } );
            _ } ->
          Some (f, (elem, size))
      | _ -> None)
    stmts

let zero_fill_matches ~field ~elem ~size s =
  match s.stmt with
  | For
      ( Some (For_var (TInt, zi, Some { expr = Int_lit 0; _ })),
        Some { expr = Binary (Lt, le, { expr = Int_lit n; _ }); _ },
        Some { expr = Post_incr (1, (Lname zi' | Llocal zi')); _ },
        fill_body ) -> (
      n = size
      && String.equal zi zi'
      && (match le.expr with
         | Local x | Name x -> String.equal x zi
         | _ -> false)
      &&
      match body_stmts fill_body with
      | [ { stmt =
              Expr
                { expr =
                    Assign
                      ( Lindex
                          ( { expr = Field_access ({ expr = This; _ }, f'); _ },
                            idx ),
                        z );
                  _ };
            _ } ] -> (
          String.equal f' field
          && (match idx.expr with
             | Local x | Name x -> String.equal x zi
             | _ -> false)
          &&
          match Escape.hoistable_zero elem with
          | Some zero -> equal_expr z { expr = zero; eloc = Mj.Loc.dummy; ety = None }
          | None -> false)
      | _ -> false)
  | _ -> false

let hoist_site ~transform ~before_checked ~arenas ~cls ~method_body before after
    =
  match (before, after) with
  | ( ({ stmt = Var_decl (TArray elem, x, Some { expr = New_array (elem2, [ dim ]); _ });
         _ } as b) :: _,
      ({ stmt = Var_decl (TArray elem', x', Some { expr = Field_access ({ expr = This; _ }, f); _ });
         _ } as a) :: zf :: _ )
    when equal_ty elem elem' && String.equal x x' && is_pre_field f ->
      let mk ok detail =
        vc ~transform ~cls
          ~site:(Printf.sprintf "hoisted allocation of %s at line %d" x b.sloc.Mj.Loc.start_pos.Mj.Loc.line)
          ~before:b.sloc ~after:a.sloc ok detail
      in
      let v =
        if not (equal_ty elem elem2) then mk false "allocation element type changed"
        else
          match Const_eval.const_int before_checked dim with
          | None -> mk false "hoisted allocation size is not a compile-time constant"
          | Some size -> (
              match List.assoc_opt f arenas with
              | None -> mk false "no constructor preallocates the arena field"
              | Some (aelem, asize) ->
                  if not (equal_ty aelem elem) then
                    mk false "arena field element type differs from the allocation"
                  else if asize <> size then
                    mk false
                      (Printf.sprintf
                         "arena size %d differs from the hoisted allocation size %d"
                         asize size)
                  else if Escape.hoistable_zero elem = None then
                    mk false "element type has no hoistable default value"
                  else if not (zero_fill_matches ~field:f ~elem ~size zf) then
                    mk false "arena is not zero-filled over [0, size) before use"
                  else if Escape.local_escapes x method_body then
                    mk false
                      "local escapes the method, so aliasing the arena is observable"
                  else
                    mk true
                      (Printf.sprintf
                         "heap shape preserved modulo arena %s: constant size %d, \
                          zero-filled, alias does not escape"
                         f size))
      in
      Some (1, 2, [ v ])
  | _ -> None

let check_hoist_alloc before_checked after_checked =
  let transform = "hoist-alloc" in
  let before = before_checked.Mj.Typecheck.program in
  let after = after_checked.Mj.Typecheck.program in
  match pair_classes ~transform before after with
  | Error v -> [ v ]
  | Ok pairs ->
      List.concat_map
        (fun (bcls, acls) ->
          let cls = bcls.cl_name in
          let new_fields =
            List.filteri
              (fun i _ -> i >= List.length bcls.cl_fields)
              acls.cl_fields
          in
          let prefix_fields =
            List.filteri (fun i _ -> i < List.length bcls.cl_fields) acls.cl_fields
          in
          let field_vcs =
            if
              List.length bcls.cl_fields <= List.length acls.cl_fields
              && List.for_all2 equal_field bcls.cl_fields prefix_fields
            then
              List.filter_map
                (fun f ->
                  if
                    is_pre_field f.f_name
                    && f.f_mods.visibility = Private
                    && (not f.f_mods.is_static)
                    && (match f.f_ty with TArray _ -> true | _ -> false)
                    && f.f_init = None
                  then None
                  else
                    Some
                      (vc ~transform ~cls ~site:("field " ^ f.f_name)
                         ~before:bcls.cl_loc ~after:f.f_loc false
                         "added field is not a private non-static arena array"))
                new_fields
            else
              [ vc ~transform ~cls ~site:"field list" ~before:bcls.cl_loc
                  ~after:acls.cl_loc false
                  "pre-existing fields changed under hoist-alloc" ]
          in
          (* Constructors: unchanged prefix + arena allocations, one per
             added field. A class with no constructor gains a default
             one holding only the allocations. *)
          let arenas =
            List.concat_map (fun c -> arena_allocs c.c_body) acls.cl_ctors
          in
          let ctor_suffix_ok bc ac =
            let n = List.length bc.c_body in
            List.length ac.c_body >= n
            && equal_stmts bc.c_body (List.filteri (fun i _ -> i < n) ac.c_body)
            && List.for_all
                 (fun s -> arena_allocs [ s ] <> [])
                 (List.filteri (fun i _ -> i >= n) ac.c_body)
          in
          let ctor_vcs =
            if new_fields = [] then
              if
                List.length bcls.cl_ctors = List.length acls.cl_ctors
                && List.for_all2 equal_ctor bcls.cl_ctors acls.cl_ctors
              then []
              else
                [ vc ~transform ~cls ~site:"constructors" ~before:bcls.cl_loc
                    ~after:acls.cl_loc false
                    "constructors changed in a class with no hoisted arena" ]
            else
              match (bcls.cl_ctors, acls.cl_ctors) with
              | [], [ ac ] ->
                  if List.for_all (fun s -> arena_allocs [ s ] <> []) ac.c_body
                  then []
                  else
                    [ vc ~transform ~cls ~site:"default constructor"
                        ~before:bcls.cl_loc ~after:ac.c_loc false
                        "generated constructor does more than preallocate arenas" ]
              | bctors, actors
                when List.length bctors = List.length actors
                     && List.for_all2 ctor_suffix_ok bctors actors ->
                  []
              | _ ->
                  [ vc ~transform ~cls ~site:"constructors" ~before:bcls.cl_loc
                      ~after:acls.cl_loc false
                      "constructor bodies are not the originals plus arena \
                       preallocations" ]
          in
          (* Every added field must be preallocated exactly once. *)
          let alloc_cover =
            List.filter_map
              (fun f ->
                match
                  List.length
                    (List.filter (fun (g, _) -> String.equal g f.f_name) arenas)
                with
                | 1 -> None
                | n ->
                    Some
                      (vc ~transform ~cls ~site:("field " ^ f.f_name)
                         ~before:bcls.cl_loc ~after:f.f_loc false
                         (Printf.sprintf
                            "arena field is preallocated %d times (expected \
                             once per constructor path)"
                            n)))
              new_fields
          in
          (* Method bodies: align with the hoist-site matcher. Each
             before-method body is threaded through so the escape check
             sees the whole scope of the hoisted local. *)
          let meth_vcs =
            if List.length bcls.cl_methods <> List.length acls.cl_methods then
              [ vc ~transform ~cls ~site:"method list" ~before:bcls.cl_loc
                  ~after:acls.cl_loc false "transform changed the set of methods" ]
            else
              List.concat_map
                (fun (bm, am) ->
                  if not (method_sig_equal bm am) then
                    [ vc ~transform ~cls ~site:("method " ^ bm.m_name)
                        ~before:bm.m_loc ~after:am.m_loc false
                        "method signature changed" ]
                  else
                    match (bm.m_body, am.m_body) with
                    | None, None -> []
                    | Some b, Some a ->
                        let fail before after detail =
                          vc ~transform ~cls ~site:"statement alignment"
                            ~before ~after false detail
                        in
                        align
                          ~site:
                            (hoist_site ~transform ~before_checked ~arenas ~cls
                               ~method_body:b)
                          ~fail b a
                    | _ ->
                        [ vc ~transform ~cls ~site:("method " ^ bm.m_name)
                            ~before:bm.m_loc ~after:am.m_loc false
                            "method body appeared or disappeared" ])
                (List.combine bcls.cl_methods acls.cl_methods)
          in
          field_vcs @ ctor_vcs @ alloc_cover @ meth_vcs)
        pairs

(* ------------------------------------------------------------------ *)
(* VC: privatize-fields                                                *)
(* ------------------------------------------------------------------ *)

let check_privatize before_checked after_checked =
  let transform = "privatize-fields" in
  let before = before_checked.Mj.Typecheck.program in
  let after = after_checked.Mj.Typecheck.program in
  match pair_classes ~transform before after with
  | Error v -> [ v ]
  | Ok pairs ->
      List.concat_map
        (fun ((bcls, acls) as pair) ->
          let cls = bcls.cl_name in
          let bodies_unchanged =
            align_bodies ~transform ~site:(fun ~cls:_ _ _ -> None) pair
          in
          let fields =
            if List.length bcls.cl_fields <> List.length acls.cl_fields then
              [ vc ~transform ~cls ~site:"field list" ~before:bcls.cl_loc
                  ~after:acls.cl_loc false "transform changed the set of fields" ]
            else
              List.filter_map
                (fun (bf, af) ->
                  if equal_field bf af then None
                  else
                    let mk ok detail =
                      vc ~transform ~cls ~site:("field " ^ bf.f_name)
                        ~before:bf.f_loc ~after:af.f_loc ok detail
                    in
                    let only_visibility =
                      String.equal bf.f_name af.f_name
                      && equal_ty bf.f_ty af.f_ty
                      && Option.equal equal_expr bf.f_init af.f_init
                      && af.f_mods.visibility = Private
                      && bf.f_mods.visibility <> Private
                      && bf.f_mods.is_static = af.f_mods.is_static
                      && bf.f_mods.is_final = af.f_mods.is_final
                      && bf.f_mods.is_native = af.f_mods.is_native
                    in
                    if not only_visibility then
                      Some (mk false "change is not a visibility restriction")
                    else if bf.f_mods.is_static then
                      Some (mk false "static fields are not privatized")
                    else if
                      Escape.field_accessed_externally before_checked ~cls
                        ~field:bf.f_name
                    then
                      Some
                        (mk false
                           "field is read or written outside the declaring \
                            class; privatizing it changes behavior")
                    else
                      Some
                        (mk true
                           "visibility-only change; no external access in the \
                            before program"))
                (List.combine bcls.cl_fields acls.cl_fields)
          in
          fields @ bodies_unchanged)
        pairs

(* ------------------------------------------------------------------ *)
(* VC: remove-finalizers                                               *)
(* ------------------------------------------------------------------ *)

let check_remove_finalizers before_checked after_checked =
  let transform = "remove-finalizers" in
  let before = before_checked.Mj.Typecheck.program in
  let after = after_checked.Mj.Typecheck.program in
  let finalize_called =
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
      before.classes
  in
  match pair_classes ~transform before after with
  | Error v -> [ v ]
  | Ok pairs ->
      List.concat_map
        (fun ((bcls, acls) as pair) ->
          let cls = bcls.cl_name in
          let removed =
            List.filter
              (fun bm ->
                not
                  (List.exists
                     (fun am -> method_sig_equal bm am)
                     acls.cl_methods))
              bcls.cl_methods
          in
          let kept_unchanged =
            let kept =
              List.filter
                (fun bm ->
                  List.exists (fun am -> method_sig_equal bm am) acls.cl_methods)
                bcls.cl_methods
            in
            List.length kept = List.length acls.cl_methods
            && List.for_all2 equal_method kept acls.cl_methods
          in
          fields_identical ~transform pair
          @ (if
               List.length bcls.cl_ctors = List.length acls.cl_ctors
               && List.for_all2 equal_ctor bcls.cl_ctors acls.cl_ctors
             then []
             else
               [ vc ~transform ~cls ~site:"constructors" ~before:bcls.cl_loc
                   ~after:acls.cl_loc false "constructors changed" ])
          @ (if kept_unchanged then []
             else
               [ vc ~transform ~cls ~site:"method list" ~before:bcls.cl_loc
                   ~after:acls.cl_loc false
                   "a surviving method changed under remove-finalizers" ])
          @ List.map
              (fun bm ->
                let mk ok detail =
                  vc ~transform ~cls ~site:("method " ^ bm.m_name)
                    ~before:bm.m_loc ~after:acls.cl_loc ok detail
                in
                if not (String.equal bm.m_name "finalize") then
                  mk false "a method other than finalize was removed"
                else if finalize_called then
                  mk false "finalize is invoked somewhere in the before program"
                else
                  mk true
                    "finalize is never invoked; removal is semantics-preserving")
              removed)
        pairs

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_transform ~transform ~before ~after =
  match transform with
  | "while-to-for" ->
      check_loop_transform ~transform ~do_while:false before after
  | "do-while-to-for" ->
      check_loop_transform ~transform ~do_while:true before after
  | "hoist-alloc" -> check_hoist_alloc before after
  | "privatize-fields" -> check_privatize before after
  | "remove-finalizers" -> check_remove_finalizers before after
  | other ->
      [ vc ~transform:other ~cls:"<program>" ~site:"transform catalogue"
          ~before:Mj.Loc.dummy ~after:Mj.Loc.dummy false
          "no verification condition is catalogued for this transform" ]

let races_clean checked =
  match Races.detect checked with
  | [] ->
      vc ~transform:"thread-elimination" ~cls:"<program>"
        ~site:"shared-field race report" ~before:Mj.Loc.dummy
        ~after:Mj.Loc.dummy true
        "race detector reports no shared-field races; sequentializing the \
         reactions is justified"
  | r :: _ as races ->
      vc ~transform:"thread-elimination" ~cls:r.Races.r_class
        ~site:"shared-field race report" ~before:r.Races.r_loc
        ~after:r.Races.r_loc false
        (Printf.sprintf
           "%d shared-field race(s) remain (first: %s.%s); thread \
            elimination is unjustified"
           (List.length races) r.Races.r_class r.Races.r_field)
