(* Whole-program bounds-check elision plan.

   Runs the interval analysis over every executable body and collects
   the array-access sites (keyed by the span of the index subexpression)
   whose index interval provably sits inside the array's static length.
   The bytecode compiler consults the plan to emit unchecked
   [Aload_u]/[Astore_u] in place of the checked array instructions.

   Parameters and unknown calls evaluate to top, so a site is only in
   the plan when its safety follows from constants, [static final]
   fields, statically-sized allocations, and branch guards — never from
   assumptions about callers. *)

let plan facts =
  let safe : (Mj.Loc.t, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun cls ->
      List.iter
        (fun body ->
          let summary = Interval.analyze facts body.Mj.Visit.b_stmts in
          Hashtbl.iter
            (fun loc () -> Hashtbl.replace safe loc ())
            (Interval.safe_sites summary))
        (Mj.Visit.bodies cls))
    (Facts.checked facts).Mj.Typecheck.program.Mj.Ast.classes;
  safe

(* Every array-access site in the program (for coverage reporting). *)
let all_sites checked =
  let total = ref 0 in
  List.iter
    (fun cls ->
      List.iter
        (fun body ->
          Mj.Visit.iter_exprs
            (fun e ->
              match e.Mj.Ast.expr with
              | Mj.Ast.Index _ -> incr total
              | Mj.Ast.Assign (Mj.Ast.Lindex _, _)
              | Mj.Ast.Op_assign (_, Mj.Ast.Lindex _, _)
              | Mj.Ast.Pre_incr (_, Mj.Ast.Lindex _)
              | Mj.Ast.Post_incr (_, Mj.Ast.Lindex _) ->
                  incr total
              | _ -> ())
            body.Mj.Visit.b_stmts)
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.Mj.Ast.classes;
  !total
