(* Refinement checking: VC discharge over the FIR and JPEG refinement
   chains, trace correspondence under seeded schedules, and the
   mutation gate. The wall time of each of the two layers is reported
   per workload. Gates: every transform the engine applied discharges
   its VCs, every covered schedule's abstracted trace refines the
   deterministic instant stream, the thread-free FIR and JPEG reactions
   are covered exhaustively by a single executed schedule, a
   deliberately broken transform is rejected, and (full size) at least
   100 schedules are explored per workload. *)

module V = Javatime.Verify

let workload_rows ~smoke (w, source, cls, schedules, instants) =
  let program = Mj.Parser.parse_program ~file:(w ^ ".mj") source in
  let (report, _), vc_s = Fixtures.wall (fun () -> V.check_program program) in
  let corr, correspondence_s =
    Fixtures.wall (fun () ->
        V.trace_correspondence ~schedules ~instants program ~cls)
  in
  let steps = List.length report.V.v_steps in
  let coverage = V.coverage corr in
  Row.
    [ str ~w "class" cls;
      count ~w "transform_steps" steps;
      str ~w "transforms"
        (String.concat " "
           (List.map (fun s -> s.V.s_transform) report.V.v_steps));
      count ~w "vcs_discharged" report.V.v_discharged;
      count ~w "vcs_failed" report.V.v_failed;
      count ~w "schedules_explored" corr.V.c_schedules;
      count ~w "schedules_executed" corr.V.c_executed;
      str ~w "coverage" coverage;
      count ~w "instants" corr.V.c_instants;
      str ~w "strategies" (String.concat " " corr.V.c_strategies);
      count ~w "correspondences_checked" corr.V.c_checked;
      wall ~w "vc_s" vc_s;
      wall ~w "correspondence_s" correspondence_s;
      gate ~w "transform_applied" (steps > 0);
      gate ~w "vc_discharged" (report.V.v_discharged > 0);
      gate ~w "vc_ok" (report.V.v_failed = 0);
      gate ~w "correspondence_ok" (corr.V.c_failures = []);
      gate ~w "exhaustive_single_schedule"
        (coverage = "exhaustive" && corr.V.c_executed = 1) ]
  @
  if smoke then []
  else [ Row.gate ~w "schedules_ge_100" (corr.V.c_schedules >= 100) ]

(* A while->for that leaves the update statement in the body while also
   installing it as the for-update (so it runs twice per iteration)
   must fail its verification conditions. *)
let broken_while_to_for =
  let mk d = { Mj.Ast.stmt = d; sloc = Mj.Loc.dummy } in
  let rewrite count s =
    match s.Mj.Ast.stmt with
    | Mj.Ast.While (cond, body) -> (
        let stmts =
          match body.Mj.Ast.stmt with Mj.Ast.Block l -> l | _ -> [ body ]
        in
        match List.rev stmts with
        | { Mj.Ast.stmt = Mj.Ast.Expr u; _ } :: _ ->
            incr count;
            mk (Mj.Ast.For (None, Some cond, Some u, mk (Mj.Ast.Block stmts)))
        | _ -> s)
    | _ -> s
  in
  { Javatime.Transforms.id = "while-to-for";
    description = "broken while->for (update applied twice)";
    apply =
      (fun checked ->
        let count = ref 0 in
        let program =
          Javatime.Rewrite.map_program_bodies
            (fun ~cls:_ stmts -> List.map (rewrite count) stmts)
            checked.Mj.Typecheck.program
        in
        (program, !count)) }

let mutation_rows () =
  let program =
    Mj.Parser.parse_program ~file:"fir.mj" Workloads.Fir_mj.unrestricted_source
  in
  let catalogue =
    List.map
      (fun t ->
        if t.Javatime.Transforms.id = "while-to-for" then broken_while_to_for
        else t)
      Javatime.Transforms.catalogue
  in
  let report, _ = V.check_program ~catalogue program in
  let violations = V.violations_of_report report in
  let failed =
    if List.for_all Policy.Rule.is_blocking violations then
      List.length violations
    else 0
  in
  Row.
    [ count ~w:"mutation" "vcs_failed" failed;
      gate ~w:"mutation" "rejected_ok" (failed > 0) ]

let rows ~smoke =
  let scale n small = if smoke then small else n in
  List.concat_map (workload_rows ~smoke)
    [ ( "fir", Workloads.Fir_mj.unrestricted_source, "FirFilter",
        scale 120 6, scale 8 2 );
      ( "jpeg",
        Workloads.Jpeg_mj.unrestricted_source ~width:16 ~height:8 (),
        "JpegCodec", scale 120 6, scale 4 2 ) ]
  @ mutation_rows ()
