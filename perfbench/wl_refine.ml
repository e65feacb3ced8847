(* refine-verify: the SFR toolchain. One op is one pass of [check] over
   every bundled design, then [verify-refinement] on FIR (100 schedules
   x 8 instants, the CLI defaults) and on the unrestricted JPEG at 8x8
   (8 schedules x 2 instants). Nearly all op time is trace
   correspondence, two thirds of the JPEG part exploring schedules, so
   this is the workload on which a cheaper schedule exploration would
   show. The JPEG part is kept small so that a run holds dozens of ops:
   at 16x8 with 20 schedules x 4 instants an op takes about 4 s, and the
   median of the five a run then holds moves by a quarter between runs
   on a shared host. *)

open Common

(* The bundled designs, as [javatime demo] lists them, with the verdict
   [check] must reach: the ASR policy's violation count where
   EXPERIMENTS.md (Fig. 1) records one, and whether the design is
   compliant, i.e. has no blocking violation once the refinement
   checker's verification conditions are added. Fig. 1's count for the
   threaded Fig. 8 program (9) no longer matches the policy's report
   (20), so only its verdict is checked. *)
let designs =
  [ ("fir", Workloads.Fir_mj.unrestricted_source, Some 8, false);
    ("traffic", Workloads.Traffic_mj.source, Some 0, true);
    ("elevator", Workloads.Elevator_mj.source, None, true);
    ("fig8", Workloads.Fig8_mj.threaded_source, None, false);
    ("fig8-blocks", Workloads.Fig8_mj.refined_blocks_source, None, true);
    ("uart", Workloads.Uart_mj.source, None, true);
    ("jpeg-unrestricted",
     Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 (), Some 30,
     false);
    ("jpeg-restricted",
     Workloads.Jpeg_mj.restricted_source ~width:48 ~height:40 (), None, true) ]

type target = {
  t_name : string;
  t_cls : string;
  t_program : Mj.Ast.program;
  t_schedules : int;
  t_instants : int;
}

type design = {
  d_name : string;
  d_checked : Mj.Typecheck.checked;
  d_count : int option;
  d_compliant : bool;
}

type st = { checks : design array; targets : target list }

let front name source =
  let ast =
    Spans.with_span "mj.parse" (fun () ->
        Mj.Parser.parse_program ~file:(name ^ ".mj") source)
  in
  (ast, Spans.with_span "mj.typecheck" (fun () -> Mj.Typecheck.check ast))

(* The seed fixes the order in which [check] visits the designs. *)
let shuffle ~seed a =
  let rng = Random.State.make [| seed; 0x5fe |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let setup size ~seed () =
  let checks =
    Array.of_list designs
    |> Array.map (fun (d_name, src, d_count, d_compliant) ->
           { d_name; d_checked = snd (front d_name src); d_count; d_compliant })
    |> shuffle ~seed
  in
  let fir_schedules, fir_instants, jpeg_schedules, jpeg_instants =
    match size with Full -> (100, 8, 8, 2) | Smoke -> (4, 2, 2, 1)
  in
  let jpeg_w, jpeg_h = (8, 8) in
  let target t_name t_cls src t_schedules t_instants =
    { t_name; t_cls; t_program = fst (front t_name src); t_schedules;
      t_instants }
  in
  { checks = (match size with Full -> checks | Smoke -> Array.sub checks 0 2);
    targets =
      [ target "fir" Workloads.Fir_mj.class_name
          Workloads.Fir_mj.unrestricted_source fir_schedules fir_instants;
        target "jpeg" Workloads.Jpeg_mj.class_name
          (Workloads.Jpeg_mj.unrestricted_source ~width:jpeg_w
             ~height:jpeg_h ())
          jpeg_schedules jpeg_instants ] }

type out = {
  verdicts : (design * int * bool) list;
      (* policy violations, and compliance, per design *)
  violations : int;
  vcs_discharged : int;
  vcs_failed : int;
  schedules : int;
  corr_failures : string list;
}

let op st _i =
  let verdicts =
    Array.to_list st.checks
    |> List.map (fun d ->
           let policy =
             Spans.with_span "policy.check" (fun () ->
                 Policy.Asr_policy.check d.d_checked)
           in
           let vcs =
             Spans.with_span "core.verify.vcs" (fun () ->
                 Javatime.Verify.refinement_rule.Policy.Rule.check d.d_checked)
           in
           let all = Policy.Rule.order_violations (policy @ vcs) in
           (d, List.length policy, not (List.exists Policy.Rule.is_blocking all)))
  in
  let reports =
    List.map
      (fun t ->
        let report, _ =
          Spans.with_span "core.verify.vcs" (fun () ->
              Javatime.Verify.check_program t.t_program)
        in
        let corr =
          Spans.with_span "core.verify.correspondence" (fun () ->
              Javatime.Verify.trace_correspondence ~schedules:t.t_schedules
                ~instants:t.t_instants t.t_program ~cls:t.t_cls)
        in
        (report, corr))
      st.targets
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 reports in
  { verdicts;
    violations = List.fold_left (fun acc (_, n, _) -> acc + n) 0 verdicts;
    vcs_discharged = sum (fun (r, _) -> r.Javatime.Verify.v_discharged);
    vcs_failed = sum (fun (r, _) -> r.Javatime.Verify.v_failed);
    schedules = sum (fun (_, c) -> c.Javatime.Verify.c_schedules);
    corr_failures =
      List.concat_map (fun (_, c) -> c.Javatime.Verify.c_failures) reports }

let check_out o i out =
  List.iter
    (fun (d, n, compliant) ->
      (match d.d_count with
      | Some want when want <> n ->
          fail o "op %d: check %s reports %d violations, expected %d" i
            d.d_name n want
      | _ -> ());
      if compliant <> d.d_compliant then
        fail o "op %d: check %s: compliant = %b, expected %b" i d.d_name
          compliant d.d_compliant)
    out.verdicts;
  if out.vcs_failed > 0 then fail o "op %d: %d VCs failed" i out.vcs_failed;
  match out.corr_failures with
  | [] -> ()
  | f :: _ -> fail o "op %d: correspondence failed: %s" i f

(* Attribution pass, traced run only: one correspondence per target,
   rebuilt from the public pieces [Verify.trace_correspondence] is made
   of, so that refinement, the refined streams and the seeded
   low-level schedules get spans of their own. It runs once, outside
   the timed ops. *)
type attribution = {
  a_refine_iterations : int;
  a_distinct : int;  (* distinct alpha-images over all schedules *)
  a_schedules : int;
  a_failures : int;
}

let attribute st =
  let strategies =
    [ Asr.Fixpoint.Chaotic; Asr.Fixpoint.Scheduled; Asr.Fixpoint.Worklist;
      Asr.Fixpoint.Fused ]
  in
  let stream_equal a b =
    List.length a = List.length b
    && List.for_all2
         (fun x y ->
           Array.length x = Array.length y && Array.for_all2 Asr.Domain.equal x y)
         a b
  in
  List.fold_left
    (fun acc t ->
      let cls = t.t_cls and instants = t.t_instants in
      let outcome =
        Spans.with_span "core.refine" (fun () -> Javatime.Engine.refine t.t_program)
      in
      let unrestricted =
        Spans.with_span "mj.typecheck" (fun () -> Mj.Typecheck.check t.t_program)
      in
      let n_in =
        Spans.with_span "core.elaborate" (fun () ->
            fst
              (Javatime.Elaborate.ports
                 (Javatime.Elaborate.elaborate ~enforce_policy:false
                    ~bounded_memory:false unrestricted ~cls)))
      in
      let kinds = Javatime.Verify.input_kinds unrestricted ~cls ~n_in in
      let array_size =
        if Array.exists Fun.id kinds then
          Spans.with_span "core.verify.calibrate" (fun () ->
              Javatime.Verify.calibrate_array_size ~kinds unrestricted ~cls)
        else 1
      in
      let inputs = Javatime.Verify.make_inputs ~kinds ~array_size in
      let specs =
        List.map
          (fun strategy ->
            Spans.with_span "core.verify.spec" (fun () ->
                Javatime.Verify.spec_stream ~inputs ~strategy ~instants
                  outcome.Javatime.Engine.checked ~cls))
          strategies
      in
      let spec0 = List.hd specs in
      let distinct = ref [] and failures = ref 0 in
      List.iter (fun s -> if not (stream_equal spec0 s) then incr failures) specs;
      for seed = 1 to t.t_schedules do
        let low =
          Spans.with_span "runtime.threads.schedule" (fun () ->
              Javatime.Verify.low_stream ~inputs ~seed ~instants unrestricted
                ~cls)
        in
        if not (stream_equal spec0 low) then incr failures;
        if not (List.exists (stream_equal low) !distinct) then
          distinct := low :: !distinct
      done;
      { a_refine_iterations =
          acc.a_refine_iterations + List.length outcome.Javatime.Engine.steps;
        a_distinct = acc.a_distinct + List.length !distinct;
        a_schedules = acc.a_schedules + t.t_schedules;
        a_failures = acc.a_failures + !failures })
    { a_refine_iterations = 0; a_distinct = 0; a_schedules = 0; a_failures = 0 }
    st.targets

let run size ~seed ~seconds o =
  let st, setup_s, setups = repeat_setup ~seconds (setup size ~seed) in
  let setup_layers = setup_layers ~setups [ "mj.parse"; "mj.typecheck" ] in
  let last = ref None in
  (* Warm-up op, checked but not timed: the first pass grows the OCaml
     heap and runs measurably slower than the rest. *)
  o.attempted <- o.attempted + 1;
  (try check_out o (-1) (op st (-1))
   with e -> fail o "warm-up op raised %s" (Printexc.to_string e));
  let loop =
    closed_loop ~seconds ~min_ops:2 ~max_ops:max_int o ~op:(op st)
      ~check:(fun i out ->
        last := Some out;
        check_out o i out)
  in
  let ops = float_of_int (Array.length loop.latencies) in
  let by_name = op_self_by_name () in
  let exact, counts =
    match !last with
    | None -> ([], [])
    | Some out ->
        ( [ metric "core.verify.schedules_explored" "count"
              (float_of_int out.schedules) ],
          [ metric "policy.violations" "count" (float_of_int out.violations);
            metric "core.verify.vcs_discharged" "count"
              (float_of_int out.vcs_discharged) ] )
  in
  let attributed =
    if not (Spans.enabled ()) then []
    else begin
      let a = attribute st in
      Common.check o (a.a_failures = 0)
        "attribution pass: %d correspondence failures" a.a_failures;
      (* these spans occur in the attribution pass only *)
      let tbl = Spans.self_by_name (Spans.recorded ()) in
      [ metric "core.refine_ms" "ms" (self_ms tbl "core.refine");
        metric "core.refine_iterations" "count"
          (float_of_int a.a_refine_iterations);
        metric "runtime.threads.schedule_ms" "ms"
          (self_ms tbl "runtime.threads.schedule");
        metric "core.verify.distinct_traces_ratio" "ratio"
          (float_of_int a.a_distinct /. float_of_int a.a_schedules) ]
    end
  in
  let per_op name = metric (name ^ "_ms") "ms" (self_ms by_name name /. ops) in
  let layers =
    [ per_op "policy.check"; per_op "core.verify.vcs";
      per_op "core.verify.correspondence" ]
    @ counts @ attributed
  in
  { e2e = end_to_end ~setup_s loop; exact; layers; setup_layers; loop }
