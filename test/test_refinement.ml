(* The refinement checker (Verify): per-transform verification
   conditions over the provenance chain, trace correspondence between
   seeded low-level schedules and the refined instant stream, the
   canonical violation ordering of policy reports, and the fused-path
   provenance differential. *)

open Util
module V = Javatime.Verify
module T = Mj_runtime.Threads
module R = Analysis.Refinement
module Rule = Policy.Rule

let fir_program () =
  Mj.Parser.parse_program ~file:"fir.mj" Workloads.Fir_mj.unrestricted_source

let jpeg_program () =
  Mj.Parser.parse_program ~file:"jpeg.mj"
    (Workloads.Jpeg_mj.unrestricted_source ~width:16 ~height:8 ())

(* ------------------------------------------------------------------ *)
(* Layer 1: verification conditions                                    *)
(* ------------------------------------------------------------------ *)

let applied_transforms outcome =
  List.concat_map
    (fun s ->
      List.map (fun a -> a.Javatime.Engine.a_transform) s.Javatime.Engine.applied)
    outcome.Javatime.Engine.steps

let vc_tests =
  [ case "fir: every applied transform discharges its VCs" (fun () ->
        let report, outcome = V.check_program (fir_program ()) in
        Alcotest.(check bool) "compliant" true outcome.Javatime.Engine.compliant;
        Alcotest.(check int) "no failed VC" 0 report.V.v_failed;
        Alcotest.(check bool) "some VCs discharged" true
          (report.V.v_discharged > 0);
        Alcotest.(check (list string))
          "one VC step per applied transform"
          (applied_transforms outcome)
          (List.map (fun s -> s.V.s_transform) report.V.v_steps);
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.V.s_transform ^ " has at least one VC")
              true (s.V.s_vcs <> []);
            List.iter
              (fun vc ->
                if not vc.R.vc_ok then
                  Alcotest.failf "VC failed: %s %s: %s" vc.R.vc_transform
                    vc.R.vc_site vc.R.vc_detail)
              s.V.s_vcs)
          report.V.v_steps;
        Alcotest.(check bool) "thread elimination justified" true
          report.V.v_races.R.vc_ok);
    case "jpeg: the codec chain's VCs all discharge" (fun () ->
        let report, _ = V.check_program (jpeg_program ()) in
        Alcotest.(check int) "no failed VC" 0 report.V.v_failed;
        Alcotest.(check bool) "some VCs discharged" true
          (report.V.v_discharged > 0);
        Alcotest.(check bool) "chain is non-trivial" true
          (List.length report.V.v_steps > 1));
    case "a broken transform is rejected with a blocking violation"
      (fun () ->
        (* A while->for that installs the loop's update expression as
           the for-update while also leaving it in the body, so it runs
           twice per iteration. *)
        let mk d = { Mj.Ast.stmt = d; sloc = Mj.Loc.dummy } in
        let broken =
          { Javatime.Transforms.id = "while-to-for";
            description = "broken while->for (update applied twice)";
            apply =
              (fun checked ->
                let count = ref 0 in
                let rewrite s =
                  match s.Mj.Ast.stmt with
                  | Mj.Ast.While (cond, body) -> (
                      let stmts =
                        match body.Mj.Ast.stmt with
                        | Mj.Ast.Block l -> l
                        | _ -> [ body ]
                      in
                      match List.rev stmts with
                      | { Mj.Ast.stmt = Mj.Ast.Expr u; _ } :: _ ->
                          incr count;
                          mk
                            (Mj.Ast.For
                               (None, Some cond, Some u,
                                mk (Mj.Ast.Block stmts)))
                      | _ -> s)
                  | _ -> s
                in
                let program =
                  Javatime.Rewrite.map_program_bodies
                    (fun ~cls:_ stmts -> List.map rewrite stmts)
                    checked.Mj.Typecheck.program
                in
                (program, !count)) }
        in
        let catalogue =
          List.map
            (fun t ->
              if String.equal t.Javatime.Transforms.id "while-to-for" then
                broken
              else t)
            Javatime.Transforms.catalogue
        in
        let report, _ = V.check_program ~catalogue (fir_program ()) in
        Alcotest.(check bool) "some VC failed" true (report.V.v_failed > 0);
        match V.violations_of_report report with
        | [] -> Alcotest.fail "expected blocking violations"
        | violations ->
            List.iter
              (fun v ->
                Alcotest.(check bool) "blocking" true (Rule.is_blocking v);
                Alcotest.(check string) "rule id" "R11-verified-refinement"
                  v.Rule.rule_id;
                Alcotest.(check bool) "carries the before span" true
                  (List.mem_assoc "before" v.Rule.related))
              violations);
    case "thread elimination on a racy program fails its VC" (fun () ->
        let program =
          Mj.Parser.parse_program ~file:"fig8.mj"
            Workloads.Fig8_mj.threaded_source
        in
        let report, _ = V.check_program program in
        Alcotest.(check bool) "races VC fails" false report.V.v_races.R.vc_ok;
        Alcotest.(check bool) "detail names the race" true
          (contains ~substring:"race" report.V.v_races.R.vc_detail);
        let violations = V.violations_of_report report in
        Alcotest.(check bool) "reported as a blocking violation" true
          (List.exists Rule.is_blocking violations)) ]

(* ------------------------------------------------------------------ *)
(* Layer 2: trace correspondence                                       *)
(* ------------------------------------------------------------------ *)

(* A design whose reaction spawns a worker thread and joins it before
   reading the result: genuinely interleaved under the seeded
   scheduler, yet race-free, so every schedule must abstract to the
   refined stream. *)
let pipe_source =
  {|class Worker extends Thread {
  public int acc;
  Worker() {}
  public void run() {
    int i = 0;
    while (i < 8) {
      acc = acc + i;
      Thread.yield();
      i = i + 1;
    }
  }
}

class Pipe extends ASR {
  Pipe() {
    declarePorts(1, 1);
  }
  public void run() {
    int x = readPort(0);
    Worker w = new Worker();
    w.start();
    w.join();
    writePort(0, x + w.acc);
  }
}
|}

let correspondence_tests =
  [ case "fir: every seeded schedule refines the instant stream" (fun () ->
        let corr =
          V.trace_correspondence ~schedules:10 ~instants:4 (fir_program ())
            ~cls:"FirFilter"
        in
        Alcotest.(check (list string)) "no failures" [] corr.V.c_failures;
        Alcotest.(check int) "schedules" 10 corr.V.c_schedules;
        (* three strategy agreements (scheduled, worklist, fused vs
           chaotic) plus one correspondence per seed *)
        Alcotest.(check int) "checked" 13 corr.V.c_checked;
        Alcotest.(check (list string))
          "all four strategies, chaotic readmitted"
          [ "chaotic"; "scheduled"; "worklist"; "fused" ]
          corr.V.c_strategies);
    case "jpeg: array ports are calibrated and correspond" (fun () ->
        let corr =
          V.trace_correspondence ~schedules:3 ~instants:2 (jpeg_program ())
            ~cls:"JpegCodec"
        in
        Alcotest.(check (list string)) "no failures" [] corr.V.c_failures;
        Alcotest.(check bool) "checked" true (corr.V.c_checked >= 5));
    case "threaded worker: genuine interleavings abstract to the stream"
      (fun () ->
        let program = Mj.Parser.parse_program ~file:"pipe.mj" pipe_source in
        let corr =
          V.trace_correspondence ~schedules:25 ~instants:6 program ~cls:"Pipe"
        in
        Alcotest.(check (list string)) "no failures" [] corr.V.c_failures;
        Alcotest.(check int) "schedules" 25 corr.V.c_schedules);
    case "the abstraction function takes the last write per port"
      (fun () ->
        let port thread native port value =
          { T.thread; access = T.Port { native; port; value } }
        in
        let events =
          [ port (-1) "writePort" 0 (T.Scalar (Mj_runtime.Value.Int 1));
            port (-1) "readPort" 0 (T.Scalar (Mj_runtime.Value.Int 7));
            port (-1) "writePort" 0 (T.Scalar (Mj_runtime.Value.Int 5));
            port 2 "writePortArray" 2
              (T.Elements Mj_runtime.Value.[| Int 3; Int 4 |]) ]
        in
        let outs = V.abstract_outputs ~n_out:3 events in
        Alcotest.(check bool) "port 0 holds the last write" true
          (Asr.Domain.equal outs.(0) (Asr.Domain.int 5));
        Alcotest.(check bool) "unwritten port is bottom" true
          (Asr.Domain.equal outs.(1) Asr.Domain.Bottom);
        Alcotest.(check bool) "array write snapshots the payload" true
          (Asr.Domain.equal outs.(2) (Asr.Domain.int_array [| 3; 4 |])));
    case "a null array write leaves its port bottom" (fun () ->
        (* Port 1's last write is null: alpha reads it as bottom rather
           than keeping the earlier array, and so does Elaborate.react.
           Port 0's array is updated after its write; react reads it when
           the reaction ends, alpha copies it at the write. *)
        let checked =
          check_src
            {|class Nul extends ASR {
                Nul() { declarePorts(1, 2); }
                public void run() {
                  int[] a = new int[2];
                  a[0] = readPort(0);
                  writePortArray(0, a);
                  a[0] = 9;
                  writePortArray(1, a);
                  writePortArray(1, null);
                }
              }|}
        in
        let elab =
          Javatime.Elaborate.elaborate ~enforce_policy:false
            ~bounded_memory:false checked ~cls:"Nul"
        in
        let reacted = ref [||] in
        let events =
          T.run ~policy:(T.Seeded 1) (fun () ->
              reacted := Javatime.Elaborate.react elab [| Asr.Domain.int 4 |])
        in
        Alcotest.(check (list string)) "port events"
          [ "readPort(0, 4)"; "writePortArray(0, [4;0])";
            "writePortArray(1, [9;0])"; "writePortArray(1, null)" ]
          (List.filter_map
             (fun e ->
               match e.T.access with
               | T.Port _ -> Some (T.description e)
               | _ -> None)
             events);
        let outs = V.abstract_outputs ~n_out:2 events in
        Alcotest.(check bool) "port 0 keeps the copy taken at the write" true
          (Asr.Domain.equal outs.(0) (Asr.Domain.int_array [| 4; 0 |]));
        Alcotest.(check bool) "port 1 is bottom" true
          (Asr.Domain.equal outs.(1) Asr.Domain.Bottom);
        Alcotest.(check bool) "react's outputs equal alpha's" true
          (Asr.Domain.equal !reacted.(1) outs.(1));
        Alcotest.(check bool) "react reads port 0 at the end" true
          (Asr.Domain.equal !reacted.(0) (Asr.Domain.int_array [| 9; 0 |])));
    (let spec = lazy (
       let outcome = Javatime.Engine.refine (fir_program ()) in
       V.spec_stream ~strategy:Asr.Fixpoint.Scheduled ~instants:4
         outcome.Javatime.Engine.checked ~cls:"FirFilter")
     in
     qcase ~count:40 "random seeds: low-level fir traces match the spec"
       QCheck.(int_range 1 100_000)
       (fun seed ->
         let checked =
           Mj.Typecheck.check_source ~file:"fir.mj"
             Workloads.Fir_mj.unrestricted_source
         in
         let low =
           V.low_stream ~seed ~instants:4 checked ~cls:"FirFilter"
         in
         let spec = Lazy.force spec in
         List.for_all2
           (fun s l -> Array.for_all2 Asr.Domain.equal s l)
           spec low)) ]

(* The abstraction function against the elaborated reaction: on every
   bundled ASR class and every engine, alpha of a traced reaction's
   events is the outputs [Elaborate.react] returns for it. *)
let alpha_tests =
  let module E = Javatime.Elaborate in
  let designs =
    [ ("fir", Workloads.Fir_mj.unrestricted_source);
      ("traffic", Workloads.Traffic_mj.source);
      ("elevator", Workloads.Elevator_mj.source);
      ("fig8-blocks", Workloads.Fig8_mj.refined_blocks_source);
      ("uart", Workloads.Uart_mj.source);
      (* the bundled codecs are 48x40; the classes are the same at 16x8 *)
      ("jpeg-unrestricted",
       Workloads.Jpeg_mj.unrestricted_source ~width:16 ~height:8 ());
      ("jpeg-restricted",
       Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 ()) ]
  in
  let engines =
    [ ("interp", E.Engine_interp); ("vm", E.Engine_vm); ("jit", E.Engine_jit) ]
  in
  [ case "alpha of each traced ramp reaction equals react's outputs"
      (fun () ->
        List.iter
          (fun (design, src) ->
            let checked = check_src src in
            List.iter
              (fun cls ->
                let n_in =
                  fst
                    (E.ports
                       (E.elaborate ~enforce_policy:false ~bounded_memory:false
                          checked ~cls))
                in
                let kinds = V.input_kinds checked ~cls ~n_in in
                let array_size =
                  if Array.exists Fun.id kinds then
                    V.calibrate_array_size ~kinds checked ~cls
                  else 1
                in
                List.iter
                  (fun (engine_name, engine) ->
                    let elab =
                      E.elaborate ~engine ~enforce_policy:false
                        ~bounded_memory:false checked ~cls
                    in
                    let n_out = snd (E.ports elab) in
                    let defined = ref 0 in
                    for t = 0 to 3 do
                      let inputs =
                        Array.init n_in (V.make_inputs ~kinds ~array_size t)
                      in
                      let outs = ref [||] in
                      let events =
                        T.run ~policy:(T.Seeded 1) (fun () ->
                            outs := E.react elab inputs)
                      in
                      let alpha = V.abstract_outputs ~n_out events in
                      Array.iteri
                        (fun j o ->
                          if Asr.Domain.is_def o then incr defined;
                          if not (Asr.Domain.equal o alpha.(j)) then
                            Alcotest.failf "%s %s on %s: instant %d port %d"
                              design cls engine_name t j)
                        !outs
                    done;
                    if !defined = 0 then
                      Alcotest.failf "%s %s on %s: no output defined" design cls
                        engine_name)
                  engines)
              (Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "ASR"))
          designs) ]

(* ------------------------------------------------------------------ *)
(* Trace correspondence against a per-seed reference                   *)
(* ------------------------------------------------------------------ *)

(* What [trace_correspondence] must report, built from the public
   pieces with one [low_stream] run per seed: the strategy agreements
   against chaotic, then every seed compared with the refined stream.
   The shortcut that runs a non-branching program once must not be
   visible in any field of this reference. *)
let reference ~schedules ~instants program ~cls =
  let refined = (Javatime.Engine.refine program).Javatime.Engine.checked in
  let unrestricted = Mj.Typecheck.check program in
  let n_in =
    fst
      (Javatime.Elaborate.ports
         (Javatime.Elaborate.elaborate ~enforce_policy:false
            ~bounded_memory:false unrestricted ~cls))
  in
  let kinds = V.input_kinds unrestricted ~cls ~n_in in
  let array_size =
    if Array.exists Fun.id kinds then
      V.calibrate_array_size ~kinds unrestricted ~cls
    else 1
  in
  let inputs = V.make_inputs ~kinds ~array_size in
  let specs =
    List.map
      (fun strategy ->
        ( Asr.Fixpoint.strategy_name strategy,
          V.spec_stream ~inputs ~strategy ~instants refined ~cls ))
      Asr.Fixpoint.[ Chaotic; Scheduled; Worklist; Fused ]
  in
  let name0, spec0 = List.hd specs in
  let first_divergence a b =
    let rec go t = function
      | [], [] -> None
      | x :: a, y :: b when Array.for_all2 Asr.Domain.equal x y -> go (t + 1) (a, b)
      | _ -> Some t
    in
    go 0 (a, b)
  in
  let strategy_failures =
    List.filter_map
      (fun (name, spec) ->
        match first_divergence spec0 spec with
        | None -> None
        | Some _ -> Some (Printf.sprintf "strategy %s diverges from %s" name name0))
      (List.tl specs)
  in
  let seed_failures =
    List.filter_map
      (fun seed ->
        match V.low_stream ~inputs ~seed ~instants unrestricted ~cls with
        | low ->
            Option.map
              (Printf.sprintf
                 "seed %d: abstracted trace diverges from the refined \
                  stream at instant %d"
                 seed)
              (first_divergence spec0 low)
        | exception e ->
            Some
              (Printf.sprintf "seed %d: schedule raised %s" seed
                 (Printexc.to_string e)))
      (List.init schedules (fun i -> i + 1))
  in
  ( List.map fst specs,
    List.length specs - 1 + schedules,
    strategy_failures @ seed_failures )

let differential ~schedules ~instants ~executed ~exhaustive program ~cls =
  let corr = V.trace_correspondence ~schedules ~instants program ~cls in
  let strategies, checked, failures =
    reference ~schedules ~instants program ~cls
  in
  Alcotest.(check int) "schedules covered" schedules corr.V.c_schedules;
  Alcotest.(check int) "checked" checked corr.V.c_checked;
  Alcotest.(check (list string)) "strategies" strategies corr.V.c_strategies;
  Alcotest.(check (list string)) "failures, in order" failures
    corr.V.c_failures;
  Alcotest.(check int) "schedules executed" executed corr.V.c_executed;
  Alcotest.(check bool) "exhaustive" exhaustive corr.V.c_exhaustive;
  corr

(* Two workers race on a shared field that the reaction then emits:
   the refined (sequentialized) stream sees the second writer last, a
   schedule that runs it first emits the other value. *)
let racy_source =
  {|class Slot {
  public static int last = 0;
}

class Put extends Thread {
  public int v;
  Put(int v) { this.v = v; }
  public void run() {
    Thread.yield();
    Slot.last = v;
  }
}

class Race extends ASR {
  Race() {
    declarePorts(1, 1);
  }
  public void run() {
    int x = readPort(0);
    Put a = new Put(x);
    Put b = new Put(x + 100);
    a.start();
    b.start();
    a.join();
    b.join();
    writePort(0, Slot.last);
  }
}
|}

(* Joining a thread that was never started is a no-op in the refined,
   sequential program, but under the scheduler it waits forever: the
   low-level run raises [Deadlock] at instant 1 without ever having a
   second runnable thread, so one run stands for every seed. *)
let stall_source =
  {|class Idle extends Thread {
  Idle() {}
  public void run() {}
}

class Stall extends ASR {
  private int t;
  Stall() {
    declarePorts(1, 1);
    t = 0;
  }
  public void run() {
    int x = readPort(0);
    if (t == 1) {
      Idle w = new Idle();
      w.join();
    }
    t = t + 1;
    writePort(0, x + t);
  }
}
|}

let differential_tests =
  [ case "fir: one run covers every seed, as the per-seed reference"
      (fun () ->
        let corr =
          differential ~schedules:12 ~instants:4 ~executed:1 ~exhaustive:true
            (fir_program ()) ~cls:"FirFilter"
        in
        Alcotest.(check (list string)) "no failures" [] corr.V.c_failures);
    case "jpeg 8x8: one run covers every seed, as the per-seed reference"
      (fun () ->
        let program =
          Mj.Parser.parse_program ~file:"jpeg.mj"
            (Workloads.Jpeg_mj.unrestricted_source ~width:8 ~height:8 ())
        in
        let corr =
          differential ~schedules:4 ~instants:2 ~executed:1 ~exhaustive:true
            program ~cls:"JpegCodec"
        in
        Alcotest.(check (list string)) "no failures" [] corr.V.c_failures);
    case "threaded worker: every seed runs, as the per-seed reference"
      (fun () ->
        let program = Mj.Parser.parse_program ~file:"pipe.mj" pipe_source in
        ignore
          (differential ~schedules:12 ~instants:3 ~executed:12
             ~exhaustive:false program ~cls:"Pipe"));
    case "racy writers: diverging seeds are reported as the reference"
      (fun () ->
        let program = Mj.Parser.parse_program ~file:"race.mj" racy_source in
        let corr =
          differential ~schedules:16 ~instants:3 ~executed:16
            ~exhaustive:false program ~cls:"Race"
        in
        Alcotest.(check bool) "some seeds diverge" true (corr.V.c_failures <> []);
        Alcotest.(check bool) "some seeds agree" true
          (List.length corr.V.c_failures < 16));
    case "a raising first schedule is reported once per seed" (fun () ->
        let program = Mj.Parser.parse_program ~file:"stall.mj" stall_source in
        let corr =
          differential ~schedules:5 ~instants:3 ~executed:1 ~exhaustive:true
            program ~cls:"Stall"
        in
        Alcotest.(check int) "one failure per seed" 5
          (List.length corr.V.c_failures);
        List.iteri
          (fun i f ->
            Alcotest.(check bool) f true
              (contains
                 ~substring:(Printf.sprintf "seed %d: schedule raised" (i + 1))
                 f))
          corr.V.c_failures) ]

(* ------------------------------------------------------------------ *)
(* Satellite: canonical violation ordering of policy reports           *)
(* ------------------------------------------------------------------ *)

let ordering_tests =
  let pos line col = { Mj.Loc.line; col; offset = 0 } in
  let loc ?(file = "a.mj") line col =
    Mj.Loc.make ~file ~start_pos:(pos line col) ~end_pos:(pos line (col + 1))
  in
  let rule id =
    { Rule.id; title = id; paper_ref = "test"; check = (fun _ -> []) }
  in
  let v rule_id l =
    Rule.make_violation ~rule:(rule rule_id) ~loc:l ~subject:"S" "m"
  in
  [ case "order_violations groups by first-seen rule, then location"
      (fun () ->
        (* R9 first reported, then R10: the grouped order must keep R9
           before R10 even though "R10" < "R9" lexicographically. *)
        let input =
          [ v "R9" (loc 5 1); v "R10" (loc 1 1); v "R9" (loc 2 3);
            v "R10" (loc 9 1); v "R9" (loc 2 1) ]
        in
        let got =
          List.map
            (fun x ->
              (x.Rule.rule_id, x.Rule.loc.Mj.Loc.start_pos.Mj.Loc.line,
               x.Rule.loc.Mj.Loc.start_pos.Mj.Loc.col))
            (Rule.order_violations input)
        in
        Alcotest.(check (list (triple string int int)))
          "rule then (file, line, col)"
          [ ("R9", 2, 1); ("R9", 2, 3); ("R9", 5, 1);
            ("R10", 1, 1); ("R10", 9, 1) ]
          got);
    case "order_violations sorts by file before line" (fun () ->
        let input = [ v "R1" (loc ~file:"b.mj" 1 1); v "R1" (loc ~file:"a.mj" 9 9) ] in
        match Rule.order_violations input with
        | [ first; second ] ->
            Alcotest.(check string) "a.mj first" "a.mj"
              first.Rule.loc.Mj.Loc.file;
            Alcotest.(check string) "b.mj second" "b.mj"
              second.Rule.loc.Mj.Loc.file
        | _ -> Alcotest.fail "expected both violations back");
    case "report_to_json emits rule-then-location order" (fun () ->
        let input =
          [ v "R7" (loc 8 1); v "R3" (loc 2 2); v "R7" (loc 1 1) ]
        in
        let json = Rule.report_to_json input in
        let idx s =
          let n = String.length s and m = String.length json in
          let rec go i =
            if i + n > m then Alcotest.failf "%s not in report" s
            else if String.sub json i n = s then i
            else go (i + 1)
          in
          go 0
        in
        (* R7's two sites (line 1 before line 8) precede R3's. *)
        let r7a = idx "\"line\":1," and r7b = idx "\"line\":8," in
        let r3 = idx "\"line\":2," in
        Alcotest.(check bool) "R7 line 1 first" true (r7a < r7b);
        Alcotest.(check bool) "R7 precedes R3" true (r7b < r3));
    case "asr policy report on the threaded program is canonically ordered"
      (fun () ->
        let checked =
          Mj.Typecheck.check_source ~file:"fig8.mj"
            Workloads.Fig8_mj.threaded_source
        in
        let report = Policy.Asr_policy.check checked in
        Alcotest.(check bool) "has violations" true (report <> []);
        (* Idempotence: the checker already returns canonical order. *)
        let key x =
          (x.Rule.rule_id, x.Rule.loc.Mj.Loc.file,
           x.Rule.loc.Mj.Loc.start_pos.Mj.Loc.line,
           x.Rule.loc.Mj.Loc.start_pos.Mj.Loc.col)
        in
        Alcotest.(check (list (pair string (triple string int int))))
          "already canonical"
          (List.map
             (fun x ->
               let a, b, c, d = key x in
               (a, (b, c, d)))
             (Rule.order_violations report))
          (List.map
             (fun x ->
               let a, b, c, d = key x in
               (a, (b, c, d)))
             report)) ]

(* ------------------------------------------------------------------ *)
(* Satellite: provenance audit under the fused strategy                *)
(* ------------------------------------------------------------------ *)

let fused_audit_tests =
  [ case "refine --audit then fused simulation matches scheduled" (fun () ->
        let audit () =
          let outcome =
            Javatime.Engine.refine ~provenance:true (fir_program ())
          in
          match outcome.Javatime.Engine.provenance with
          | None -> Alcotest.fail "provenance missing"
          | Some p -> (outcome, p)
        in
        let outcome_s, prov_s = audit () in
        let outcome_f, prov_f = audit () in
        Alcotest.(check string)
          "p_final identical across runs" prov_s.Javatime.Provenance.p_final
          prov_f.Javatime.Provenance.p_final;
        let stream strategy outcome =
          V.spec_stream ~strategy ~instants:6 outcome.Javatime.Engine.checked
            ~cls:"FirFilter"
        in
        let scheduled = stream Asr.Fixpoint.Scheduled outcome_s in
        let fused = stream Asr.Fixpoint.Fused outcome_f in
        List.iter2
          (fun s f ->
            Alcotest.(check bool) "fixpoints identical" true
              (Array.for_all2 Asr.Domain.equal s f))
          scheduled fused) ]

let suite =
  vc_tests @ correspondence_tests @ alpha_tests @ differential_tests
  @ ordering_tests @ fused_audit_tests
