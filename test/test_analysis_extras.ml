open Util

(* WCET watchdog, definite assignment, dot/waves rendering. *)

let da_findings src =
  Mj.Definite_assignment.check (check_src src).Mj.Typecheck.program

let da_vars src =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Mj.Definite_assignment.variable) (da_findings src))

let wrap body = Printf.sprintf "class A { int f(boolean c) { %s } }" body

let suite =
  [ (* watchdog vs static bound *)
    case "watchdog: compliant designs never trip under their bound" (fun () ->
        List.iter
          (fun (src, cls) ->
            let checked = check_src src in
            let bound =
              match Policy.Time_bound.reaction_bound checked ~cls with
              | Policy.Time_bound.Cycles n -> n
              | Policy.Time_bound.Unbounded why ->
                  Alcotest.failf "unbounded: %s" why
            in
            (* the bound is calibrated to the reference interpreter's
               cost accounting *)
            let elab =
              Javatime.Elaborate.elaborate
                ~engine:Javatime.Elaborate.Engine_interp checked ~cls
            in
            for i = 0 to 19 do
              ignore
                (Javatime.Elaborate.react_bounded elab ~budget_cycles:bound
                   [| Asr.Domain.int (i mod 3) |]);
              if Javatime.Elaborate.last_reaction_cycles elab > bound then
                Alcotest.failf "observed %d > bound %d"
                  (Javatime.Elaborate.last_reaction_cycles elab)
                  bound
            done)
          [ (Workloads.Traffic_mj.source, "TrafficLight");
            (Workloads.Elevator_mj.source, "Elevator") ]);
    case "watchdog: trips on an unexpectedly long reaction" (fun () ->
        let checked = check_src Workloads.Elevator_mj.source in
        let elab = Javatime.Elaborate.elaborate checked ~cls:"Elevator" in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Javatime.Elaborate.react_bounded elab ~budget_cycles:10
                  [| Asr.Domain.int 2 |]);
             false
           with Mj_runtime.Cost.Budget_exceeded _ -> true));
    case "watchdog: budget does not leak into later reactions" (fun () ->
        let checked = check_src Workloads.Traffic_mj.source in
        let elab = Javatime.Elaborate.elaborate checked ~cls:"TrafficLight" in
        (try
           ignore
             (Javatime.Elaborate.react_bounded elab ~budget_cycles:1
                [| Asr.Domain.int 0 |])
         with Mj_runtime.Cost.Budget_exceeded _ -> ());
        (* unbudgeted reaction runs fine afterwards *)
        ignore (Javatime.Elaborate.react elab [| Asr.Domain.int 0 |]));
    (* definite assignment *)
    case "da: read before any assignment" (fun () ->
        Alcotest.(check (list string)) "x flagged" [ "x" ]
          (da_vars (wrap "int x; return x;")));
    case "da: assigned on one branch only" (fun () ->
        Alcotest.(check (list string)) "x flagged" [ "x" ]
          (da_vars (wrap "int x; if (c) x = 1; return x;")));
    case "da: assigned on both branches is fine" (fun () ->
        Alcotest.(check (list string)) "clean" []
          (da_vars (wrap "int x; if (c) x = 1; else x = 2; return x;")));
    case "da: abruptly-completing branch counts as assigned" (fun () ->
        Alcotest.(check (list string)) "clean" []
          (da_vars (wrap "int x; if (c) return 0; else x = 2; return x;")));
    case "da: loop body assignment does not count after the loop" (fun () ->
        Alcotest.(check (list string)) "x flagged" [ "x" ]
          (da_vars
             (wrap "int x; for (int i = 0; i < 3; i++) x = i; return x;")));
    case "da: do-while body assignment does count" (fun () ->
        Alcotest.(check (list string)) "clean" []
          (da_vars
             (wrap
                "int x; int i = 0; do { x = i; i++; } while (i < 3); return x;")));
    case "da: initializer counts" (fun () ->
        Alcotest.(check (list string)) "clean" []
          (da_vars (wrap "int x = 1; return x;")));
    case "da: compound assignment reads first" (fun () ->
        Alcotest.(check (list string)) "x flagged" [ "x" ]
          (da_vars (wrap "int x; x += 1; return x;")));
    case "da: workload sources are clean" (fun () ->
        List.iter
          (fun src ->
            Alcotest.(check (list string)) "clean" [] (da_vars src))
          [ Workloads.Traffic_mj.source; Workloads.Elevator_mj.source;
            Workloads.Fir_mj.unrestricted_source;
            Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 () ]);
    (* rendering *)
    case "dot export mentions every node and edge style" (fun () ->
        let g = Asr.Cells.counter () in
        let dot = Asr.Render.to_dot g in
        List.iter
          (fun needle ->
            if not (contains ~substring:needle dot) then
              Alcotest.failf "missing %s in dot output" needle)
          [ "digraph"; "shape=box"; "fillcolor=gray80"; "shape=ellipse"; "->" ]);
    case "waves renders bottoms as dots" (fun () ->
        let text =
          Asr.Waves.render_signals
            [ ("x", [ Asr.Domain.int 3; Asr.Domain.Bottom; Asr.Domain.int 5 ]) ]
        in
        Alcotest.(check bool) "columns" true
          (contains ~substring:"x" text && contains ~substring:"." text));
    case "waves pads each column to its own widest cell" (fun () ->
        let d = Asr.Domain.int in
        Alcotest.(check string) "table"
          "instant | 0 1     2\nx       | 3 12345 .\nlonger  | 1 2     \
           3\n"
          (Asr.Waves.render_signals
             [ ("x", [ d 3; d 12345; Asr.Domain.Bottom ]);
               ("longer", [ d 1; d 2; d 3 ]) ]));
    case "waves renders a simulation trace" (fun () ->
        let g = Asr.Cells.counter () in
        let sim = Asr.Simulate.create g in
        let trace =
          Asr.Simulate.run sim
            [ [ ("reset", Asr.Domain.bool true) ];
              [ ("reset", Asr.Domain.bool false) ];
              [ ("reset", Asr.Domain.bool false) ] ]
        in
        let text = Asr.Waves.render trace in
        List.iter
          (fun needle ->
            if not (contains ~substring:needle text) then
              Alcotest.failf "missing %s in waves" needle)
          [ "in:reset"; "out:count"; "2" ]) ]
