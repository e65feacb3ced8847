(* Benchmark harness.

   Usage:  main.exe [TARGET ...|all] [--small] [--json] [--smoke]
                    [--baseline PATH]

   Every measured target reports one list of rows (see Row): a text
   table, or {"target": ..., "rows": [...]} under --json. A false gate
   row fails the run with exit 1; --baseline PATH also checks the run
   against a recorded run of the same target (bench/baselines/ holds
   the --smoke recordings). --smoke runs reduced sizes. The paper
   figures (table1, fig1-fig8, ablation) print text; --small shrinks
   Table 1's image. *)

let row_targets =
  [ ("schedule", Schedule.rows);
    ("fusion", Fusion.rows);
    ("boundscheck", Boundscheck.rows);
    ("analysis", Analysis_bench.rows);
    ("telemetry", Telemetry_bench.rows);
    ("lineprof", Lineprof.rows);
    ("faults", Faults.rows);
    ("monitor", Monitor.rows);
    ("refinement", Refinement.rows);
    ("causal", Causal.rows);
    ("recovery", Recovery.rows) ]

let figures ~small =
  [ ("table1", Figures.table1 ~small);
    ("fig1", Figures.fig1);
    ("fig2", Figures.fig2);
    ("fig3", Figures.fig3);
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("ablation", Figures.ablation) ]

let run_rows ~json ~smoke ?baseline target rows =
  let rows = List.map (fun r -> { r with Row.target }) (rows ~smoke) in
  if json then print_string (Row.to_json_string ~target rows)
  else Row.print_text rows;
  if not (Row.check ~target ?baseline rows) then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "recovery-child" :: rest ->
      (* subprocess mode of the SIGKILL recovery harness *)
      Recovery.child rest
  | args ->
      let baseline = ref None in
      let rec names = function
        | "--baseline" :: path :: rest ->
            baseline := Some path;
            names rest
        | [ "--baseline" ] ->
            prerr_endline "usage: --baseline PATH";
            exit 1
        | ("--small" | "--json" | "--smoke") :: rest -> names rest
        | a :: rest -> a :: names rest
        | [] -> []
      in
      let names = names args in
      let json = List.mem "--json" args and smoke = List.mem "--smoke" args in
      let figures = figures ~small:(List.mem "--small" args) in
      let run name =
        (* keep stdout pure JSON under --json *)
        if not json then Printf.printf "==== %s ====\n" name;
        (match (List.assoc_opt name row_targets, List.assoc_opt name figures) with
        | Some rows, _ -> run_rows ~json ~smoke ?baseline:!baseline name rows
        | None, Some f -> f ()
        | None, None ->
            Printf.eprintf "unknown experiment '%s'; available: %s\n" name
              (String.concat " "
                 (List.map fst row_targets @ List.map fst figures @ [ "all" ]));
            exit 1);
        if not json then print_newline ()
      in
      List.iter run
        (match names with
        | [] | [ "all" ] -> List.map fst row_targets @ List.map fst figures
        | names -> names)
