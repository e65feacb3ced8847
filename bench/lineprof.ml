(* Line profiling: per-line attribution reconciles exactly with
   Cost.cycles on every engine, and enabling it never changes the
   modeled cycle count (the disabled path is free in the cost model);
   the wall-clock overhead of both paths is reported. *)

module F = Fixtures

let engine_rows (w : F.mj) (layer, engine) =
  let measure lines = F.wall (fun () -> F.total_cycles ~engine ?lines w) in
  let lt = Telemetry.Lines.create () in
  let off, off_s = measure None in
  let on, on_s = measure (Some lt) in
  let total = Telemetry.Lines.total lt in
  let n_rows = List.length (Telemetry.Lines.rows lt) in
  let top = List.filteri (fun i _ -> i < 3) (Telemetry.Lines.by_cycles lt) in
  let w = w.name in
  Row.
    [ cycles ~w ~layer "cycles" off;
      cycles ~w ~layer "cycles_lines_enabled" on;
      gate ~w ~layer "cost_model_unchanged" (on = off);
      cycles ~w ~layer "lines_total" total;
      gate ~w ~layer "reconciles" (total = on);
      count ~w ~layer "rows" n_rows;
      gate ~w ~layer "rows_ge_2" (n_rows >= 2);
      wall ~w ~layer "disabled_wall_s" off_s;
      wall ~w ~layer "enabled_wall_s" on_s ]
  @ List.concat
      (List.mapi
         (fun i e ->
           let rank = Printf.sprintf "top_line_%d" (i + 1) in
           Telemetry.Lines.
             [ Row.str ~w ~layer rank (Printf.sprintf "%s:%d" e.e_file e.e_line);
               Row.cycles ~w ~layer (rank ^ "_cycles") e.e_cycles ])
         top)

let rows ~smoke =
  List.concat_map
    (fun w -> List.concat_map (engine_rows w) F.engines)
    (F.mj_workloads ~smoke)
