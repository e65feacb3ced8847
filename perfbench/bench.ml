(* Command line of the benchmark:

     bench.exe --workload NAME|all --seed N --seconds S --trace 0|1

   Prints the metrics one per line, then, as the last line, one JSON
   object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones of NAME (of every workload, suffixed
   with its name, for [all]); with --trace 1 they are the per-layer
   metrics of the traced run over every workload. Without --seed each
   workload runs on its default seed. Exits 1 if any output check
   failed, 2 on a usage error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME|all --seed N --seconds S --trace 0|1";
  prerr_endline "workloads (default seed, held-out seed, why):";
  List.iter
    (fun w ->
      Printf.eprintf "  %-16s %5d %5d  %s\n" w.Census.name w.Census.default_seed
        w.Census.held_out_seed w.Census.why)
    Census.workloads;
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0
  and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
        seed := Some (match int_of_string_opt v with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let chosen =
    if !workload = "all" then Census.workloads
    else match Census.find !workload with Some w -> [ w ] | None -> usage ()
  in
  let seed_of w = Option.value !seed ~default:w.Census.default_seed in
  let o = Common.outcome () in
  (* One untraced workload: its end-to-end metrics for the result line,
     and its exact metrics and tail as notes. With [all], every name
     carries the workload as a suffix. *)
  let untraced w =
    let r = w.Census.run Common.Full ~seed:(seed_of w) ~seconds:!seconds o in
    let l = r.Common.loop.Common.latencies in
    if Array.length l <= 64 then
      Printf.printf "%s op latencies (ms): %s\n" w.Census.name
        (String.concat " "
           (Array.to_list (Array.map (fun s -> Printf.sprintf "%.1f" (1000.0 *. s)) l)));
    let tag ms =
      if List.length chosen = 1 then ms
      else
        List.map
          (fun m -> { m with Common.m_name = m.Common.m_name ^ "." ^ w.Census.name })
          ms
    in
    ( tag r.Common.e2e,
      tag
        (Common.metric "op_samples" "count" (float_of_int (Array.length l))
        :: r.Common.exact)
      @ Census.tail_metrics w.Census.name r.Common.loop )
  in
  let metrics, notes =
    try
      if !trace = 0 then
        let results = List.map untraced chosen in
        (List.concat_map fst results, List.concat_map snd results)
      else (Census.traced Common.Full ~seed:(seed_of (List.hd chosen)) ~seconds:!seconds o, [])
    with e ->
      Common.check o false "run raised %s" (Printexc.to_string e);
      ([], [])
  in
  List.iter
    (fun m ->
      if not (Names.valid m.Common.m_name && Names.valid_unit m.Common.m_unit) then
        Common.fail o "invalid metric name or unit: %S %S" m.Common.m_name
          m.Common.m_unit;
      if not (Float.is_finite m.Common.m_value) then
        Common.fail o "metric %s is not finite" m.Common.m_name)
    (metrics @ notes);
  Printf.printf "workload %s seed %s seconds %g trace %d\n" !workload
    (match !seed with Some n -> string_of_int n | None -> "default")
    !seconds !trace;
  List.iter
    (fun m ->
      Printf.printf "%-48s %18.6f %s\n" m.Common.m_name m.Common.m_value
        m.Common.m_unit)
    (metrics @ notes);
  Printf.printf "failed_frac %d/%d\n" o.Common.failed o.Common.attempted;
  List.iter (fun r -> Printf.printf "FAILED: %s\n" r) (List.rev o.Common.reasons);
  (* Names and units are validated above, so they need no escaping;
     values keep all 17 significant digits. *)
  let json =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (o.Common.failed = 0) o.Common.attempted o.Common.failed
      (String.concat ", "
         (List.map
            (fun m ->
              Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
                m.Common.m_name m.Common.m_value m.Common.m_unit)
            metrics))
  in
  print_endline json;
  exit (if o.Common.failed = 0 then 0 else 1)
