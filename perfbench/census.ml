(* The workload table, and the traced run that turns spans into the
   per-layer metrics. *)

open Common

type workload = {
  name : string;
  default_seed : int;
  held_out_seed : int;  (* not used while tuning; re-check claims on it *)
  why : string;
  run : size -> seed:int -> seconds:float -> outcome -> report;
}

let workloads =
  [ { name = "jpeg-codec"; default_seed = 1; held_out_seed = 7919;
      why =
        "Table 1 on the bytecode VM and JIT and the runtime heap; nearly \
         all op time is MJ execution";
      run = Wl_jpeg.run };
    { name = "refine-verify"; default_seed = 1; held_out_seed = 7919;
      why =
        "the SFR toolchain: policy check, refinement, VCs and trace \
         correspondence under seeded thread schedules";
      run = Wl_refine.run };
    { name = "netgen-fused"; default_seed = 1; held_out_seed = 7919;
      why =
        "the Fused fixpoint fast lane alone on a 10^4-block net; bypasses \
         bytecode and runtime";
      run = Wl_netgen.run_fused };
    { name = "netgen-observed"; default_seed = 1; held_out_seed = 7919;
      why =
        "the same net with supervisor, monitor, causal ring and periodic \
         checkpoint saves attached";
      run = Wl_netgen.run_observed } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Spans of one traced run to a JSON file under [work_dir]. *)
let dump_spans ~tag spans =
  mkdir_p !work_dir;
  let path = Filename.concat !work_dir (Printf.sprintf "spans-%s.json" tag) in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Telemetry.Json.to_string (Spans.to_json spans)))

(* Share of op wall time outside every layer span, and two
   reconciliations: self times partition the op spans exactly (within
   float rounding), and the op spans account for the loop's measured
   op latencies within 5% plus 2 us per op (the rest is the recorder's
   own cost around the root span). *)
let attribution o ~name spans (l : loop) =
  let ops = List.filter (fun s -> s.Spans.name = "op") spans in
  let op_ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace op_ids s.Spans.id ()) ops;
  let in_ops = List.filter (fun s -> s.Spans.op >= 0) spans in
  let selves = Spans.self_times in_ops in
  let op_total = List.fold_left (fun acc s -> acc +. Spans.duration_ns s) 0.0 ops in
  let self_total = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 selves in
  let unattributed =
    List.fold_left
      (fun acc (s, t) -> if Hashtbl.mem op_ids s.Spans.id then acc +. t else acc)
      0.0 selves
  in
  let latency_total = 1e9 *. Array.fold_left ( +. ) 0.0 l.latencies in
  check o
    (Float.abs (self_total -. op_total) <= 1e-6 *. op_total)
    "%s: span self times (%.0f ns) do not partition the ops (%.0f ns)" name
    self_total op_total;
  let slack = (0.05 *. latency_total) +. (2000.0 *. float_of_int (List.length ops)) in
  check o
    (op_total <= latency_total && op_total >= latency_total -. slack)
    "%s: op spans cover %.1f%% of the measured op time" name
    (100.0 *. op_total /. latency_total);
  unattributed /. op_total

(* The op-latency tail by the tail rule, with its percentile and
   sample count; the maximum when there are too few samples. *)
let tail_metrics name (l : loop) =
  let t =
    match Stats.tail l.latencies with
    | Some t -> t
    | None ->
        let n = Array.length l.latencies in
        { Stats.t_pct = 100.0;
          t_value = Array.fold_left Float.max 0.0 l.latencies;
          t_beyond = 0; t_samples = n }
  in
  [ metric ("op_tail_ms." ^ name) "ms" (1000.0 *. t.Stats.t_value);
    metric ("op_tail_pct." ^ name) "%" t.Stats.t_pct;
    metric ("op_tail_samples." ^ name) "count" (float_of_int t.Stats.t_samples) ]

(* The traced run: every workload once untraced and once traced, each
   loop for [seconds /. 8], then the isolation rows. Returns every
   per-layer metric. *)
let traced size ~seed ~seconds o =
  let short = seconds /. 8.0 in
  let setup_totals = Hashtbl.create 16 in
  let per_workload =
    List.concat_map
      (fun w ->
        Spans.enable false;
        Spans.clear ();
        let untraced = w.run size ~seed ~seconds:short o in
        Spans.clear ();
        Spans.enable true;
        let r = w.run size ~seed ~seconds:short o in
        Spans.enable false;
        let spans = Spans.recorded () in
        dump_spans ~tag:(Printf.sprintf "%s-%d" w.name seed) spans;
        Spans.clear ();
        List.iter
          (fun (layer, ms) ->
            let prev = Option.value (Hashtbl.find_opt setup_totals layer) ~default:0.0 in
            Hashtbl.replace setup_totals layer (prev +. ms))
          r.setup_layers;
        let unattributed = attribution o ~name:w.name spans r.loop in
        r.layers @ r.exact
        @ [ metric ("trace.overhead_ratio." ^ w.name) "ratio"
              (Stats.median r.loop.latencies /. Stats.median untraced.loop.latencies);
            metric ("trace.unattributed_frac." ^ w.name) "ratio" unattributed ]
        @ (* only the netgen workloads run enough ops for a tail *)
        if String.starts_with ~prefix:"netgen" w.name then
          tail_metrics w.name untraced.loop
        else [])
      workloads
  in
  let setup =
    Hashtbl.fold (fun layer ms acc -> metric (layer ^ "_ms") "ms" ms :: acc) setup_totals []
    |> List.sort (fun a b -> compare a.m_name b.m_name)
  in
  setup @ per_workload @ Wl_netgen.isolation size ~seed ~seconds:(seconds /. 10.0) o
