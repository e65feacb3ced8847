(* Continuous monitor: always-on overhead against the monitor-off fused
   path, sketch accuracy against exact quantiles, shard-merge
   equivalence, snapshot reconciliation, and flight-dump determinism on
   quarantine. Gates: monitoring never changes outputs or evaluation
   counts, sketch quantiles stay inside the relative-error bound,
   merges are bucket-identical to a single sketch, snapshots parse and
   reconcile with the registry, quarantine dumps are deterministic and
   cover the faulty streak, and (full size only: smoke-scaled instants
   are all bookkeeping) the monitor costs <= 5% wall on the xl rows. *)

module J = Telemetry.Json
module M = Telemetry.Monitor
module Sk = Telemetry.Sketch
module R = Telemetry.Recorder
module G = Asr.Graph
module S = Asr.Supervisor
module I = Asr.Inject
module F = Fixtures

let overhead_bound_pct = 5.0

(* Each timed pass runs the stream [reps] times: a single xl stream is
   only ~1 ms of work, too short for a stable 5% verdict. *)
let overhead_rows ~smoke w g ~instants ~passes ~reps =
  let compiled = G.compile g in
  let stream = F.stimulus g ~instants in
  let fused = Asr.Fixpoint.Fused in
  let sim_off = Asr.Simulate.create ~strategy:fused g in
  let sim_on = Asr.Simulate.create ~strategy:fused ~monitor:(M.create ()) g in
  let off_out, off_evals = F.arm sim_off stream in
  let on_out, on_evals = F.arm sim_on stream in
  let off_s, on_s = F.best_of_pair sim_off sim_on stream ~passes ~reps in
  let overhead_pct =
    if off_s <= 0.0 then 0.0 else 100.0 *. (on_s -. off_s) /. off_s
  in
  Row.
    [ count ~w "blocks" (Array.length compiled.G.c_blocks);
      count ~w "nets" compiled.G.n_nets;
      count ~w "instants" instants;
      count ~w "evaluations_off" off_evals;
      count ~w "evaluations_on" on_evals;
      wall ~w "wall_off_s" off_s;
      wall ~w "wall_on_s" on_s;
      wall ~w ~unit_:"%" "overhead_pct" overhead_pct;
      gate ~w "outputs_equal" (off_out = on_out);
      gate ~w "evals_identical" (off_evals = on_evals) ]
  @
  if smoke then []
  else
    [ Row.gate ~w "overhead_within_bound" (overhead_pct <= overhead_bound_pct) ]

(* The value at rank floor(q * (count - 1)), the rank convention
   [Sketch.quantile] documents. *)
let exact_quantile sorted q =
  sorted.(int_of_float (q *. float_of_int (Array.length sorted - 1)))

let accuracy_rows ~w ~layer sk values =
  let sorted = Array.of_list (List.map float_of_int values) in
  Array.sort compare sorted;
  let alpha = Sk.alpha in
  let probes =
    List.map
      (fun q ->
        let exact = exact_quantile sorted q and est = Sk.quantile sk q in
        let rel =
          if exact = 0.0 then if est = 0.0 then 0.0 else infinity
          else Float.abs (est -. exact) /. exact
        in
        (Printf.sprintf "p%g" (100.0 *. q), exact, est, rel))
      [ 0.5; 0.95; 0.99 ]
  in
  Row.
    [ exact ~w ~layer "alpha" (Float alpha);
      count ~w ~layer "values" (Sk.count sk);
      gate ~w ~layer "within_bound"
        (Sk.count sk = List.length values
        && List.for_all (fun (_, _, _, rel) -> rel <= alpha +. 1e-9) probes) ]
  @ List.concat_map
      (fun (p, ex, est, rel) ->
        Row.
          [ exact ~w ~layer (p ^ "_exact") (Float ex);
            exact ~w ~layer (p ^ "_estimate") (Float est);
            exact ~w ~layer (p ^ "_rel_err") (Float rel) ])
      probes

let merge_shards = 4

let merge_rows ~w values =
  let single = Sk.create () in
  List.iter (Sk.add single) values;
  let parts = Array.init merge_shards (fun _ -> Sk.create ()) in
  List.iteri (fun i v -> Sk.add parts.(i mod merge_shards) v) values;
  let merged = Sk.create () in
  Array.iter (fun p -> Sk.merge ~into:merged p) parts;
  let layer = "merge" in
  Row.
    [ count ~w ~layer "shards" merge_shards;
      count ~w ~layer "values" (List.length values);
      gate ~w ~layer "merge_equal" (Sk.equal merged single);
      gate ~w ~layer "quantiles_identical"
        (List.for_all
           (fun q -> Sk.quantile merged q = Sk.quantile single q)
           [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]) ]

(* A monitored run of a generated net with [recorder_capacity =
   instants] and [churn_every = 1]: the flight ring then keeps the
   exact per-instant streams the sketches summarized. The monitor's own
   evals sketch is checked end to end; a churn sketch built here covers
   a stream with zeros and a different dynamic range. *)
let sketch_rows ~instants size =
  let g = F.netgen ~seed:(911 + size) size in
  let mon = M.create ~recorder_capacity:(max 1 instants) ~churn_every:1 () in
  let sim = Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~monitor:mon g in
  List.iter
    (fun inputs -> ignore (Asr.Simulate.step sim inputs))
    (Workloads.Netgen.stimulus g ~instants);
  let records = R.records (M.recorder mon) in
  let blocks = F.n_blocks g in
  let w = Printf.sprintf "netgen-%d" blocks in
  let evals = List.map (fun r -> r.R.r_block_evals) records in
  let churn = List.map (fun r -> r.R.r_net_churn) records in
  let churn_sk = Sk.create () in
  List.iter (fun c -> Sk.add churn_sk (float_of_int c)) churn;
  Row.[ count ~w "blocks" blocks; count ~w "instants" instants ]
  @ accuracy_rows ~w ~layer:"block_evals" (M.evals mon) evals
  @ accuracy_rows ~w ~layer:"net_churn" churn_sk churn
  @ merge_rows ~w
      (List.concat_map
         (fun r ->
           List.map float_of_int
             [ r.R.r_block_evals; r.R.r_net_churn; r.R.r_iterations ])
         records)

(* NDJSON snapshots of a supervised, injected FIR run: every line parses
   back, cumulative counters never decrease, and the monitor's totals
   equal the telemetry registry's. *)
let snapshot_rows ~smoke =
  let taps = if smoke then 8 else 32 in
  let instants = if smoke then 16 else 80 in
  let g = F.fir_graph taps in
  let inj =
    I.make
      (I.plan ~seed:77 ~n_blocks:(F.n_blocks g) ~instants ~n_faults:2
         ~first_only:false ())
  in
  let reg = Telemetry.Registry.create () in
  let sup = S.create ~policy:S.Hold_last ~telemetry:reg () in
  let lines = ref [] in
  let mon =
    M.create ~snapshot_every:8 ~snapshot_sink:(fun l -> lines := l :: !lines) ()
  in
  let sim =
    Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~telemetry:reg
      ~supervisor:sup ~monitor:mon (I.instrument inj g)
  in
  List.iter
    (fun inputs ->
      ignore (Asr.Simulate.step sim inputs);
      I.tick inj)
    (F.stimulus g ~instants);
  let parsed =
    List.rev_map
      (fun l -> try Some (J.parse l) with J.Parse_error _ -> None)
      !lines
  in
  let int key j = match J.member key j with Some (J.Int n) -> n | _ -> -1 in
  let rec monotone prev = function
    | [] -> true
    | Some j :: rest ->
        let cur = (int "instants" j, int "block_evaluations" j, int "faults" j) in
        cur >= prev && monotone cur rest
    | None :: _ -> false
  in
  let cval name =
    (Telemetry.Registry.counter reg name).Telemetry.Registry.c_value
  in
  let w = Printf.sprintf "fir%d" taps and layer = "snapshots" in
  Row.
    [ count ~w ~layer "instants" instants;
      count ~w ~layer "snapshots" (M.snapshots_emitted mon);
      gate ~w ~layer "lines_valid"
        (List.length parsed = M.snapshots_emitted mon
        && List.for_all Option.is_some parsed);
      gate ~w ~layer "monotone_ok" (monotone (0, 0, 0) parsed);
      gate ~w ~layer "reconciles"
        (M.instants mon = instants
        && cval "asr.instants" = instants
        && M.cum_block_evals mon = cval "asr.block_evaluations"
        && M.cum_faults mon = cval "asr.supervisor.faults"
        && M.cum_faults mon > 0) ]

(* One persistent trap from instant 5 on, so the watchdog escalates
   after exactly [escalate_after] faulty instants. *)
let dump_run ~taps ~instants ~escalate_after =
  let g = F.fir_graph taps in
  let inj =
    I.make
      [ { I.i_block = 3;
          i_kind = I.Trap;
          i_instant = 5;
          i_persistence = I.Persistent;
          i_first_only = false } ]
  in
  let sup = S.create ~policy:S.Hold_last ~escalate_after () in
  let dumps = ref [] in
  let mon = M.create ~dump_sink:(fun d -> dumps := d :: !dumps) () in
  let sim =
    Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~supervisor:sup
      ~monitor:mon (I.instrument inj g)
  in
  List.iter
    (fun inputs ->
      ignore (Asr.Simulate.step sim inputs);
      I.tick inj)
    (F.stimulus g ~instants);
  (mon, List.rev_map J.to_string !dumps)

let dump_rows ~smoke =
  let taps = if smoke then 8 else 32 in
  let instants = if smoke then 12 else 40 in
  let escalate_after = 3 in
  let mon, dumps = dump_run ~taps ~instants ~escalate_after in
  let _, dumps2 = dump_run ~taps ~instants ~escalate_after in
  let faulty_records =
    List.length
      (List.filter (fun r -> r.R.r_faults > 0) (R.records (M.recorder mon)))
  in
  let w = Printf.sprintf "fir%d" taps and layer = "flight" in
  Row.
    [ count ~w ~layer "escalate_after" escalate_after;
      gate ~w ~layer "quarantine_ok"
        (List.exists
           (fun h -> h.M.h_quarantined && h.M.h_max_streak >= escalate_after)
           (M.health mon)
        && M.last_dump mon <> None);
      gate ~w ~layer "dump_deterministic" (dumps <> [] && dumps = dumps2);
      gate ~w ~layer "covers_streak_ok" (faulty_records >= escalate_after) ]

let rows ~smoke =
  let scale n small = if smoke then small else n in
  let overhead = overhead_rows ~smoke in
  (* the fusion target's xl topologies, sizes and stimulus *)
  overhead "fir-xl"
    (F.fir_graph (scale 512 16))
    ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 5 1)
  @ overhead "jpeg-pipeline-xl"
      (F.pipeline_graph (scale 320 12))
      ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 10 1)
  @ List.concat_map
      (sketch_rows ~instants:(if smoke then 10 else 100))
      (if smoke then [ 50 ] else [ 100; 1_000; 10_000 ])
  @ snapshot_rows ~smoke @ dump_rows ~smoke
