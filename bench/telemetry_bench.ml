(* Telemetry: the sink-fed profile reconciles exactly with Cost.cycles
   on every engine and workload, the ASR registry counters reconcile
   with the simulator's own totals on generated nets, Chrome-trace
   export parses back well-formed, VCD export stays structurally valid;
   the wall-clock overhead of an enabled sink is reported. *)

module F = Fixtures
module J = Telemetry.Json
module E = Javatime.Elaborate

let reconcile_rows (w : F.mj) (layer, engine) =
  let profile = Telemetry.Profile.create () in
  let cy = F.total_cycles ~engine ~profile w in
  let total = Telemetry.Profile.total profile in
  let top =
    List.filteri (fun i _ -> i < 3) (Telemetry.Profile.by_self profile)
  in
  let w = w.name in
  Row.
    [ cycles ~w ~layer "cycles" cy;
      cycles ~w ~layer "profile_total" total;
      gate ~w ~layer "reconciles" (total = cy);
      count ~w ~layer "methods"
        (List.length (Telemetry.Profile.rows profile) - 1) ]
  @ List.concat
      (List.mapi
         (fun i r ->
           let rank = Printf.sprintf "top_self_%d" (i + 1) in
           Row.
             [ str ~w ~layer rank r.Telemetry.Profile.r_label;
               cycles ~w ~layer (rank ^ "_cycles") r.Telemetry.Profile.r_self
             ])
         top)

let overhead_rows (w : F.mj) =
  let engine = E.Engine_vm in
  let _, off = F.wall (fun () -> F.total_cycles ~engine w) in
  let _, on =
    F.wall (fun () ->
        F.total_cycles ~engine ~profile:(Telemetry.Profile.create ()) w)
  in
  let reactions = List.length w.inputs in
  let w = w.name and layer = "vm" in
  Row.
    [ count ~w ~layer "reactions" reactions;
      wall ~w ~layer "disabled_wall_s" off;
      wall ~w ~layer "enabled_wall_s" on ]

(* ASR-level telemetry on generated nets: the per-instant span/counter
   machinery must reconcile exactly with the simulator's totals at any
   net size. *)
let netgen_rows ~instants size =
  let g = F.netgen ~seed:(331 + size) size in
  let stream = Workloads.Netgen.stimulus g ~instants in
  let run ?telemetry () =
    let sim = Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ?telemetry g in
    let evals, wall = F.wall (fun () -> snd (F.arm sim stream)) in
    (wall, evals)
  in
  let off_s, evals_off = run () in
  let reg = Telemetry.Registry.create () in
  let on_s, evals = run ~telemetry:reg () in
  let cval name =
    (Telemetry.Registry.counter reg name).Telemetry.Registry.c_value
  in
  let spans = List.length (Telemetry.Registry.spans reg) in
  let blocks = F.n_blocks g in
  let w = Printf.sprintf "netgen-%d" blocks in
  Row.
    [ count ~w "blocks" blocks;
      count ~w "instants" instants;
      count ~w "evaluations" evals;
      count ~w "spans" spans;
      gate ~w "reconciles"
        (evals = evals_off
        && cval "asr.instants" = instants
        && cval "asr.block_evaluations" = evals
        && spans = instants);
      wall ~w "disabled_wall_s" off_s;
      wall ~w "enabled_wall_s" on_s ]

(* Chrome-trace validity: profile the FIR workload with span recording,
   export, parse the JSON back and check the events' shape. *)
let trace_rows ~smoke =
  let w =
    List.find (fun w -> w.F.name = "fir-refined") (F.mj_workloads ~smoke)
  in
  let reg = Telemetry.Registry.create () in
  let profile = Telemetry.Profile.create ~spans:reg () in
  ignore (F.total_cycles ~engine:E.Engine_vm ~profile w);
  let events, valid =
    match J.parse (Telemetry.Export.chrome_trace reg) with
    | exception J.Parse_error _ -> (0, false)
    | parsed -> (
        match J.member "traceEvents" parsed with
        | Some (J.List events) ->
            let well_formed ev =
              List.for_all
                (fun k -> J.member k ev <> None)
                [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ]
            in
            (List.length events, events <> [] && List.for_all well_formed events)
        | _ -> (0, false))
  in
  Row.
    [ count ~w:"chrome-trace" "events" events;
      gate ~w:"chrome-trace" "valid" valid ]

let vcd_ok () =
  let open Asr in
  let vcd =
    Waves.signals_to_vcd
      [ ("x", [ Domain.int 1; Domain.int 2; Domain.Bottom ]);
        ("go", [ Domain.bool true; Domain.bool false; Domain.bool false ]) ]
  in
  String.length vcd > 0
  && String.sub vcd 0 10 = "$timescale"
  && String.index_opt vcd 'x' <> None

let rows ~smoke =
  let workloads = F.mj_workloads ~smoke in
  List.concat
    [ List.concat_map
        (fun w -> List.concat_map (reconcile_rows w) F.engines)
        workloads;
      List.concat_map overhead_rows workloads;
      List.concat_map
        (netgen_rows ~instants:(if smoke then 10 else 100))
        (if smoke then [ 50 ] else [ 200; 2_000 ]);
      trace_rows ~smoke;
      [ Row.gate ~w:"vcd" "valid" (vcd_ok ()) ] ]
