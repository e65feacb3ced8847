(* Causal tracing: recording overhead on the fusion xl rows,
   why-provenance slice sizes on generated nets up to 1e4 blocks under
   the bounded ring, first-divergence localization of seeded block
   mutations, and bit-identical record/replay across every strategy and
   containment policy, injected campaigns and Fail_fast aborts
   included. Full event capture (reads resolution and write arrays per
   evaluation) is not expected to fit a 5% envelope on these
   tiny-kernel nets, so the traced wall is reported, not gated. Gates:
   tracing never changes outputs or evaluation counts (and the
   untraced evaluations are exact rows of the recorded baseline), every
   slice resolves its root or reports truncation, every mutation is
   blamed on exactly the mutated block, every recording replays and
   re-serializes bit-identically. *)

module C = Telemetry.Causal
module G = Asr.Graph
module B = Asr.Block
module D = Asr.Domain
module T = Asr.Checkpoint
module F = Asr.Fixpoint
module S = Asr.Supervisor
module I = Asr.Inject

let overhead_rows w g ~instants ~passes ~reps =
  let compiled = G.compile g in
  let stream = Fixtures.stimulus g ~instants in
  let sim_off = Asr.Simulate.create ~strategy:F.Fused g in
  let cz = C.create ~n_nets:compiled.G.n_nets () in
  let sim_on = Asr.Simulate.create ~strategy:F.Fused ~causal:cz g in
  let off_out, off_evals = Fixtures.arm sim_off stream in
  let on_out, on_evals = Fixtures.arm sim_on stream in
  (* over one stream, before the timed passes push more *)
  let pushed = C.pushed cz and overwrites = C.overwrites cz in
  let off_s, on_s = Fixtures.best_of_pair sim_off sim_on stream ~passes ~reps in
  Row.
    [ count ~w "blocks" (Array.length compiled.G.c_blocks);
      count ~w "nets" compiled.G.n_nets;
      count ~w "instants" instants;
      count ~w "evaluations_off" off_evals;
      count ~w "evaluations_traced" on_evals;
      count ~w "events_pushed" pushed;
      count ~w "ring_overwrites" overwrites;
      wall ~w "wall_off_s" off_s;
      wall ~w "wall_traced_s" on_s;
      wall ~w ~unit_:"%" "overhead_traced_pct"
        (if off_s <= 0.0 then 0.0 else 100.0 *. (on_s -. off_s) /. off_s);
      gate ~w "outputs_equal" (off_out = on_out);
      gate ~w "evals_identical" (off_evals = on_evals) ]

(* Slices of the output nets over the last three instants. A Def net
   must resolve its establishing event (or report truncation), a bottom
   net must report no establishing value. *)
let slice_rows ~instants size =
  let g = Fixtures.netgen ~seed:(1311 + size) size in
  let compiled = G.compile g in
  let t = T.record ~strategy:F.Fused g (Workloads.Netgen.stimulus g ~instants) in
  let out_nets =
    match T.outputs t with
    | [] -> []
    | first :: _ -> List.filter_map (fun (n, _) -> T.output_net t n) first
  in
  let last = T.instant t - 1 in
  let slices =
    List.concat_map
      (fun di ->
        if last - di < 0 then []
        else
          List.map
            (fun net ->
              let instant = last - di in
              let recorded =
                match T.nets_at t instant with
                | Some nets -> nets.(net)
                | None -> D.Bottom
              in
              (T.why t ~net ~instant, recorded))
            out_nets)
      [ 0; 1; 2 ]
  in
  let sizes = List.map (fun (sl, _) -> List.length sl.C.sl_events) slices in
  let checked = List.length slices in
  let overwrites, _ = T.data_loss t in
  let w = Printf.sprintf "netgen-%d" (Array.length compiled.G.c_blocks) in
  Row.
    [ count ~w "blocks" (Array.length compiled.G.c_blocks);
      count ~w "nets" compiled.G.n_nets;
      count ~w "instants" (T.instant t);
      count ~w "events_pushed" (overwrites + List.length (T.events t));
      count ~w "ring_overwrites" overwrites;
      count ~w "slices_checked" checked;
      exact ~w "slice_events_mean"
        (Float
           (if checked = 0 then 0.0
            else
              float_of_int (List.fold_left ( + ) 0 sizes)
              /. float_of_int checked));
      count ~w "slice_events_max" (List.fold_left max 0 sizes);
      count ~w "slices_truncated"
        (List.length (List.filter (fun (sl, _) -> sl.C.sl_truncated) slices));
      gate ~w "slices_computed" (checked > 0);
      gate ~w "roots_resolved_ok"
        (checked > 0
        && List.for_all
             (fun (sl, recorded) ->
               match recorded with
               | D.Bottom -> sl.C.sl_value = None
               | D.Def _ -> sl.C.sl_root >= 0 || sl.C.sl_truncated)
             slices) ]

(* Off-by-one every Int output of one block: the silent data corruption
   a bit flip or a wrong-constant patch produces. The corrupted function
   no longer matches the block's kernel claim, so the block becomes
   opaque: fused runs must apply the corrupted function, not the
   standard cell's kernel step. *)
let corrupt g ~target =
  G.map_blocks g (fun bi b ->
      if bi <> target then b
      else
        { b with
          B.kernel = B.Opaque;
          fn =
            (fun ins ->
              Array.map
                (function
                  | D.Def (Asr.Data.Int v) -> D.Def (Asr.Data.Int (v + 1))
                  | x -> x)
                (b.B.fn ins)) })

(* Walks candidate targets from a seeded start until one whose
   corruption actually perturbs the run (Bool-valued cells shrug off an
   Int offset), then demands the localizer blame exactly it. *)
let localize_rows ~instants seed =
  let g =
    Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1 ~seed
      ~depth:6 ~width:8 ()
  in
  let n_blocks = Fixtures.n_blocks g in
  let stream = Workloads.Netgen.stimulus g ~instants in
  let reference = T.record ~strategy:F.Fused g stream in
  let rec hunt k =
    if k >= n_blocks then (-1, None)
    else
      let target = (seed + k) mod n_blocks in
      let mutated = T.record ~strategy:F.Fused (corrupt g ~target) stream in
      match T.first_divergence reference mutated with
      | None -> hunt (k + 1)
      | d -> (target, d)
  in
  let target, d = hunt 0 in
  let w = Printf.sprintf "netgen-seed%d" seed in
  let instant, net, localized =
    match d with
    | None -> (-1, -1, false)
    | Some d ->
        ( d.T.d_instant,
          d.T.d_net,
          d.T.d_block = target && d.T.d_slice_a <> None
          && d.T.d_slice_b <> None )
  in
  Row.
    [ count ~w "blocks" n_blocks;
      count ~w "mutated_block" target;
      count ~w "divergence_instant" instant;
      count ~w "divergence_net" net;
      gate ~w "localized" localized ]

let replay_rows g stream ~strategy ?policy ?inject () =
  let t = T.record ~strategy ?policy ?inject ~seed:17 g stream in
  let w = F.strategy_name strategy
  and layer = match policy with None -> "none" | Some p -> S.policy_name p in
  Row.
    [ count ~w ~layer "injected_faults"
        (match inject with None -> 0 | Some l -> List.length l);
      count ~w ~layer "instants" (T.instant t);
      exact ~w ~layer "aborted" (Bool (T.fatal t <> None));
      gate ~w ~layer "replay_identical" (T.equal t (T.replay t g));
      gate ~w ~layer "serialization_identical"
        (T.equal t (T.of_json (T.to_json t))) ]

let replay ~smoke =
  let instants = if smoke then 6 else 12 in
  let g =
    Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1 ~seed:41
      ~depth:5 ~width:8 ()
  in
  let n_blocks = Fixtures.n_blocks g in
  let stream = Workloads.Netgen.stimulus g ~instants in
  let campaign seed =
    I.plan ~seed ~n_blocks ~instants ~n_faults:3 ~first_only:false ()
  in
  List.concat
    [ replay_rows g stream ~strategy:F.Chaotic ();
      replay_rows g stream ~strategy:F.Scheduled ~policy:S.Hold_last
        ~inject:(campaign 7) ();
      replay_rows g stream ~strategy:F.Worklist ~policy:(S.Retry 2)
        ~inject:(campaign 8) ();
      replay_rows g stream ~strategy:F.Fused ~policy:S.Absent
        ~inject:(campaign 9) ();
      (* a persistent trap under Fail_fast: the recorded run aborts
         mid-stream and the replay must abort at the same instant with
         the same partial trace *)
      replay_rows g stream ~strategy:F.Fused ~policy:S.Fail_fast
        ~inject:
          [ { I.i_block = 1;
              i_kind = I.Trap;
              i_instant = instants / 2;
              i_persistence = I.Persistent;
              i_first_only = false } ]
        () ]

let rows ~smoke =
  let scale n small = if smoke then small else n in
  (* the fusion target's xl topologies, sizes and stimulus *)
  overhead_rows "fir-xl"
    (Fixtures.fir_graph (scale 512 16))
    ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 5 1)
  @ overhead_rows "jpeg-pipeline-xl"
      (Fixtures.pipeline_graph (scale 320 12))
      ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 10 1)
  @ List.concat_map
      (slice_rows ~instants:(if smoke then 8 else 20))
      (if smoke then [ 50 ] else [ 100; 1_000; 10_000 ])
  @ List.concat_map
      (localize_rows ~instants:(if smoke then 6 else 8))
      (if smoke then [ 31 ] else [ 31; 32; 33 ])
  @ replay ~smoke
