(* Reaction fusion: the ahead-of-time compiled strategy (Fuse plans run
   by Fixpoint.Fused) against the interpreted static schedule: wall
   clock on the deep feed-forward workloads, a generated-net scaling
   curve up to 1e5 blocks, and fault containment on the fused path.
   The fir/jpeg-pipeline rows use the schedule target's graphs, sizes
   and stimulus. Gates: identical fixed points everywhere, fused never
   evaluates more than scheduled, containment bit-identical outside
   the blast radius, and (full size only: the wall clocks of
   smoke-scaled graphs are all bookkeeping) >= 10x wall on the xl
   rows. *)

module F = Fixtures
module G = Asr.Graph
module S = Asr.Supervisor
module I = Asr.Inject

(* Outputs and evaluations from one untimed pass; wall from [passes]
   timed passes of the bare reaction loop. The simulator, and with it
   the schedule and the fuse plan, is created once: plan compilation is
   setup, not reaction cost. *)
let measure g stream ~strategy ~passes =
  let sim = Asr.Simulate.create ~strategy g in
  let outputs, evals = F.arm sim stream in
  (outputs, evals, F.timed sim stream ~reps:passes)

let bench_graph ~smoke ?(gate_wall = false) ?(oracle = true) name g ~instants
    ~passes =
  let compiled = G.compile g in
  let schedule = Asr.Schedule.of_compiled compiled in
  let plan = Asr.Fuse.compile ~schedule compiled in
  let stream = F.stimulus g ~instants in
  let s_out, s_evals, s_wall =
    measure g stream ~strategy:Asr.Fixpoint.Scheduled ~passes
  in
  let f_out, f_evals, f_wall =
    measure g stream ~strategy:Asr.Fixpoint.Fused ~passes
  in
  (* The chaotic oracle pins both to the reference least fixed point;
     skipped on nets where its O(blocks x nets) sweeps are prohibitive
     (the qcheck differentials cover those sizes). *)
  let equal =
    f_out = s_out
    && ((not oracle)
       ||
       let c_out, _, _ =
         measure g stream ~strategy:Asr.Fixpoint.Chaotic ~passes:1
       in
       f_out = c_out)
  in
  let speedup_wall = s_wall /. f_wall in
  let speedup_evals = float_of_int s_evals /. float_of_int (max 1 f_evals) in
  let w = name in
  Row.
    [ count ~w "blocks" (Array.length compiled.G.c_blocks);
      count ~w "nets" compiled.G.n_nets;
      count ~w "cyclic_blocks" (Asr.Schedule.cyclic_block_count schedule);
      count ~w "instants" instants;
      count ~w "kernel_steps" plan.Asr.Fuse.f_n_fused;
      count ~w "folded_blocks" plan.Asr.Fuse.f_n_folded;
      count ~w ~layer:"scheduled" "evaluations" s_evals;
      count ~w ~layer:"fused" "evaluations" f_evals;
      wall ~w ~layer:"scheduled" "wall_s" s_wall;
      wall ~w ~layer:"fused" "wall_s" f_wall;
      gate ~w "equal_fixpoints" equal;
      exact ~w ~unit_:"ratio" "speedup_evals_fused" (Float speedup_evals);
      gate ~w "fused_evals_le_scheduled" (speedup_evals >= 1.0);
      wall ~w ~unit_:"ratio" "speedup_wall_fused" speedup_wall ]
  @
  if gate_wall && not smoke then
    [ Row.gate ~w "wall_speedup_ge_10x" (speedup_wall >= 10.0) ]
  else []

let scaling_row size ~instants =
  let g = F.netgen ~seed:(271 + size) size in
  let compiled = G.compile g in
  let schedule = Asr.Schedule.of_compiled compiled in
  let plan, compile_s =
    F.wall (fun () -> Asr.Fuse.compile ~schedule compiled)
  in
  let stream = Workloads.Netgen.stimulus g ~instants in
  let s_out, s_evals, s_wall =
    measure g stream ~strategy:Asr.Fixpoint.Scheduled ~passes:1
  in
  let f_out, f_evals, f_wall =
    measure g stream ~strategy:Asr.Fixpoint.Fused ~passes:1
  in
  let blocks = Array.length compiled.G.c_blocks in
  let w = Printf.sprintf "netgen-%d" blocks in
  Row.
    [ count ~w "blocks" blocks;
      count ~w "nets" compiled.G.n_nets;
      count ~w "folded_blocks" plan.Asr.Fuse.f_n_folded;
      count ~w "cyclic_blocks" plan.Asr.Fuse.f_n_cyclic;
      wall ~w "fuse_compile_s" compile_s;
      count ~w ~layer:"scheduled" "evaluations" s_evals;
      count ~w ~layer:"fused" "evaluations" f_evals;
      wall ~w ~layer:"scheduled" "wall_s" s_wall;
      wall ~w ~layer:"fused" "wall_s" f_wall;
      wall ~w ~unit_:"ratio" "speedup_wall" (s_wall /. f_wall);
      gate ~w "equal_outputs" (f_out = s_out) ]

(* The faults target's blast-radius property on the fused plan. *)
let containment ~smoke =
  let scale n small = if smoke then small else n in
  let g = F.fir_graph (scale 32 8) in
  let instants = scale 60 12 in
  let stream = F.stimulus g ~instants in
  let fused = Asr.Fixpoint.Fused in
  (* The clean run is supervised too (its supervisor never fires): both
     runs then take the block-at-a-time fused path, which materializes
     every net. The fast lane leaves collapsed interior nets at bottom,
     invisible at the ports but not to a net-by-net comparison. *)
  let clean =
    F.run_capture ~strategy:fused ~supervisor:(S.create ~policy:S.Hold_last ())
      g stream
  in
  let specs =
    I.plan ~seed:45 ~n_blocks:(F.n_blocks g) ~instants ~n_faults:2
      ~first_only:false ()
  in
  let inj = I.make specs in
  let sup = S.create ~policy:S.Hold_last () in
  let faulty =
    F.run_capture ~strategy:fused ~supervisor:sup ~inject:inj
      (I.instrument inj g) stream
  in
  let affected, checked, ok = F.containment g specs ~clean ~faulty in
  let w = "fir" and layer = S.policy_name S.Hold_last in
  Row.
    [ count ~w ~layer "injected" (I.fired inj);
      count ~w ~layer "contained" (S.fault_count sup);
      count ~w ~layer "affected_nets" affected;
      count ~w ~layer "checked" checked;
      gate ~w ~layer "contained_identical" (ok && I.fired inj > 0) ]

let rows ~smoke =
  let scale n small = if smoke then small else n in
  let graph = bench_graph ~smoke in
  let sizes = if smoke then [ 50; 200 ] else [ 100; 1_000; 10_000; 100_000 ] in
  List.concat
    [ graph "fir" (F.fir_graph (scale 64 12)) ~instants:(scale 200 20)
        ~passes:(scale 50 3);
      graph "jpeg-pipeline"
        (F.pipeline_graph (scale 40 10))
        ~instants:(scale 200 20) ~passes:(scale 50 3);
      (* the wall-gate rows: same topologies scaled up so per-instant
         bookkeeping amortizes and the per-application gap dominates *)
      graph "fir-xl" ~gate_wall:true ~oracle:smoke
        (F.fir_graph (scale 512 16))
        ~instants:(scale 200 20) ~passes:(scale 20 3);
      graph "jpeg-pipeline-xl" ~gate_wall:true ~oracle:smoke
        (F.pipeline_graph (scale 320 12))
        ~instants:(scale 200 20) ~passes:(scale 20 3) ]
  @ List.concat_map
      (fun size -> scaling_row size ~instants:(if smoke then 5 else 20))
      sizes
  @ containment ~smoke
