(* Fixpoint scheduling strategies: chaotic iteration (declaration order
   and topological order) against the static schedule and the worklist
   evaluator on feed-forward, cyclic and random topologies. The
   feed-forward graphs are declared output-first, a legal construction
   order on which chaotic iteration shows its O(blocks x nets)
   behaviour. Gates: identical fixpoints everywhere, >= 5x fewer
   evaluations for the worklist on the deep feed-forward workloads. *)

module F = Fixtures

let bench_graph name g ~instants =
  let compiled = Asr.Graph.compile g in
  let schedule = Asr.Schedule.of_compiled compiled in
  let stream = F.stimulus g ~instants in
  let run label ?order ?strategy () =
    let sim = Asr.Simulate.create ?order ?strategy g in
    let (outputs, evals), wall = F.wall (fun () -> F.arm sim stream) in
    (label, outputs, evals, wall)
  in
  let chaotic = run "chaotic (declaration order)" ~strategy:Asr.Fixpoint.Chaotic () in
  let scheduled = run "scheduled" ~strategy:Asr.Fixpoint.Scheduled () in
  let worklist = run "worklist" ~strategy:Asr.Fixpoint.Worklist () in
  let runs =
    [ chaotic;
      run "chaotic (topological order)"
        ~order:(Asr.Schedule.linear_order schedule) ();
      scheduled; worklist ]
  in
  let speedup (_, _, evals, _) =
    let _, _, chaotic_evals, _ = chaotic in
    float_of_int chaotic_evals /. float_of_int evals
  in
  let _, chaotic_out, _, _ = chaotic in
  let w = name in
  Row.
    [ count ~w "blocks" (Array.length compiled.Asr.Graph.c_blocks);
      count ~w "nets" compiled.Asr.Graph.n_nets;
      count ~w "cyclic_blocks" (Asr.Schedule.cyclic_block_count schedule);
      count ~w "instants" instants;
      gate ~w "equal_fixpoints"
        (List.for_all (fun (_, o, _, _) -> o = chaotic_out) runs);
      exact ~w ~unit_:"ratio" "speedup_evals_scheduled"
        (Float (speedup scheduled));
      exact ~w ~unit_:"ratio" "speedup_evals_worklist"
        (Float (speedup worklist)) ]
  @ (if List.mem name [ "fir"; "jpeg-pipeline" ] then
       [ Row.gate ~w "worklist_speedup_ge_5x" (speedup worklist >= 5.0) ]
     else [])
  @ List.concat_map
      (fun (layer, _, evals, wall) ->
        [ Row.count ~w ~layer "evaluations" evals;
          Row.wall ~w ~layer "wall_s" wall ])
      runs

let rows ~smoke =
  let scale n small = if smoke then small else n in
  let netgen seed ~depth ~width =
    Workloads.Netgen.generate ~inputs:3 ~delays:4 ~cyclic_ratio:0.05 ~seed
      ~depth ~width ()
  in
  List.concat
    [ bench_graph "fir" (F.fir_graph (scale 64 12)) ~instants:(scale 200 20);
      bench_graph "jpeg-pipeline"
        (F.pipeline_graph (scale 40 10))
        ~instants:(scale 200 20);
      bench_graph "cyclic" (F.cyclic_graph (scale 16 4)) ~instants:(scale 200 20);
      bench_graph "random"
        (F.random_graph ~seed:11 ~inputs:3 ~layers:(scale 12 4)
           ~per_layer:(scale 25 6) ~delays:4)
        ~instants:(scale 200 20);
      (* Netgen declares layers input-to-output, so chaotic declaration
         order is near-topological here: an honest best case next to the
         output-first fir/jpeg rows, which is why these rows sit outside
         the >= 5x feed-forward gate. *)
      bench_graph "netgen-1e2"
        (netgen 211 ~depth:(scale 5 3) ~width:(scale 20 5))
        ~instants:(scale 200 20);
      bench_graph "netgen-1e3"
        (netgen 212 ~depth:(scale 25 4) ~width:(scale 40 6))
        ~instants:(scale 200 20) ]
