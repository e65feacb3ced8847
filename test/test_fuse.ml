open Util
module D = Asr.Domain
module Dt = Asr.Data
module G = Asr.Graph
module B = Asr.Block
module S = Asr.Supervisor
module I = Asr.Inject
module F = Asr.Fuse
module Fx = Asr.Fixpoint
module R = Test_random_graphs

(* ---- reference graphs -------------------------------------------- *)

(* Small FIR: a fork/delay tap line with gain weights and an adder
   chain. Exercises the fused fast lane end to end: fork ports alias
   their source (the delay feed is served by a post-pass copyback),
   gains and adds collapse into chains. *)
let fir_graph taps =
  let g = G.create "fir-test" in
  let x = G.add_input g "x" in
  let src = ref (G.out_port x 0) in
  let taps_out = ref [] in
  for k = 0 to taps - 1 do
    let f = G.add_block g (B.fork 2) in
    G.connect g ~src:!src ~dst:(G.in_port f 0);
    let gn = G.add_block g (B.gain (k + 1)) in
    G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port gn 0);
    taps_out := G.out_port gn 0 :: !taps_out;
    let d = G.add_delay g ~init:(D.int 0) in
    G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port d 0);
    src := G.out_port d 0
  done;
  let gn = G.add_block g (B.gain 7) in
  G.connect g ~src:!src ~dst:(G.in_port gn 0);
  taps_out := G.out_port gn 0 :: !taps_out;
  let acc =
    List.fold_left
      (fun acc src ->
        match acc with
        | None -> Some src
        | Some a ->
            let add = G.add_block g B.add in
            G.connect g ~src:a ~dst:(G.in_port add 0);
            G.connect g ~src ~dst:(G.in_port add 1);
            Some (G.out_port add 0))
      None !taps_out
  in
  let y = G.add_output g "y" in
  G.connect g ~src:(Option.get acc) ~dst:(G.in_port y 0);
  g

(* A fork whose ports feed a mux: the mux reads slots directly, so
   those ports need residual stores at the fork's schedule position
   while the parity port resolves through the alias. *)
let mux_fork_graph () =
  let g = G.create "mux-fork" in
  let x = G.add_input g "x" in
  let f = G.add_block g (B.fork 3) in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port f 0);
  let parity =
    G.add_block g
      (B.map1 ~name:"parity" (function
        | Dt.Int v -> Dt.Bool (v mod 2 = 0)
        | _ -> Dt.Bool false))
  in
  G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port parity 0);
  let neg = G.add_block g B.neg in
  G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port neg 0);
  let m = G.add_block g B.mux in
  G.connect g ~src:(G.out_port parity 0) ~dst:(G.in_port m 0);
  G.connect g ~src:(G.out_port neg 0) ~dst:(G.in_port m 1);
  G.connect g ~src:(G.out_port f 2) ~dst:(G.in_port m 2);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port y 0);
  g

(* Delay-free feedback resolved through a mux (Netgen's pattern): the
   SCC {mux, add} takes the bounded-iteration fallback inside the
   fused reaction. *)
let cyclic_graph () =
  let g = G.create "cyc-test" in
  let x = G.add_input g "x" in
  let parity =
    G.add_block g
      (B.map1 ~name:"parity" (function
        | Dt.Int v -> Dt.Bool (v mod 2 = 0)
        | _ -> Dt.Bool false))
  in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port parity 0);
  let m = G.add_block g B.mux in
  let a = G.add_block g B.add in
  G.connect g ~src:(G.out_port parity 0) ~dst:(G.in_port m 0);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port m 1);
  G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port m 2);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 0);
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port a 1);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port y 0);
  g

let int_stream n = List.init n (fun t -> [ ("x", D.int (3 * t - 7)) ])

let run_strategy ?strategy g stream =
  let sim = Asr.Simulate.create ?strategy g in
  List.map (Asr.Simulate.step sim) stream

let check_differential name g stream =
  let chaotic = run_strategy ~strategy:Fx.Chaotic g stream in
  let fused = run_strategy ~strategy:Fx.Fused g stream in
  Alcotest.(check bool) name true (chaotic = fused)

(* ---- supervised runners ------------------------------------------ *)

type 'a outcome = Finished of 'a * int | Fatal_at of int * int

let run_injected ~strategy ~policy specs g stream =
  let inj = I.make specs in
  let gi = I.instrument inj g in
  let sup = S.create ~policy () in
  let sim = Asr.Simulate.create ~strategy ~supervisor:sup gi in
  match
    List.map
      (fun inputs ->
        let out = Asr.Simulate.step sim inputs in
        I.tick inj;
        out)
      stream
  with
  | trace -> Finished (trace, List.length (S.faults sup))
  | exception S.Fatal f -> Fatal_at (f.S.f_instant, f.S.f_block)

(* ---- kernel containment ------------------------------------------ *)

(* Kernel blocks that trap for real, no injector: an int division (an
   [IMap2] whose int and data functions both raise [Division_by_zero])
   feeding a mux whose select is an input that is sometimes not a
   boolean, plus Netgen's {mux, add} component so a step budget trips
   inside a cyclic fallback. Under a probe, Fused runs these as kernel
   steps in place while Scheduled applies whole blocks. *)
let trap_graph () =
  let g = G.create "kernel-traps" in
  let x = G.add_input g "x" and y = G.add_input g "y" in
  let s = G.add_input g "s" in
  let div =
    G.add_block g
      (B.imap2 ~name:"div" (fun a b -> a / b) (fun a b ->
           match (a, b) with
           | Dt.Int a, Dt.Int b -> Dt.Int (a / b)
           | _ -> invalid_arg "div: non-int operand"))
  in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port div 0);
  G.connect g ~src:(G.out_port y 0) ~dst:(G.in_port div 1);
  let sel = G.add_block g B.mux in
  G.connect g ~src:(G.out_port s 0) ~dst:(G.in_port sel 0);
  G.connect g ~src:(G.out_port div 0) ~dst:(G.in_port sel 1);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port sel 2);
  let neg = G.add_block g B.neg in
  G.connect g ~src:(G.out_port sel 0) ~dst:(G.in_port neg 0);
  let parity =
    G.add_block g
      (B.map1 ~name:"parity" (function
        | Dt.Int v -> Dt.Bool (v mod 2 = 0)
        | _ -> Dt.Bool false))
  in
  G.connect g ~src:(G.out_port neg 0) ~dst:(G.in_port parity 0);
  let m = G.add_block g B.mux and a = G.add_block g B.add in
  G.connect g ~src:(G.out_port parity 0) ~dst:(G.in_port m 0);
  G.connect g ~src:(G.out_port div 0) ~dst:(G.in_port m 1);
  G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port m 2);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 0);
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port a 1);
  List.iter
    (fun (label, src) ->
      let o = G.add_output g label in
      G.connect g ~src ~dst:(G.in_port o 0))
    [ ("q", G.out_port div 0); ("n", G.out_port neg 0); ("m", G.out_port m 0) ];
  g

let trap_stream =
  QCheck.(
    list_of_size Gen.(int_range 1 12)
      (triple (int_range (-9) 9) (int_range (-1) 2) (int_bound 3)))

let trap_inputs (x, y, s) =
  [ ("x", D.int x); ("y", D.int y);
    ( "s",
      match s with
      | 0 -> D.def (Dt.Bool true)
      | 1 -> D.def (Dt.Bool false)
      | 2 -> D.int s
      | _ -> D.Bottom ) ]

(* Everything a supervised, traced run exposes: outputs per instant,
   the fatal fault if any, the fault log, the quarantine set, every
   causal event and the slice of every output at every instant. *)
let run_traps ~strategy ~policy ~step_budget stream =
  let g = trap_graph () in
  let compiled = G.compile g in
  let sup = S.create ~policy ~escalate_after:2 ?step_budget () in
  let cz =
    Telemetry.Causal.create ~capacity:1024 ~n_nets:compiled.G.n_nets ()
  in
  let sim = Asr.Simulate.create ~strategy ~supervisor:sup ~causal:cz g in
  let outs = ref [] in
  let fatal =
    let step i = outs := Asr.Simulate.step sim (trap_inputs i) :: !outs in
    match List.iter step stream with
    | () -> None
    | exception S.Fatal f -> Some f
  in
  let slices =
    List.concat_map
      (fun (_, net) ->
        List.init (List.length !outs) (fun instant ->
            Telemetry.Causal.slice cz ~net ~instant))
      (Array.to_list compiled.G.c_outputs)
  in
  ( List.rev !outs, fatal, S.faults sup, S.quarantined_blocks sup,
    Telemetry.Causal.events cz, slices )

(* ---- allocation gate --------------------------------------------- *)

(* Minor-heap words per instant of [sim] over [stream], after a warm-up
   that sizes every lazily grown buffer (causal arenas and scratch).
   Allocation counts are deterministic, so this gates the
   allocation-free probe without timing noise. *)
let minor_words_per_instant sim stream =
  let step () = List.iter (fun i -> ignore (Asr.Simulate.step sim i)) stream in
  step ();
  let before = Gc.minor_words () in
  step ();
  (Gc.minor_words () -. before) /. float_of_int (List.length stream)

(* Words promoted to the major heap per instant of a Fused evaluation of
   [g] under [probe] over [stream], after a warm-up run. A value
   written into a long-lived array (a ring arena, a supervisor
   register, the net slots) is promoted if it is still reachable there
   at the next minor collection. The minor heap is sized to the net as
   the default one is to the 10^4-block net of netgen-observed (about
   eight times the words of one instant's net values), so collections
   fall every few instants here as they fall within instants there; at
   the default size a small net collects once in hundreds of instants
   and the counter-only run reads near zero. *)
let promoted_per_instant probe g stream =
  let c = G.compile g in
  let plan = Fx.prepare Fx.Fused c in
  let delays = Array.map (fun (_, _, init) -> init) c.G.c_delays in
  let run () =
    List.iter
      (fun inputs ->
        let r = Fx.eval plan ~inputs ~delay_values:delays ~probe () in
        Fx.delay_next_into c r delays)
      stream
  in
  let gc = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  Gc.set { gc with Gc.minor_heap_size = 2048 };
  run ();
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  run ();
  let _, after, _ = Gc.counters () in
  (after -. before) /. float_of_int (List.length stream)

(* ---- suite ------------------------------------------------------- *)

let suite =
  [ case "fused = chaotic on the FIR tap line (alias + copyback)" (fun () ->
        check_differential "fir" (fir_graph 6) (int_stream 12));
    case "fused = chaotic when a mux reads fork ports (residual stores)"
      (fun () -> check_differential "mux-fork" (mux_fork_graph ()) (int_stream 10));
    case "fused = chaotic through the cyclic SCC fallback" (fun () ->
        check_differential "cyclic" (cyclic_graph ()) (int_stream 10);
        let plan = F.compile (G.compile (cyclic_graph ())) in
        Alcotest.(check int) "SCC blocks" 2 plan.F.f_n_cyclic);
    case "fused = chaotic on non-int data (int-lane fallback)" (fun () ->
        let g = G.create "real-chain" in
        let x = G.add_input g "x" in
        let gn = G.add_block g (B.gain 2) in
        let ng = G.add_block g B.neg in
        let a = G.add_block g B.add in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port gn 0);
        G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port ng 0);
        G.connect g ~src:(G.out_port ng 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 1);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port y 0);
        let stream =
          List.init 8 (fun t ->
              [ ( "x",
                  if t mod 2 = 0 then D.int t
                  else D.def (Dt.Real (0.5 +. float_of_int t)) ) ])
        in
        check_differential "real" g stream);
    case "constant folding: template, stats and constant_nets" (fun () ->
        let g = G.create "fold" in
        let c = G.add_block g (B.const ~name:"k5" (Dt.Int 5)) in
        let gn = G.add_block g (B.gain 3) in
        G.connect g ~src:(G.out_port c 0) ~dst:(G.in_port gn 0);
        let x = G.add_input g "x" in
        let a = G.add_block g B.add in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port a 1);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port y 0);
        let plan = F.compile (G.compile g) in
        Alcotest.(check int) "folded" 2 plan.F.f_n_folded;
        Alcotest.(check bool) "constant 15 visible" true
          (List.exists (fun (_, v) -> v = D.int 15) (F.constant_nets plan));
        Alcotest.(check bool) "describe mentions folding" true
          (contains ~substring:"2 folded" (F.describe plan));
        let outs = run_strategy ~strategy:Fx.Fused g (int_stream 5) in
        Alcotest.(check bool) "y = x + 15" true
          (List.for_all2
             (fun t out -> out = [ ("y", D.int ((3 * t - 7) + 15)) ])
             (List.init 5 Fun.id) outs));
    case "a fold that would trap is declined, then contained at run time"
      (fun () ->
        let g = G.create "declined" in
        let c = G.add_block g (B.const ~name:"kt" (Dt.Bool true)) in
        let gn = G.add_block g (B.gain 2) in
        G.connect g ~src:(G.out_port c 0) ~dst:(G.in_port gn 0);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port y 0);
        let plan = F.compile (G.compile g) in
        Alcotest.(check int) "only the const folds" 1 plan.F.f_n_folded;
        let sup = S.create ~policy:S.Absent () in
        let sim = Asr.Simulate.create ~strategy:Fx.Fused ~supervisor:sup g in
        let out = Asr.Simulate.step sim [] in
        Alcotest.(check bool) "absent output" true (out = [ ("y", D.Bottom) ]);
        Alcotest.(check bool) "fault contained" true (S.faults sup <> []));
    case "eval counters agree between fused and scheduled" (fun () ->
        let c = G.compile (fir_graph 5) in
        let delays = Array.map (fun (_, _, init) -> init) c.G.c_delays in
        let inputs = [ ("x", D.int 9) ] in
        let count strategy =
          let counts = Array.make (Array.length c.G.c_blocks) 0 in
          let r =
            Fx.eval (Fx.prepare strategy c) ~inputs ~delay_values:delays
              ~probe:(Asr.Probe.counter counts) ()
          in
          (counts, r.Fx.block_evaluations)
        in
        let fused, fused_total = count Fx.Fused in
        let sched, _ = count Fx.Scheduled in
        Alcotest.(check bool) "per-block counts equal" true (fused = sched);
        let fast =
          Fx.eval (Fx.prepare Fx.Fused c) ~inputs ~delay_values:delays ()
        in
        Alcotest.(check int) "fast lane accounts the same evaluations"
          fused_total fast.Fx.block_evaluations);
    case "Simulate exposes the plan only under the fused strategy" (fun () ->
        let fused = Asr.Simulate.create ~strategy:Fx.Fused (fir_graph 3) in
        let sched = Asr.Simulate.create ~strategy:Fx.Scheduled (fir_graph 3) in
        Alcotest.(check bool) "some plan" true
          (Asr.Simulate.fuse_plan fused <> None);
        Alcotest.(check bool) "no plan" true
          (Asr.Simulate.fuse_plan sched = None));
    case "strategy name round-trips through of_string" (fun () ->
        Alcotest.(check bool) "fused" true
          (Fx.strategy_of_string (Fx.strategy_name Fx.Fused) = Some Fx.Fused));
    case "netgen workloads: fused = chaotic, evals no worse than scheduled"
      (fun () ->
        List.iter
          (fun seed ->
            let g =
              Workloads.Netgen.generate ~inputs:2 ~delays:3 ~cyclic_ratio:0.1
                ~seed ~depth:6 ~width:8 ()
            in
            let stream = Workloads.Netgen.stimulus g ~instants:10 in
            let run strategy =
              let sim = Asr.Simulate.create ~strategy g in
              let trace = List.map (Asr.Simulate.step sim) stream in
              (trace, Asr.Simulate.block_evaluations sim)
            in
            let chaotic, _ = run Fx.Chaotic in
            let fused, fused_evals = run Fx.Fused in
            let _, sched_evals = run Fx.Scheduled in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d equal" seed)
              true (chaotic = fused);
            Alcotest.(check bool)
              (Printf.sprintf "seed %d evals" seed)
              true
              (fused_evals <= sched_evals))
          [ 1; 7; 42 ]);
    case "imap kernels agree with their data functions on ints" (fun () ->
        List.iter
          (fun b ->
            match b.B.kernel with
            | B.IMap2 (fi, f) ->
                List.iter
                  (fun (x, y) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %d %d" b.B.name x y)
                      true
                      (f (Dt.Int x) (Dt.Int y) = Dt.Int (fi x y)))
                  [ (0, 0); (3, -4); (-17, 5); (1000, 999) ]
            | B.IMap1 (fi, f) ->
                List.iter
                  (fun x ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %d" b.B.name x)
                      true
                      (f (Dt.Int x) = Dt.Int (fi x)))
                  [ 0; 3; -17; 1000 ]
            | _ -> Alcotest.failf "%s lost its int specialization" b.B.name)
          [ B.add; B.sub; B.mul; B.gain 5; B.neg ]);
    case "first-divergence localizer pinpoints a broken fused plan" (fun () ->
        (* Failing-first demo: corrupt one mid-net block by +1 on every
           int output, then let the localizer find it. The divergence
           must name exactly the corrupted block at the first instant it
           reacts — not some downstream net that also changed. *)
        let g =
          Workloads.Netgen.generate ~inputs:3 ~delays:2 ~seed:77 ~depth:4
            ~width:5 ()
        in
        let stream = Workloads.Netgen.stimulus g ~instants:6 in
        let target = 5 in
        let broken =
          G.map_blocks g (fun i b ->
              if i <> target then b
              else
                B.make ~name:b.B.name ~n_in:b.B.n_in ~n_out:b.B.n_out
                  (fun ins ->
                    Array.map
                      (function
                        | D.Def (Dt.Int v) -> D.int (v + 1)
                        | v -> v)
                      (b.B.fn ins)))
        in
        let a = Asr.Checkpoint.record ~strategy:Fx.Fused g stream in
        let b = Asr.Checkpoint.record ~strategy:Fx.Fused broken stream in
        match Asr.Checkpoint.first_divergence a b with
        | None -> Alcotest.fail "corrupted plan should diverge"
        | Some d ->
            Alcotest.(check int) "localized block" target d.Asr.Checkpoint.d_block;
            Alcotest.(check int) "first reacting instant" 0
              d.Asr.Checkpoint.d_instant;
            Alcotest.(check bool) "slices attached" true
              (d.Asr.Checkpoint.d_slice_a <> None && d.Asr.Checkpoint.d_slice_b <> None));
    qcase ~count:150 "random systems: fused = chaotic" R.arbitrary_spec
      (fun spec ->
        let stream = R.stimuli spec in
        let chaotic = R.run_graph (R.build spec) stream in
        let sim = Asr.Simulate.create ~strategy:Fx.Fused (R.build spec) in
        let fused = List.map (Asr.Simulate.step sim) stream in
        chaotic = fused
        ||
        (* localize the earliest divergent (instant, block, net) so the
           counterexample names the culprit, not just the seed *)
        let a = Asr.Checkpoint.record ~strategy:Fx.Chaotic (R.build spec) stream in
        let b = Asr.Checkpoint.record ~strategy:Fx.Fused (R.build spec) stream in
        match Asr.Checkpoint.first_divergence a b with
        | Some d ->
            QCheck.Test.fail_reportf "chaotic vs fused: %s"
              (Asr.Checkpoint.divergence_to_string d)
        | None ->
            QCheck.Test.fail_reportf
              "chaotic vs fused: runs differ but recorded fixed points agree");
    qcase ~count:50
      "random systems: supervised fused = supervised chaotic under faults"
      R.arbitrary_spec
      (fun spec ->
        let g () = R.build spec in
        let stream = R.stimuli spec in
        let specs =
          I.plan ~seed:spec.R.sp_seed ~n_blocks:(G.block_count (g ()))
            ~instants:(max 1 (List.length stream))
            ~n_faults:2 ()
        in
        let contained =
          List.for_all
            (fun policy ->
              run_injected ~strategy:Fx.Chaotic ~policy specs (g ()) stream
              = run_injected ~strategy:Fx.Fused ~policy specs (g ()) stream)
            [ S.Hold_last; S.Absent; S.Retry 1 ]
        in
        (* Fail_fast aborts on the first faulty application, and with two
           faulty blocks in one instant "first" depends on evaluation
           order: the fatal instant is strategy-independent, the block
           identity is only pinned by a fixed order (the schedule, which
           the fused plan follows). *)
        let fatal =
          match
            ( run_injected ~strategy:Fx.Chaotic ~policy:S.Fail_fast specs
                (g ()) stream,
              run_injected ~strategy:Fx.Scheduled ~policy:S.Fail_fast specs
                (g ()) stream,
              run_injected ~strategy:Fx.Fused ~policy:S.Fail_fast specs (g ())
                stream )
          with
          | Fatal_at (ic, _), (Fatal_at (is, _) as s), (Fatal_at (i, _) as f)
            ->
              ic = i && s = f && is = i
          | (Finished _ as c), s, f -> c = s && s = f
          | _ -> false
        in
        contained && fatal);
    qcase ~count:50
      "random systems: first-application glitches, fused = scheduled"
      R.arbitrary_spec
      (fun spec ->
        (* first_only faults are sensitive to the number of applications
           per instant, so the oracle is the static schedule (also one
           application per acyclic block) rather than chaotic *)
        let g () = R.build spec in
        let stream = R.stimuli spec in
        let specs =
          I.plan ~seed:(spec.R.sp_seed + 1) ~n_blocks:(G.block_count (g ()))
            ~instants:(max 1 (List.length stream))
            ~n_faults:2 ~first_only:true ()
        in
        List.for_all
          (fun policy ->
            run_injected ~strategy:Fx.Scheduled ~policy specs (g ()) stream
            = run_injected ~strategy:Fx.Fused ~policy specs (g ()) stream)
          [ S.Hold_last; S.Retry 2 ]);
    qcase ~count:60 "kernel traps: probed fused = scheduled under every policy"
      trap_stream (fun stream ->
        List.for_all
          (fun (policy, step_budget) ->
            run_traps ~strategy:Fx.Fused ~policy ~step_budget stream
            = run_traps ~strategy:Fx.Scheduled ~policy ~step_budget stream)
          [ (S.Fail_fast, None); (S.Hold_last, None); (S.Absent, None);
            (S.Retry 1, None); (S.Retry 3, None); (S.Hold_last, Some 1);
            (S.Absent, Some 2); (S.Retry 2, Some 1) ]);
    case "allocation gate: supervised + traced fused stays near the fast lane"
      (fun () ->
        let g =
          Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
            ~seed:1003 ~depth:40 ~width:25 ()
        in
        let stream = Workloads.Netgen.stimulus g ~instants:40 in
        let n_nets = (G.compile g).G.n_nets in
        let bare =
          minor_words_per_instant
            (Asr.Simulate.create ~strategy:Fx.Fused g)
            stream
        in
        let probed =
          minor_words_per_instant
            (Asr.Simulate.create ~strategy:Fx.Fused
               ~supervisor:(S.create ~policy:S.Hold_last ())
               ~causal:(Telemetry.Causal.create ~n_nets ())
               g)
            stream
        in
        if probed > 1.5 *. bare then
          Alcotest.failf
            "probed run allocates %.0f minor words per instant, more than \
             1.5x the fast lane's %.0f"
            probed bare);
    case "promotion gate: supervisor + causal ring promote like a counter"
      (fun () ->
        (* the netgen-observed net at its smoke size *)
        let g =
          Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
            ~seed:10_271 ~depth:6 ~width:8 ()
        in
        let stream = Workloads.Netgen.stimulus g ~instants:2000 in
        let c = G.compile g in
        (* before the int lanes, every value the ring and the supervisor
           stored was promoted: ~9.6x; now ~1.2x, the rest being the
           parity blocks' booleans, which the ring keeps as values *)
        let counted =
          promoted_per_instant
            (Asr.Probe.counter (Array.make (Array.length c.G.c_blocks) 0))
            g stream
        in
        let observed =
          promoted_per_instant
            (Option.get
               (Asr.Probe.compose
                  [ S.probe (S.create ~policy:S.Hold_last ());
                    Asr.Probe.causal
                      (Telemetry.Causal.create ~n_nets:c.G.n_nets ()) ]))
            g stream
        in
        if observed > 2. *. counted then
          Alcotest.failf
            "supervised + causal run promotes %.1f words per instant, more \
             than 2x the counter-only run's %.1f"
            observed counted);
    case "instant-only attachments keep the fast lane" (fun () ->
        (* Wrap every op of both lanes of a simulator's plan with a tally;
           which lane ran is then visible without timing. *)
        let lanes sim =
          let plan = Option.get (Asr.Simulate.fuse_plan sim) in
          let fast = ref 0 and probed = ref 0 in
          let tally n step nets =
            incr n;
            step nets
          in
          Array.iteri
            (fun k -> function
              | F.Frun run -> plan.F.f_fast.(k) <- F.Frun (tally fast run)
              | F.Fiter _ -> ())
            plan.F.f_fast;
          Array.iteri
            (fun k -> function
              | F.Step (bi, step) ->
                  plan.F.f_ops.(k) <- F.Step (bi, tally probed step)
              | F.Generic (bi, step) ->
                  plan.F.f_ops.(k) <- F.Generic (bi, tally probed step)
              | F.Iterate _ -> ())
            plan.F.f_ops;
          List.iter (fun i -> ignore (Asr.Simulate.step sim i)) (int_stream 6);
          (!fast > 0, !probed > 0)
        in
        let fused ?telemetry ?monitor ?supervisor () =
          Asr.Simulate.create ~strategy:Fx.Fused ?telemetry ?monitor ?supervisor
            (fir_graph 4)
        in
        let check name expected sim =
          Alcotest.(check (pair bool bool)) name expected (lanes sim)
        in
        check "bare" (true, false) (fused ());
        check "monitor only" (true, false)
          (fused ~monitor:(Telemetry.Monitor.create ()) ());
        check "registry" (false, true)
          (fused ~telemetry:(Telemetry.Registry.create ()) ());
        check "supervisor" (false, true)
          (fused ~supervisor:(S.create ()) ()));
    case "kernel traps are contained as kernel steps, not whole blocks"
      (fun () ->
        let plan = F.compile (G.compile (trap_graph ())) in
        Alcotest.(check bool) "div and select are kernel steps" true
          (Array.exists
             (function F.Step (bi, _) -> bi = 0 | _ -> false)
             plan.F.f_ops);
        let stream = [ (4, 0, 0); (3, 1, 2); (5, 2, 1); (6, 1, 0) ] in
        let outs, fatal, faults, _, _, _ =
          run_traps ~strategy:Fx.Fused ~policy:S.Hold_last ~step_budget:None
            stream
        in
        Alcotest.(check bool) "no abort" true (fatal = None);
        Alcotest.(check (list string)) "classified traps"
          [ "division by zero"; "invalid argument: mux: non-boolean select 2" ]
          (List.map (fun f -> f.S.f_detail) faults);
        Alcotest.(check int) "instants" 4 (List.length outs)) ]
