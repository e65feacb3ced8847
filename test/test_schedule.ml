open Util
module D = Asr.Domain
module G = Asr.Graph
module B = Asr.Block
module F = Asr.Fixpoint
module S = Asr.Schedule

let domain = Alcotest.testable (fun ppf v -> Fmt.string ppf (D.to_string v)) D.equal

let strategies = [ F.Chaotic; F.Scheduled; F.Worklist ]

(* Chain of [n] unary gains declared output-first (the block created
   first is the one feeding the output), so declaration order is the
   exact reverse of dependency order. *)
let reversed_chain n =
  let g = G.create "chain" in
  let blocks = Array.init n (fun _ -> G.add_block g (B.gain 1)) in
  let input = G.add_input g "x" in
  let output = G.add_output g "y" in
  G.connect g ~src:(G.out_port input 0) ~dst:(G.in_port blocks.(n - 1) 0);
  for i = n - 1 downto 1 do
    G.connect g ~src:(G.out_port blocks.(i) 0) ~dst:(G.in_port blocks.(i - 1) 0)
  done;
  G.connect g ~src:(G.out_port blocks.(0) 0) ~dst:(G.in_port output 0);
  g

(* y = mux(sel, 5, y): constructive delay-free cycle (test_asr's
   muxloop). Blocks: five=0, mux=1, fork=2. *)
let mux_cycle () =
  let g = G.create "muxloop" in
  let sel = G.add_input g "sel" in
  let five = G.add_block g (B.const ~name:"five" (Asr.Data.Int 5)) in
  let mux = G.add_block g B.mux in
  let fork = G.add_block g (B.fork 2) in
  let o = G.add_output g "y" in
  G.connect g ~src:(G.out_port sel 0) ~dst:(G.in_port mux 0);
  G.connect g ~src:(G.out_port five 0) ~dst:(G.in_port mux 1);
  G.connect g ~src:(G.out_port mux 0) ~dst:(G.in_port fork 0);
  G.connect g ~src:(G.out_port fork 0) ~dst:(G.in_port mux 2);
  G.connect g ~src:(G.out_port fork 1) ~dst:(G.in_port o 0);
  g

(* Outputs 1 on ⊥, 2 on any defined input: retracts once its input
   becomes defined. *)
let evil_block () =
  B.make ~name:"evil" ~n_in:1 ~n_out:1 (fun inputs ->
      match inputs.(0) with
      | D.Bottom -> [| D.int 1 |]
      | D.Def _ -> [| D.int 2 |])

(* Drive a compiled system through [stream] under one strategy at the
   Fixpoint level, recording full net vectors and outputs per instant. *)
let run_fix compiled ?order ~strategy stream =
  let plan = F.prepare ?order strategy compiled in
  let delays =
    ref (Array.map (fun (_, _, init) -> init) compiled.G.c_delays)
  in
  List.map
    (fun inputs ->
      let r = F.eval plan ~inputs ~delay_values:!delays () in
      delays := F.delay_next compiled r;
      (Array.to_list r.F.nets, F.outputs compiled r))
    stream

let shuffled_order ~seed n =
  let rng = Random.State.make [| seed |] in
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

let suite =
  [ (* Tarjan / schedule structure *)
    case "reversed chain: all acyclic, schedule is topological" (fun () ->
        let n = 10 in
        let compiled = G.compile (reversed_chain n) in
        let s = S.of_compiled compiled in
        Alcotest.(check bool) "feed-forward" true (S.is_feed_forward s);
        Alcotest.(check int) "no cyclic blocks" 0 (S.cyclic_block_count s);
        List.iter
          (function
            | S.Acyclic _ -> ()
            | S.Cyclic _ -> Alcotest.fail "unexpected cyclic group")
          (S.groups s);
        (* dependency order is block n-1, n-2, ..., 0 *)
        Alcotest.(check (list int)) "topological order"
          (List.init n (fun i -> n - 1 - i))
          (Array.to_list (S.linear_order s)));
    case "two-block cycle is one cyclic SCC" (fun () ->
        let g = G.create "tight" in
        let a = G.add_block g B.identity in
        let b = G.add_block g B.identity in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port b 0);
        G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port a 0);
        let s = S.of_compiled (G.compile g) in
        Alcotest.(check bool) "not feed-forward" false (S.is_feed_forward s);
        Alcotest.(check int) "two cyclic blocks" 2 (S.cyclic_block_count s);
        match S.groups s with
        | [ S.Cyclic members ] ->
            Alcotest.(check (list int)) "members" [ 0; 1 ]
              (Array.to_list members)
        | _ -> Alcotest.fail "expected exactly one cyclic group");
    case "self-loop is a cyclic singleton" (fun () ->
        let g = G.create "self" in
        let a = G.add_block g B.identity in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port a 0);
        match S.groups (S.of_compiled (G.compile g)) with
        | [ S.Cyclic [| 0 |] ] -> ()
        | _ -> Alcotest.fail "expected one cyclic singleton");
    case "SCCs come out in condensation topological order" (fun () ->
        (* a<->b then b -> c<->d: component {a,b} must precede {c,d} *)
        let g = G.create "two-sccs" in
        let a = G.add_block g (B.fork 2) in
        let b = G.add_block g B.identity in
        let c = G.add_block g B.add in
        let d = G.add_block g B.identity in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port b 0);
        G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port a 1) ~dst:(G.in_port c 0);
        G.connect g ~src:(G.out_port c 0) ~dst:(G.in_port d 0);
        G.connect g ~src:(G.out_port d 0) ~dst:(G.in_port c 1);
        let compiled = G.compile g in
        Alcotest.(check (list (list int))) "ordered components"
          [ [ 0; 1 ]; [ 2; 3 ] ]
          (List.map (List.sort compare) (S.sccs compiled)));
    (* strategy semantics *)
    case "mux cycle converges to 5 under every strategy" (fun () ->
        let compiled = G.compile (mux_cycle ()) in
        List.iter
          (fun strategy ->
            let r =
              F.eval (F.prepare strategy compiled)
                ~inputs:[ ("sel", D.bool true) ]
                ~delay_values:[||] ()
            in
            match F.outputs compiled r with
            | [ ("y", v) ] ->
                Alcotest.check domain
                  (F.strategy_name strategy ^ " value") (D.int 5) v
            | _ -> Alcotest.fail "one output expected")
          strategies);
    case "cyclic SCC iteration stays within the monotone bound" (fun () ->
        (* SCC {mux, fork} writes 3 nets; bound is 3 + 2 rounds *)
        let compiled = G.compile (mux_cycle ()) in
        let r =
          F.eval (F.prepare F.Scheduled compiled)
            ~inputs:[ ("sel", D.bool true) ]
            ~delay_values:[||] ()
        in
        Alcotest.(check bool) "within bound" true (r.F.iterations <= 5);
        Alcotest.(check bool) "needed inner iteration" true (r.F.iterations >= 2));
    case "cyclic retraction raises Nonmonotonic under every strategy" (fun () ->
        let build () =
          let g = G.create "evil-cycle" in
          let e = G.add_block g (evil_block ()) in
          let fork = G.add_block g (B.fork 2) in
          let o = G.add_output g "y" in
          G.connect g ~src:(G.out_port e 0) ~dst:(G.in_port fork 0);
          G.connect g ~src:(G.out_port fork 0) ~dst:(G.in_port e 0);
          G.connect g ~src:(G.out_port fork 1) ~dst:(G.in_port o 0);
          G.compile g
        in
        List.iter
          (fun strategy ->
            Alcotest.(check bool)
              (F.strategy_name strategy ^ " raises")
              true
              (try
                 ignore
                   (F.eval (F.prepare strategy (build ())) ~inputs:[]
                      ~delay_values:[||] ());
                 false
               with F.Nonmonotonic _ -> true))
          strategies);
    case "feed-forward retraction: chaotic raises, the others take final inputs"
      (fun () ->
        (* evil declared before its producer, as in test_asr *)
        let build () =
          let g = G.create "evil" in
          let e = G.add_block g (evil_block ()) in
          let gain = G.add_block g (B.gain 1) in
          let i = G.add_input g "x" in
          let o = G.add_output g "y" in
          G.connect g ~src:(G.out_port i 0) ~dst:(G.in_port gain 0);
          G.connect g ~src:(G.out_port gain 0) ~dst:(G.in_port e 0);
          G.connect g ~src:(G.out_port e 0) ~dst:(G.in_port o 0);
          G.compile g
        in
        let eval strategy =
          F.eval (F.prepare strategy (build ()))
            ~inputs:[ ("x", D.int 1) ]
            ~delay_values:[||] ()
        in
        Alcotest.(check bool) "chaotic raises" true
          (try
             ignore (eval F.Chaotic);
             false
           with F.Nonmonotonic _ -> true);
        (* the schedule-order seed applies an acyclic block once, after
           its producer, so Worklist shares the evaluate-once semantics
           of Scheduled and Fused *)
        List.iter
          (fun strategy ->
            match F.outputs (build ()) (eval strategy) with
            | [ ("y", v) ] ->
                Alcotest.check domain
                  (F.strategy_name strategy ^ ": value at final inputs")
                  (D.int 2) v
            | _ -> Alcotest.fail "one output expected")
          [ F.Scheduled; F.Worklist; F.Fused ]);
    case "strict delay-free cycle stays bottom under every strategy" (fun () ->
        let g = G.create "loop" in
        let a = G.add_block g B.add in
        let fork = G.add_block g (B.fork 2) in
        let i = G.add_input g "x" in
        let o = G.add_output g "y" in
        G.connect g ~src:(G.out_port i 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port fork 0);
        G.connect g ~src:(G.out_port fork 0) ~dst:(G.in_port a 1);
        G.connect g ~src:(G.out_port fork 1) ~dst:(G.in_port o 0);
        let compiled = G.compile g in
        List.iter
          (fun strategy ->
            let r =
              F.eval (F.prepare strategy compiled)
                ~inputs:[ ("x", D.int 1) ]
                ~delay_values:[||] ()
            in
            match F.outputs compiled r with
            | [ ("y", v) ] ->
                Alcotest.check domain (F.strategy_name strategy) D.Bottom v
            | _ -> Alcotest.fail "one output expected")
          strategies);
    case "explicit order is rejected under non-chaotic strategies" (fun () ->
        let compiled = G.compile (reversed_chain 3) in
        List.iter
          (fun strategy ->
            Alcotest.(check bool)
              (F.strategy_name strategy ^ " rejects order")
              true
              (try
                 ignore (F.prepare ~order:[| 0; 1; 2 |] strategy compiled);
                 false
               with Invalid_argument _ -> true))
          [ F.Scheduled; F.Worklist ];
        Alcotest.(check bool) "Simulate.create rejects the combination" true
          (try
             ignore
               (Asr.Simulate.create ~order:[| 0; 1; 2 |]
                  ~strategy:F.Scheduled (reversed_chain 3));
             false
           with Invalid_argument _ -> true));
    (* evaluation-count accounting *)
    case "schedule and worklist evaluate acyclic blocks exactly once" (fun () ->
        let n = 30 and instants = 5 in
        let drive strategy =
          let sim = Asr.Simulate.create ~strategy (reversed_chain n) in
          let outs =
            List.init instants (fun t ->
                Asr.Simulate.step sim [ ("x", D.int t) ])
          in
          (outs, Asr.Simulate.block_evaluations sim)
        in
        let chaotic_outs, chaotic_evals = drive F.Chaotic in
        let scheduled_outs, scheduled_evals = drive F.Scheduled in
        let worklist_outs, worklist_evals = drive F.Worklist in
        Alcotest.(check bool) "same outputs" true
          (chaotic_outs = scheduled_outs && chaotic_outs = worklist_outs);
        Alcotest.(check int) "scheduled: n per instant" (n * instants)
          scheduled_evals;
        Alcotest.(check int) "worklist: n per instant" (n * instants)
          worklist_evals;
        Alcotest.(check bool) "chaotic pays >= 5x on the reversed chain" true
          (chaotic_evals >= 5 * scheduled_evals));
    case "simulate exposes its schedule and strategy" (fun () ->
        let sim = Asr.Simulate.create (reversed_chain 4) in
        Alcotest.(check bool) "worklist default" true
          (Asr.Simulate.strategy sim = F.Worklist);
        Alcotest.(check int) "schedule covers all blocks" 4
          (S.block_count (Asr.Simulate.schedule sim));
        ignore (Asr.Simulate.step sim [ ("x", D.int 1) ]);
        Alcotest.(check bool) "evaluations counted" true
          (Asr.Simulate.block_evaluations sim > 0);
        Asr.Simulate.reset sim;
        Alcotest.(check int) "reset clears the counter" 0
          (Asr.Simulate.block_evaluations sim));
    (* differential properties on random well-formed systems *)
    qcase ~count:120 "random systems: scheduled/worklist nets match chaotic"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let g = Test_random_graphs.build spec in
        let compiled = G.compile g in
        let stream = Test_random_graphs.stimuli spec in
        let reference = run_fix compiled ~strategy:F.Chaotic stream in
        let shuffled =
          let n = Array.length compiled.G.c_blocks in
          run_fix compiled
            ~order:(shuffled_order ~seed:spec.Test_random_graphs.sp_seed n)
            ~strategy:F.Chaotic stream
        in
        (* On mismatch, re-run through the causal tracer and report the
           earliest divergent (instant, block, net) instead of a bare
           false — the counterexample then names the culprit block. *)
        let against strategy =
          reference = run_fix compiled ~strategy stream
          ||
          let a =
            Asr.Checkpoint.record ~strategy:F.Chaotic
              (Test_random_graphs.build spec)
              stream
          in
          let b =
            Asr.Checkpoint.record ~strategy (Test_random_graphs.build spec) stream
          in
          match Asr.Checkpoint.first_divergence a b with
          | Some d ->
              QCheck.Test.fail_reportf "chaotic vs %s: %s"
                (F.strategy_name strategy)
                (Asr.Checkpoint.divergence_to_string d)
          | None ->
              QCheck.Test.fail_reportf
                "chaotic vs %s: runs differ but recorded fixed points agree"
                (F.strategy_name strategy)
        in
        against F.Scheduled && against F.Worklist && reference = shuffled);
    qcase ~count:100 "random systems: schedule agrees with cycle detection"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let g = Test_random_graphs.build spec in
        let s = S.of_compiled (G.compile g) in
        G.has_causality_cycle g = not (S.is_feed_forward s)
        && S.block_count s = G.block_count g);
    qcase ~count:100 "random systems: worklist never exceeds chaotic evaluations"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        (* chaotic re-sweeps everything; the worklist (seeded in schedule
           order through Simulate) only re-evaluates on input changes *)
        let stream = Test_random_graphs.stimuli spec in
        let evals strategy =
          let sim =
            Asr.Simulate.create ~strategy (Test_random_graphs.build spec)
          in
          List.iter (fun i -> ignore (Asr.Simulate.step sim i)) stream;
          Asr.Simulate.block_evaluations sim
        in
        evals F.Worklist <= evals F.Chaotic) ]
