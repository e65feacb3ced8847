open Util
module D = Asr.Domain
module G = Asr.Graph
module B = Asr.Block

let domain = Alcotest.testable (fun ppf v -> Fmt.string ppf (D.to_string v)) D.equal

let gen_data =
  let open QCheck.Gen in
  oneof
    [ map (fun n -> Asr.Data.Int n) (int_range (-100) 100);
      map (fun f -> Asr.Data.Real (float_of_int f /. 4.0)) (int_range (-50) 50);
      map (fun b -> Asr.Data.Bool b) bool ]

let gen_domain =
  QCheck.Gen.(
    oneof [ return D.Bottom; map (fun v -> D.Def v) gen_data ])

let arb_domain = QCheck.make ~print:D.to_string gen_domain

(* The accumulator used across several tests. *)
let accumulator () =
  let g = G.create "acc" in
  let input = G.add_input g "x" in
  let adder = G.add_block g B.add in
  let fork = G.add_block g (B.fork 2) in
  let delay = G.add_delay g ~init:(D.int 0) in
  let output = G.add_output g "sum" in
  G.connect g ~src:(G.out_port input 0) ~dst:(G.in_port adder 0);
  G.connect g ~src:(G.out_port delay 0) ~dst:(G.in_port adder 1);
  G.connect g ~src:(G.out_port adder 0) ~dst:(G.in_port fork 0);
  G.connect g ~src:(G.out_port fork 0) ~dst:(G.in_port output 0);
  G.connect g ~src:(G.out_port fork 1) ~dst:(G.in_port delay 0);
  g

let run_ints g stream =
  let sim = Asr.Simulate.create g in
  List.map
    (fun x ->
      match Asr.Simulate.step sim [ ("x", D.int x) ] with
      | [ (_, v) ] -> v
      | _ -> Alcotest.fail "one output expected")
    stream

let suite =
  [ (* domain laws *)
    qcase "leq is reflexive" arb_domain (fun v -> D.leq v v);
    qcase "bottom below everything" arb_domain (fun v -> D.leq D.bottom v);
    qcase ~count:300 "leq antisymmetric"
      QCheck.(pair arb_domain arb_domain)
      (fun (a, b) -> (not (D.leq a b && D.leq b a)) || D.equal a b);
    qcase ~count:300 "lub upper bound or inconsistent"
      QCheck.(pair arb_domain arb_domain)
      (fun (a, b) ->
        match D.lub a b with
        | v -> D.leq a v && D.leq b v
        | exception D.Inconsistent _ -> D.is_def a && D.is_def b && not (D.equal a b));
    case "lub of equal values" (fun () ->
        Alcotest.check domain "same" (D.int 3) (D.lub (D.int 3) (D.int 3)));
    case "tuple equality deep" (fun () ->
        let t1 = Asr.Data.Tuple [ Asr.Data.Int 1; Asr.Data.Absent ] in
        let t2 = Asr.Data.Tuple [ Asr.Data.Int 1; Asr.Data.Absent ] in
        Alcotest.(check bool) "equal" true (Asr.Data.equal t1 t2));
    (* blocks *)
    case "strict block waits for all inputs" (fun () ->
        let out = B.apply B.add [| D.int 1; D.Bottom |] in
        Alcotest.check domain "bottom" D.Bottom out.(0));
    case "add works on mixed numerics" (fun () ->
        let out = B.apply B.add [| D.int 1; D.real 0.5 |] in
        Alcotest.check domain "1.5" (D.real 1.5) out.(0));
    case "mux selects without the other branch" (fun () ->
        let out = B.apply B.mux [| D.bool true; D.int 7; D.Bottom |] in
        Alcotest.check domain "7" (D.int 7) out.(0));
    case "mux undefined select is bottom" (fun () ->
        let out = B.apply B.mux [| D.Bottom; D.int 7; D.int 8 |] in
        Alcotest.check domain "bottom" D.Bottom out.(0));
    case "block arity mismatch rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (B.apply B.add [| D.int 1 |]);
             false
           with Invalid_argument _ -> true));
    qcase ~count:200 "stdcells monotone on comparable inputs"
      QCheck.(pair (pair arb_domain arb_domain) (pair arb_domain arb_domain))
      (fun ((a1, b1), (a2, b2)) ->
        (* lo = pointwise meet approximation: replace with Bottom where unequal *)
        let lo x y = if D.equal x y then x else D.Bottom in
        let lo1 = lo a1 a2 and lo2 = lo b1 b2 in
        List.for_all
          (fun block ->
            (try B.monotone_on block [| lo1; lo2 |] [| a1; b1 |]
             with Invalid_argument _ -> true)
            &&
            try B.monotone_on block [| lo1; lo2 |] [| a2; b2 |]
            with Invalid_argument _ -> true)
          [ B.add; B.sub; B.mul; B.mux |> fun _ -> B.add ]);
    (* graph validation *)
    case "double driving an input port is rejected" (fun () ->
        let g = G.create "bad" in
        let i1 = G.add_input g "a" in
        let i2 = G.add_input g "b" in
        let o = G.add_output g "o" in
        G.connect g ~src:(G.out_port i1 0) ~dst:(G.in_port o 0);
        Alcotest.(check bool) "raises" true
          (try
             G.connect g ~src:(G.out_port i2 0) ~dst:(G.in_port o 0);
             false
           with Invalid_argument _ -> true));
    case "unconnected input rejected at compile" (fun () ->
        let g = G.create "open" in
        let adder = G.add_block g B.add in
        let o = G.add_output g "o" in
        G.connect g ~src:(G.out_port adder 0) ~dst:(G.in_port o 0);
        Alcotest.(check bool) "raises" true
          (try
             ignore (G.compile g);
             false
           with Invalid_argument _ -> true));
    case "one compilation is shared until the graph is edited" (fun () ->
        let g = accumulator () in
        let c = G.compile g in
        Alcotest.(check bool) "compile again" true (G.compile g == c);
        let sim = Asr.Simulate.create g in
        Alcotest.(check bool) "the simulator's graph" true
          (Asr.Simulate.graph sim == c);
        ignore (G.add_input g "spare");
        let c' = G.compile g in
        Alcotest.(check bool) "recompiled after an edit" true (c' != c);
        Alcotest.(check int) "the new net" (c.G.n_nets + 1) c'.G.n_nets;
        let c'' = G.compile (G.map_blocks g (fun _ b -> b)) in
        Alcotest.(check bool) "a mapped graph compiles on its own" true
          (c'' != c'));
    case "bad port numbers rejected" (fun () ->
        let g = G.create "ports" in
        let i = G.add_input g "a" in
        let o = G.add_output g "o" in
        Alcotest.(check bool) "raises" true
          (try
             G.connect g ~src:(G.out_port i 1) ~dst:(G.in_port o 0);
             false
           with Invalid_argument _ -> true));
    case "causality cycle detection" (fun () ->
        let g = accumulator () in
        Alcotest.(check bool) "delay breaks the cycle" false
          (G.has_causality_cycle g);
        let g2 = G.create "tight" in
        let a = G.add_block g2 B.identity in
        let b = G.add_block g2 B.identity in
        G.connect g2 ~src:(G.out_port a 0) ~dst:(G.in_port b 0);
        G.connect g2 ~src:(G.out_port b 0) ~dst:(G.in_port a 0);
        Alcotest.(check bool) "block-only cycle" true (G.has_causality_cycle g2));
    (* fixpoint semantics *)
    case "accumulator integrates its input" (fun () ->
        let vs = run_ints (accumulator ()) [ 1; 2; 3; 4 ] in
        Alcotest.(check (list domain)) "sums"
          [ D.int 1; D.int 3; D.int 6; D.int 10 ]
          vs);
    case "delay initial value appears first" (fun () ->
        let g = G.create "d" in
        let i = G.add_input g "x" in
        let d = G.add_delay g ~init:(D.int 42) in
        let o = G.add_output g "y" in
        G.connect g ~src:(G.out_port i 0) ~dst:(G.in_port d 0);
        G.connect g ~src:(G.out_port d 0) ~dst:(G.in_port o 0);
        let vs = run_ints g [ 7; 8; 9 ] in
        Alcotest.(check (list domain)) "shifted"
          [ D.int 42; D.int 7; D.int 8 ]
          vs);
    case "absent input propagates bottom through strict blocks" (fun () ->
        let g = G.create "strict" in
        let i = G.add_input g "x" in
        let gain = G.add_block g (B.gain 3) in
        let o = G.add_output g "y" in
        G.connect g ~src:(G.out_port i 0) ~dst:(G.in_port gain 0);
        G.connect g ~src:(G.out_port gain 0) ~dst:(G.in_port o 0);
        let sim = Asr.Simulate.create g in
        (match Asr.Simulate.step sim [] with
        | [ (_, v) ] -> Alcotest.check domain "bottom" D.Bottom v
        | _ -> Alcotest.fail "one output");
        match Asr.Simulate.step sim [ ("x", D.int 2) ] with
        | [ (_, v) ] -> Alcotest.check domain "6" (D.int 6) v
        | _ -> Alcotest.fail "one output");
    case "delay-free cycle of strict blocks stays bottom" (fun () ->
        let g = G.create "loop" in
        let a = G.add_block g B.add in
        let fork = G.add_block g (B.fork 2) in
        let i = G.add_input g "x" in
        let o = G.add_output g "y" in
        G.connect g ~src:(G.out_port i 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port fork 0);
        G.connect g ~src:(G.out_port fork 0) ~dst:(G.in_port a 1);
        G.connect g ~src:(G.out_port fork 1) ~dst:(G.in_port o 0);
        let sim = Asr.Simulate.create g in
        match Asr.Simulate.step sim [ ("x", D.int 1) ] with
        | [ (_, v) ] -> Alcotest.check domain "bottom (no constructive value)" D.Bottom v
        | _ -> Alcotest.fail "one output");
    case "mux resolves a cycle through the dead branch" (fun () ->
        (* y = mux(sel, const 5, y): with sel=true the feedback arm is
           irrelevant and the fixed point is 5. *)
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
        let sim = Asr.Simulate.create g in
        match Asr.Simulate.step sim [ ("sel", D.bool true) ] with
        | [ (_, v) ] -> Alcotest.check domain "5" (D.int 5) v
        | _ -> Alcotest.fail "one output");
    case "nonmonotonic block detected" (fun () ->
        (* outputs 1 on bottom input, 2 on defined input: retracts *)
        let evil =
          B.make ~name:"evil" ~n_in:1 ~n_out:1 (fun inputs ->
              match inputs.(0) with
              | D.Bottom -> [| D.int 1 |]
              | D.Def _ -> [| D.int 2 |])
        in
        (* declared before its producer, the evil block is first applied
           with a ⊥ input and later retracts its output *)
        let g = G.create "evil" in
        let e = G.add_block g evil in
        let gain = G.add_block g (B.gain 1) in
        let i = G.add_input g "x" in
        let o = G.add_output g "y" in
        G.connect g ~src:(G.out_port i 0) ~dst:(G.in_port gain 0);
        G.connect g ~src:(G.out_port gain 0) ~dst:(G.in_port e 0);
        G.connect g ~src:(G.out_port e 0) ~dst:(G.in_port o 0);
        let compiled = G.compile g in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Asr.Fixpoint.eval (Asr.Fixpoint.prepare Asr.Fixpoint.Chaotic compiled)
                  ~inputs:[ ("x", D.int 1) ]
                  ~delay_values:[||] ());
             false
           with Asr.Fixpoint.Nonmonotonic _ -> true));
    qcase ~count:60 "fixpoint is evaluation-order independent"
      QCheck.(pair (int_bound 1000) (small_list (int_bound 50)))
      (fun (seed, stream) ->
        let g = accumulator () in
        let compiled = G.compile g in
        let n_blocks = 2 in
        let rng = Random.State.make [| seed |] in
        let shuffled =
          let order = Array.init n_blocks (fun i -> i) in
          for i = n_blocks - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          order
        in
        ignore compiled;
        let reference =
          run_ints g stream
        in
        let sim = Asr.Simulate.create ~order:shuffled (accumulator ()) in
        let shuffled_out =
          List.map
            (fun x ->
              match Asr.Simulate.step sim [ ("x", D.int x) ] with
              | [ (_, v) ] -> v
              | _ -> D.Bottom)
            stream
        in
        List.for_all2 D.equal reference shuffled_out);
    case "fixpoint iteration counts are reported" (fun () ->
        let compiled = G.compile (accumulator ()) in
        let result =
          Asr.Fixpoint.eval (Asr.Fixpoint.prepare Asr.Fixpoint.Chaotic compiled)
            ~inputs:[ ("x", D.int 1) ]
            ~delay_values:[| D.int 0 |]
            ()
        in
        Alcotest.(check bool) "at least 2 sweeps" true
          (result.Asr.Fixpoint.iterations >= 2);
        Alcotest.(check bool) "evaluations counted" true
          (result.Asr.Fixpoint.block_evaluations >= 2));
    case "unknown input name rejected" (fun () ->
        let compiled = G.compile (accumulator ()) in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Asr.Fixpoint.eval (Asr.Fixpoint.prepare Asr.Fixpoint.Chaotic compiled)
                  ~inputs:[ ("nope", D.int 1) ]
                  ~delay_values:[| D.int 0 |] ());
             false
           with Invalid_argument _ -> true));
    (* simulation *)
    case "simulate reset restores initial state" (fun () ->
        let g = accumulator () in
        let sim = Asr.Simulate.create g in
        ignore (Asr.Simulate.step sim [ ("x", D.int 5) ]);
        Asr.Simulate.reset sim;
        Alcotest.(check int) "instant zero" 0 (Asr.Simulate.instant_count sim);
        match Asr.Simulate.step sim [ ("x", D.int 5) ] with
        | [ (_, v) ] -> Alcotest.check domain "fresh" (D.int 5) v
        | _ -> Alcotest.fail "one output");
    case "run produces a full trace" (fun () ->
        let sim = Asr.Simulate.create (accumulator ()) in
        let trace = Asr.Simulate.run sim [ [ ("x", D.int 1) ]; [ ("x", D.int 2) ] ] in
        Alcotest.(check int) "two entries" 2 (List.length trace);
        let last = List.nth trace 1 in
        Alcotest.(check int) "instant index" 1 last.Asr.Simulate.instant);
    (* composition / abstraction *)
    case "to_block collapses stateless graphs" (fun () ->
        let inner = G.create "inner" in
        let a = G.add_input inner "a" in
        let b = G.add_input inner "b" in
        let add = G.add_block inner B.add in
        let o = G.add_output inner "o" in
        G.connect inner ~src:(G.out_port a 0) ~dst:(G.in_port add 0);
        G.connect inner ~src:(G.out_port b 0) ~dst:(G.in_port add 1);
        G.connect inner ~src:(G.out_port add 0) ~dst:(G.in_port o 0);
        let block = Asr.Compose.to_block inner in
        let out = B.apply block [| D.int 2; D.int 3 |] in
        Alcotest.check domain "5" (D.int 5) out.(0));
    case "to_block refuses stateful graphs" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Asr.Compose.to_block (accumulator ()));
             false
           with Invalid_argument _ -> true));
    case "abstract has exactly one block and one delay" (fun () ->
        let abstracted = Asr.Compose.abstract (accumulator ()) in
        Alcotest.(check int) "one block" 1 (G.block_count abstracted);
        Alcotest.(check int) "one delay" 1 (G.delay_count abstracted));
    qcase ~count:40 "abstracted accumulator is trace equivalent"
      QCheck.(small_list (int_bound 100))
      (fun stream ->
        let original = run_ints (accumulator ()) stream in
        let abstracted = run_ints (Asr.Compose.abstract (accumulator ())) stream in
        List.for_all2 D.equal original abstracted);
    case "abstract of stateless graph has no delay" (fun () ->
        let inner = G.create "nodelay" in
        let a = G.add_input inner "a" in
        let gain = G.add_block inner (B.gain 4) in
        let o = G.add_output inner "o" in
        G.connect inner ~src:(G.out_port a 0) ~dst:(G.in_port gain 0);
        G.connect inner ~src:(G.out_port gain 0) ~dst:(G.in_port o 0);
        let abstracted = Asr.Compose.abstract inner in
        Alcotest.(check int) "no delay" 0 (G.delay_count abstracted));
    case "abstraction carries partial delay state" (fun () ->
        (* feed an instant with no input: delay input stays bottom; the
           abstraction must behave identically next instant *)
        let g = accumulator () in
        let abstracted = Asr.Compose.abstract g in
        let sim1 = Asr.Simulate.create g in
        let sim2 = Asr.Simulate.create abstracted in
        let step sim inputs = Asr.Simulate.step sim inputs in
        let o1 = step sim1 [] and o2 = step sim2 [] in
        Alcotest.(check bool) "same idle" true (o1 = o2);
        let o1 = step sim1 [ ("x", D.int 3) ] and o2 = step sim2 [ ("x", D.int 3) ] in
        Alcotest.(check bool) "same after idle" true (o1 = o2));
    (* instants *)
    case "instant tree metrics" (fun () ->
        let root = Asr.Instant.make "t" in
        let a = Asr.Instant.add_child root "a" in
        ignore (Asr.Instant.add_child a "a1");
        ignore (Asr.Instant.add_child a "a2");
        ignore (Asr.Instant.add_child root "b");
        Alcotest.(check int) "depth" 3 (Asr.Instant.depth root);
        Alcotest.(check int) "count" 5 (Asr.Instant.count root);
        Alcotest.(check int) "leaves" 3 (Asr.Instant.leaf_count root));
    case "composite block logs sub-instants" (fun () ->
        let instants = Asr.Instant.make "outer" in
        let inner = G.create "inner" in
        let a = G.add_input inner "a" in
        let gain = G.add_block inner (B.gain 2) in
        let o = G.add_output inner "o" in
        G.connect inner ~src:(G.out_port a 0) ~dst:(G.in_port gain 0);
        G.connect inner ~src:(G.out_port gain 0) ~dst:(G.in_port o 0);
        let block = Asr.Compose.to_block ~instants inner in
        ignore (B.apply block [| D.int 1 |]);
        ignore (B.apply block [| D.int 2 |]);
        Alcotest.(check int) "two applications logged" 2
          (List.length instants.Asr.Instant.children));
    (* rendering *)
    case "render mentions every node" (fun () ->
        let text = Asr.Render.to_string (accumulator ()) in
        List.iter
          (fun needle ->
            if not (contains ~substring:needle text) then
              Alcotest.failf "missing %s in rendering" needle)
          [ "in:x"; "out:sum"; "add"; "delay"; "-->" ]) ]
