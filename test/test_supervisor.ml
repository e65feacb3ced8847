open Util
module D = Asr.Domain
module G = Asr.Graph
module S = Asr.Supervisor
module I = Asr.Inject
module E = Javatime.Elaborate

(* One gain-by-2 block between an input and an output: the smallest
   system where holding, absence, retry and escalation are all visible
   on the output port. *)
let gain_graph () =
  let g = G.create "t" in
  let b = G.add_block g (Asr.Block.gain 2) in
  let inp = G.add_input g "x" in
  let out = G.add_output g "y" in
  G.connect g ~src:(G.out_port inp 0) ~dst:(G.in_port b 0);
  G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port out 0);
  g

let trap_at ?(kind = I.Trap) ?(persistence = I.Transient) ?(first_only = false)
    instant =
  { I.i_block = 0; i_kind = kind; i_instant = instant;
    i_persistence = persistence; i_first_only = first_only }

(* Inject [specs] into the gain graph and drive it one int per instant,
   returning the per-instant value of output "y". *)
let drive_injected ?policy ?escalate_after specs xs =
  let inj = I.make specs in
  let g = I.instrument inj (gain_graph ()) in
  let sup = S.create ?policy ?escalate_after () in
  let sim = Asr.Simulate.create ~supervisor:sup g in
  let ys =
    List.map
      (fun x ->
        let outs = Asr.Simulate.step sim [ ("x", D.int x) ] in
        I.tick inj;
        List.assoc "y" outs)
      xs
  in
  (inj, sup, ys)

let domain = Alcotest.testable (Fmt.of_to_string D.to_string) ( = )

(* ---- random-system properties ----------------------------------- *)

let capture ?strategy ?supervisor ?inject g stream =
  let sim = Asr.Simulate.create ?strategy ?supervisor g in
  List.map
    (fun inputs ->
      ignore (Asr.Simulate.step sim inputs);
      (match inject with Some inj -> I.tick inj | None -> ());
      Asr.Simulate.net_values sim)
    stream

let blast_radius compiled specs =
  let affected = Array.make compiled.G.n_nets false in
  List.iter
    (fun s ->
      Array.iteri
        (fun i b -> if b then affected.(i) <- true)
        (G.affected_nets compiled s.I.i_block))
    specs;
  affected

let outside_identical affected clean faulty =
  List.for_all2
    (fun cn fn ->
      let ok = ref true in
      Array.iteri
        (fun n v -> if (not affected.(n)) && v <> fn.(n) then ok := false)
        cn;
      !ok)
    clean faulty

let mj_suite =
  let spin_src =
    {|class Spin extends ASR {
        Spin() { declarePorts(1, 1); }
        public void run() {
          int acc = 0;
          int i = 0;
          while (i < 64) { acc = acc + i; i = i + 1; }
          writePort(0, acc + readPort(0));
        }
      }|}
  in
  let storm_src =
    {|class Storm extends ASR {
        Storm() { declarePorts(1, 1); }
        public void run() {
          int[] a = new int[32];
          a[0] = readPort(0);
          writePort(0, a[0] + 1);
        }
      }|}
  in
  let forever_src =
    {|class Forever extends ASR {
        Forever() { declarePorts(1, 1); }
        public void run() {
          writePort(0, readPort(0));
          while (true) { }
        }
      }|}
  in
  (* Two iterations that charge nothing on the JIT ([bnot], loads,
     stores, constants and the branch are free there) and then end. *)
  let settle_src =
    {|class Settle extends ASR {
        Settle() { declarePorts(1, 1); }
        public void run() {
          boolean a = false;
          boolean b = false;
          while (!b) { b = a; a = true; }
          writePort(0, readPort(0) + 1);
        }
      }|}
  in
  let engines =
    [ ("interp", E.Engine_interp); ("vm", E.Engine_vm); ("jit", E.Engine_jit) ]
  in
  (* Run [cls] under a Hold_last supervisor for [instants] instants and
     return (supervisor, elaboration, line table). *)
  let supervised_run ~engine ~src ~cls ?budget ?heap_slack ~instants () =
    let lines = Telemetry.Lines.create () in
    let elab =
      E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
        ~cost_lines:lines (check_src src) ~cls
    in
    let heap = (E.machine elab).Mj_runtime.Machine.heap in
    (match heap_slack with
    | Some slack ->
        let stats = Mj_runtime.Heap.stats heap in
        Mj_runtime.Heap.set_limit_words heap
          (Some (stats.Mj_runtime.Heap.init_words + slack))
    | None -> ());
    let block =
      Asr.Block.make ~name:("mj:" ^ cls) ~n_in:1 ~n_out:1 (fun inputs ->
          if Array.for_all D.is_def inputs then
            match budget with
            | Some b -> E.react_bounded elab ~budget_cycles:b inputs
            | None -> E.react elab inputs
          else [| D.Bottom |])
    in
    let g = G.create ("mj-" ^ cls) in
    let b = G.add_block g block in
    let inp = G.add_input g "x" in
    let out = G.add_output g "y" in
    G.connect g ~src:(G.out_port inp 0) ~dst:(G.in_port b 0);
    G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port out 0);
    let sup =
      S.create ~policy:S.Hold_last ~escalate_after:100
        ~classify:E.fault_classifier ()
    in
    let sim = Asr.Simulate.create ~supervisor:sup g in
    ignore
      (Asr.Simulate.run sim (List.init instants (fun t -> [ ("x", D.int t) ])));
    (sup, elab, lines)
  in
  List.concat_map
    (fun (label, engine) ->
      [ case (label ^ ": cycle-budget trap contained on every instant")
          (fun () ->
            let sup, elab, lines =
              supervised_run ~engine ~src:spin_src ~cls:"Spin" ~budget:40
                ~instants:3 ()
            in
            Alcotest.(check int) "contained" 3 (S.fault_count sup);
            Alcotest.(check bool) "classed" true
              (List.for_all
                 (fun f -> f.S.f_class = S.Budget_exceeded)
                 (S.faults sup));
            (* satellite: Cost.cycles reconciles with line attribution
               even though every reaction aborted mid-flight *)
            Alcotest.(check int) "lines reconcile" (E.total_cycles elab)
              (Telemetry.Lines.total lines);
            (* the engine is not wedged: an unbudgeted reaction works *)
            match E.react elab [| D.int 1 |] with
            | [| D.Def _ |] -> ()
            | _ -> Alcotest.fail "reaction did not resume");
        case (label ^ ": heap-exhaustion trap contained, engine recovers")
          (fun () ->
            let sup, elab, lines =
              supervised_run ~engine ~src:storm_src ~cls:"Storm" ~heap_slack:80
                ~instants:4 ()
            in
            (* 34 words per reaction against init+80: reactions 3 and 4
               trip the limit *)
            Alcotest.(check int) "contained" 2 (S.fault_count sup);
            Alcotest.(check bool) "classed" true
              (List.for_all
                 (fun f -> f.S.f_class = S.Heap_exhausted)
                 (S.faults sup));
            Alcotest.(check int) "lines reconcile" (E.total_cycles elab)
              (Telemetry.Lines.total lines);
            let heap = (E.machine elab).Mj_runtime.Machine.heap in
            Mj_runtime.Heap.set_limit_words heap None;
            match E.react elab [| D.int 1 |] with
            | [| D.Def _ |] -> ()
            | _ -> Alcotest.fail "reaction did not resume");
        (* A loop whose iterations charge nothing (the JIT's loads,
           stores, constants, jumps and yield points cost 0) must still
           trip the watchdog: bare, and contained by the supervisor. *)
        case (label ^ ": an empty infinite loop trips the budget") (fun () ->
            let elab =
              E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
                (check_src forever_src) ~cls:"Forever"
            in
            let before = E.total_cycles elab in
            match E.react_bounded elab ~budget_cycles:100_000 [| D.int 1 |] with
            | _ -> Alcotest.fail "the loop returned"
            | exception Mj_runtime.Cost.Budget_exceeded n ->
                Alcotest.(check bool) "reading past the start" true (n > before);
                Alcotest.(check int) "reading is the meter" n (E.total_cycles elab));
        case (label ^ ": an empty infinite loop is contained as a budget fault")
          (fun () ->
            let sup, elab, lines =
              supervised_run ~engine ~src:forever_src ~cls:"Forever"
                ~budget:100_000 ~instants:2 ()
            in
            Alcotest.(check int) "contained" 2 (S.fault_count sup);
            Alcotest.(check bool) "classed" true
              (List.for_all
                 (fun f -> f.S.f_class = S.Budget_exceeded)
                 (S.faults sup));
            Alcotest.(check int) "lines reconcile" (E.total_cycles elab)
              (Telemetry.Lines.total lines));
        case (label ^ ": a loop of free iterations that ends runs to its end")
          (fun () ->
            let elab () =
              E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
                (check_src settle_src) ~cls:"Settle"
            in
            let free = E.react (elab ()) [| D.int 1 |] in
            let bounded =
              E.react_bounded (elab ()) ~budget_cycles:100_000 [| D.int 1 |]
            in
            Alcotest.(check bool) "wrote its output" true
              (match free with [| D.Def _ |] -> true | _ -> false);
            Alcotest.(check bool) "same outputs under a budget" true
              (free = bounded)) ])
    engines

let suite =
  [ case "hold-last: output holds the previous instant's value" (fun () ->
        let _, sup, ys =
          drive_injected [ trap_at 1 ] [ 3; 5; 7 ] ~policy:S.Hold_last
        in
        Alcotest.(check (list domain)) "trace"
          [ D.int 6; D.int 6; D.int 14 ]
          ys;
        match S.faults sup with
        | [ f ] ->
            Alcotest.(check int) "instant" 1 f.S.f_instant;
            Alcotest.(check int) "block" 0 f.S.f_block;
            Alcotest.(check bool) "held" true (f.S.f_action = S.Held);
            Alcotest.(check bool) "trap" true (f.S.f_class = S.Trap)
        | fs -> Alcotest.failf "expected 1 fault, got %d" (List.length fs));
    case "absent: output goes bottom for the faulty instant" (fun () ->
        let _, sup, ys =
          drive_injected [ trap_at 1 ] [ 3; 5; 7 ] ~policy:S.Absent
        in
        Alcotest.(check (list domain)) "trace"
          [ D.int 6; D.Bottom; D.int 14 ]
          ys;
        Alcotest.(check bool) "went absent" true
          (List.for_all (fun f -> f.S.f_action = S.Went_absent) (S.faults sup)));
    case "fail-fast: the fault is fatal" (fun () ->
        match drive_injected [ trap_at 0 ] [ 3 ] ~policy:S.Fail_fast with
        | _ -> Alcotest.fail "expected Fatal"
        | exception S.Fatal f ->
            Alcotest.(check bool) "aborted" true (f.S.f_action = S.Aborted);
            Alcotest.(check int) "instant" 0 f.S.f_instant);
    case "retry absorbs a first-application-only glitch" (fun () ->
        let _, sup, ys =
          drive_injected
            [ trap_at ~first_only:true 1 ]
            [ 3; 5; 7 ] ~policy:(S.Retry 1)
        in
        Alcotest.(check (list domain)) "trace unperturbed"
          [ D.int 6; D.int 10; D.int 14 ]
          ys;
        Alcotest.(check int) "recovered" 1 (S.recovered_count sup);
        Alcotest.(check int) "nothing contained" 0 (S.fault_count sup);
        Alcotest.(check bool) "logged as recovery" true
          (List.exists (fun f -> f.S.f_action = S.Recovered 1) (S.faults sup)));
    case "retry exhausted falls back to holding" (fun () ->
        let _, sup, ys =
          drive_injected [ trap_at 1 ] [ 3; 5; 7 ] ~policy:(S.Retry 2)
        in
        Alcotest.(check (list domain)) "trace"
          [ D.int 6; D.int 6; D.int 14 ]
          ys;
        Alcotest.(check int) "contained" 1 (S.fault_count sup);
        match S.faults sup with
        | [ f ] ->
            Alcotest.(check bool) "detail mentions retries" true
              (contains ~substring:"after 2 retries" f.S.f_detail)
        | _ -> Alcotest.fail "expected exactly one contained fault");
    case "watchdog escalates to permanent quarantine" (fun () ->
        let inj, sup, ys =
          drive_injected
            [ trap_at ~persistence:I.Persistent 0 ]
            [ 1; 2; 3; 4 ] ~escalate_after:2
        in
        Alcotest.(check (list domain)) "all held at initial bottom"
          [ D.Bottom; D.Bottom; D.Bottom; D.Bottom ]
          ys;
        Alcotest.(check bool) "quarantined" true (S.is_quarantined sup 0);
        Alcotest.(check (list int)) "listed" [ 0 ] (S.quarantined_blocks sup);
        Alcotest.(check bool) "escalation logged" true
          (List.exists (fun f -> f.S.f_action = S.Escalated) (S.faults sup));
        (* a quarantined block is never re-executed: the injector only
           fired on the two pre-quarantine instants *)
        Alcotest.(check int) "no further applications" 2 (I.fired inj));
    case "injected kinds map to the matching fault classes" (fun () ->
        let classes kind =
          let _, sup, _ =
            drive_injected [ trap_at ~kind 0 ] [ 1 ] ~policy:S.Hold_last
          in
          List.map (fun f -> f.S.f_class) (S.faults sup)
        in
        Alcotest.(check bool) "cycle spike -> budget" true
          (classes I.Cycle_spike = [ S.Budget_exceeded ]);
        Alcotest.(check bool) "alloc storm -> heap" true
          (classes I.Alloc_storm = [ S.Heap_exhausted ]));
    case "step budget trips on re-application, value survives" (fun () ->
        (* chaotic iteration re-applies the block to confirm the fixpoint;
           with step_budget 1 the second application is contained but the
           staged first result stands *)
        let sup = S.create ~step_budget:1 () in
        let sim =
          Asr.Simulate.create ~strategy:Asr.Fixpoint.Chaotic ~supervisor:sup
            (gain_graph ())
        in
        let outs = Asr.Simulate.step sim [ ("x", D.int 3) ] in
        Alcotest.check domain "value" (D.int 6) (List.assoc "y" outs);
        Alcotest.(check bool) "step-limit fault" true
          (List.exists (fun f -> f.S.f_class = S.Step_limit) (S.faults sup)));
    case "retraction is contained where unsupervised it is fatal" (fun () ->
        let nonmono () =
          let n = ref 0 in
          let g = G.create "nm" in
          let b =
            G.add_block g
              (Asr.Block.make ~name:"count" ~n_in:1 ~n_out:1 (fun _ ->
                   incr n;
                   [| D.int !n |]))
          in
          let inp = G.add_input g "x" in
          let out = G.add_output g "y" in
          G.connect g ~src:(G.out_port inp 0) ~dst:(G.in_port b 0);
          G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port out 0);
          g
        in
        (match
           Asr.Simulate.step
             (Asr.Simulate.create ~strategy:Asr.Fixpoint.Chaotic (nonmono ()))
             [ ("x", D.int 1) ]
         with
        | _ -> Alcotest.fail "expected Nonmonotonic"
        | exception Asr.Fixpoint.Nonmonotonic _ -> ());
        let sup = S.create () in
        let sim =
          Asr.Simulate.create ~strategy:Asr.Fixpoint.Chaotic ~supervisor:sup
            (nonmono ())
        in
        let outs = Asr.Simulate.step sim [ ("x", D.int 1) ] in
        Alcotest.check domain "frozen at first write" (D.int 1)
          (List.assoc "y" outs);
        Alcotest.(check bool) "retraction fault" true
          (List.exists (fun f -> f.S.f_class = S.Retraction) (S.faults sup)));
    case "fault log is capped, drops are counted" (fun () ->
        let inj = I.make [ trap_at ~persistence:I.Persistent 0 ] in
        let g = I.instrument inj (gain_graph ()) in
        let sup = S.create ~escalate_after:2000 () in
        let sim = Asr.Simulate.create ~supervisor:sup g in
        for x = 1 to 1001 do
          ignore (Asr.Simulate.step sim [ ("x", D.int x) ]);
          I.tick inj;
          if x = 1000 then begin
            Alcotest.(check int) "1,000 fit" 1000 (List.length (S.faults sup));
            Alcotest.(check int) "none dropped yet" 0 (S.dropped_faults sup)
          end
        done;
        Alcotest.(check int) "total" 1001 (S.fault_count sup);
        Alcotest.(check int) "retained" 1000 (List.length (S.faults sup));
        Alcotest.(check int) "dropped" 1 (S.dropped_faults sup));
    case "fault log exports as parseable JSON" (fun () ->
        let _, sup, _ =
          drive_injected [ trap_at 1 ] [ 3; 5; 7 ] ~policy:S.Hold_last
        in
        let module J = Telemetry.Json in
        let round = J.parse (J.to_string (S.faults_json sup)) in
        (match J.member "policy" round with
        | Some (J.Str "hold-last") -> ()
        | _ -> Alcotest.fail "policy missing");
        (match J.member "faults" round with
        | Some (J.List [ f ]) -> (
            match J.member "class" f with
            | Some (J.Str "trap") -> ()
            | _ -> Alcotest.fail "class missing")
        | _ -> Alcotest.fail "faults missing");
        (* one shape per fault: the action is the tag the checkpoint
           parses back, never prose *)
        let actions sup =
          match J.member "faults" (J.parse (J.to_string (S.faults_json sup))) with
          | Some (J.List fs) ->
              List.map
                (fun f ->
                  match J.member "action" f with
                  | Some (J.Str a) -> a
                  | _ -> Alcotest.fail "action missing")
                fs
          | _ -> Alcotest.fail "faults missing"
        in
        Alcotest.(check (list string)) "held" [ "held" ] (actions sup);
        let _, recovered, _ =
          drive_injected [ trap_at ~first_only:true 1 ] [ 3; 5; 7 ]
            ~policy:(S.Retry 2)
        in
        Alcotest.(check (list string)) "recovered" [ "recovered:1" ]
          (actions recovered);
        let _, escalated, _ =
          drive_injected
            [ trap_at ~persistence:I.Persistent 0 ]
            [ 3; 5; 7 ] ~policy:S.Hold_last ~escalate_after:2
        in
        Alcotest.(check (list string)) "escalated"
          [ "held"; "held"; "escalated" ]
          (actions escalated));
    case "telemetry counters track containment and recovery" (fun () ->
        let reg = Telemetry.Registry.create () in
        let inj = I.make [ trap_at 1 ] in
        let g = I.instrument inj (gain_graph ()) in
        let sup = S.create ~telemetry:reg () in
        let sim = Asr.Simulate.create ~supervisor:sup g in
        List.iter
          (fun x ->
            ignore (Asr.Simulate.step sim [ ("x", D.int x) ]);
            I.tick inj)
          [ 3; 5; 7 ];
        let value name =
          (Telemetry.Registry.counter reg name).Telemetry.Registry.c_value
        in
        Alcotest.(check int) "faults" 1 (value "asr.supervisor.faults");
        Alcotest.(check int) "by class" 1 (value "asr.supervisor.fault.trap"));
    case "policy names round-trip through policy_of_string" (fun () ->
        List.iter
          (fun p ->
            Alcotest.(check bool) (S.policy_name p) true
              (S.policy_of_string (S.policy_name p) = Some p))
          [ S.Fail_fast; S.Hold_last; S.Absent; S.Retry 3 ];
        Alcotest.(check bool) "hold alias" true
          (S.policy_of_string "hold" = Some S.Hold_last);
        Alcotest.(check bool) "garbage" true (S.policy_of_string "bogus" = None));
    case "default classifier covers the standard traps" (fun () ->
        let cls e = Option.map fst (S.default_classify e) in
        Alcotest.(check bool) "div" true (cls Division_by_zero = Some S.Trap);
        Alcotest.(check bool) "oom" true
          (cls Out_of_memory = Some S.Heap_exhausted);
        Alcotest.(check bool) "injected" true
          (cls (I.Injected (I.Cycle_spike, "x")) = Some S.Budget_exceeded);
        Alcotest.(check bool) "unknown propagates" true
          (S.default_classify Not_found = None));
    case "engine classifier maps budget and heap traps" (fun () ->
        let open Mj_runtime in
        (match E.fault_classifier (Cost.Budget_exceeded 42) with
        | Some (S.Budget_exceeded, d) ->
            Alcotest.(check bool) "meter in detail" true
              (contains ~substring:"42" d)
        | _ -> Alcotest.fail "budget class");
        (match
           E.fault_classifier (Heap.Runtime_error "heap exhausted: 9 of 8")
         with
        | Some (S.Heap_exhausted, _) -> ()
        | _ -> Alcotest.fail "heap limit class");
        (match
           E.fault_classifier
             (Heap.Runtime_error
                "allocation during the reactive phase (bounded-memory policy)")
         with
        | Some (S.Heap_exhausted, _) -> ()
        | _ -> Alcotest.fail "policy alloc class");
        (match
           E.fault_classifier
             (Heap.Runtime_error "array index 5 out of bounds for length 3")
         with
        | Some (S.Trap, _) -> ()
        | _ -> Alcotest.fail "ordinary trap class");
        Alcotest.(check bool) "unknown propagates" true
          (E.fault_classifier Not_found = None));
    case "heap limit: negative rejected, init phase enforced" (fun () ->
        let h = Mj_runtime.Heap.create () in
        (match Mj_runtime.Heap.set_limit_words h (Some (-1)) with
        | () -> Alcotest.fail "negative limit accepted"
        | exception Invalid_argument _ -> ());
        Mj_runtime.Heap.set_limit_words h (Some 10);
        ignore (Mj_runtime.Heap.alloc_array h ~elem:Mj.Ast.TInt 4);
        expect_runtime_error ~substring:"heap exhausted" (fun () ->
            Mj_runtime.Heap.alloc_array h ~elem:Mj.Ast.TInt 8);
        (* an oversized initialization trips it too: elaboration allocates
           the instance during Init *)
        expect_runtime_error ~substring:"heap exhausted" (fun () ->
            E.elaborate ~heap_limit_words:1
              (check_src
                 {|class T extends ASR {
                     T() { declarePorts(1, 1); }
                     public void run() { writePort(0, readPort(0)); }
                   }|})
              ~cls:"T"));
    case "to_block enforces an optional cycle budget" (fun () ->
        let src =
          {|class Loop extends ASR {
              Loop() { declarePorts(1, 1); }
              public void run() {
                int acc = 0;
                int i = 0;
                while (i < 64) { acc = acc + i; i = i + 1; }
                writePort(0, acc);
              }
            }|}
        in
        let apply budget =
          let elab = E.elaborate ~enforce_policy:false (check_src src) ~cls:"Loop" in
          Asr.Block.apply (E.to_block ?budget_cycles:budget elab) [| D.int 1 |]
        in
        (match apply None with
        | [| D.Def _ |] -> ()
        | _ -> Alcotest.fail "unbudgeted application failed");
        match apply (Some 10) with
        | _ -> Alcotest.fail "expected Budget_exceeded"
        | exception Mj_runtime.Cost.Budget_exceeded _ -> ());
    case "injection plans are deterministic per seed" (fun () ->
        let p seed = I.plan ~seed ~n_blocks:9 ~instants:30 ~n_faults:4 () in
        Alcotest.(check bool) "same seed same plan" true (p 5 = p 5);
        Alcotest.(check bool) "plans stay in range" true
          (List.for_all
             (fun s -> s.I.i_block < 9 && s.I.i_instant < 30)
             (p 5 @ p 6)));
    case "injector validates specs and preserves block shape" (fun () ->
        (match I.make [ trap_at (-1) ] with
        | _ -> Alcotest.fail "negative instant accepted"
        | exception Invalid_argument _ -> ());
        let inj = I.make [ trap_at 3 ] in
        let b = I.wrap inj ~index:0 (Asr.Block.gain 2) in
        Alcotest.(check string) "name kept" (Asr.Block.gain 2).Asr.Block.name
          b.Asr.Block.name;
        Alcotest.(check int) "arity kept" 1 b.Asr.Block.n_in;
        (* before the faulty instant the wrapper is transparent *)
        Alcotest.check domain "passes through" (D.int 8)
          (Asr.Block.apply b [| D.int 4 |]).(0));
    qcase ~count:60 "random systems: supervised no-fault run is invisible"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let stream = Test_random_graphs.stimuli spec in
        let clean = capture (Test_random_graphs.build spec) stream in
        let sup = S.create () in
        let supervised =
          capture ~supervisor:sup (Test_random_graphs.build spec) stream
        in
        clean = supervised && S.fault_count sup = 0);
    qcase ~count:50
      "random systems: faults perturb nothing outside the blast radius"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let g = Test_random_graphs.build spec in
        let compiled = G.compile g in
        let n_blocks = Array.length compiled.G.c_blocks in
        let stream = Test_random_graphs.stimuli spec in
        let specs =
          I.plan ~seed:spec.Test_random_graphs.sp_seed ~n_blocks
            ~instants:(List.length stream) ~n_faults:2 ()
        in
        let affected = blast_radius compiled specs in
        let clean = capture g stream in
        List.for_all
          (fun (strategy, policy) ->
            let inj = I.make specs in
            let sup = S.create ~policy () in
            let faulty =
              capture ~strategy ~supervisor:sup ~inject:inj
                (I.instrument inj (Test_random_graphs.build spec))
                stream
            in
            outside_identical affected clean faulty)
          [ (Asr.Fixpoint.Chaotic, S.Hold_last);
            (Asr.Fixpoint.Scheduled, S.Absent);
            (Asr.Fixpoint.Worklist, S.Retry 1) ]);
    qcase ~count:40 "random systems: fault handling is deterministic"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let stream = Test_random_graphs.stimuli spec in
        let g = Test_random_graphs.build spec in
        let n_blocks = Array.length (G.compile g).G.c_blocks in
        let specs =
          I.plan ~seed:spec.Test_random_graphs.sp_seed ~n_blocks
            ~instants:(List.length stream) ()
        in
        let once () =
          let inj = I.make specs in
          let sup = S.create () in
          let nets =
            capture ~supervisor:sup ~inject:inj
              (I.instrument inj (Test_random_graphs.build spec))
              stream
          in
          (nets, S.faults sup, S.fault_count sup)
        in
        once () = once ()) ]
  @ mj_suite
