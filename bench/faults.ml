(* Fault injection: supervisor containment and degradation, checked
   bit for bit rather than statistically.

   1. Containment: faults injected into chosen blocks perturb only the
      nets inside [Graph.affected_nets] of those blocks; every net
      outside the blast radius takes exactly the per-instant value of
      the fault-free run, under every containment policy.
   2. Determinism: a fixed injection seed reproduces the same traces
      and fault log, and a first-application glitch absorbed by [Retry]
      leaves the whole trace identical to the fault-free one.
   3. Engine traps: blown cycle budgets and heap exhaustion in MJ
      blocks are contained with the right class, line attribution still
      reconciles, and the reaction resumes once the pressure is lifted.
   4. Zero-cost disablement: arming an ample budget or heap limit
      leaves the modeled cycles of the MJ workloads unchanged, and the
      cycles themselves are exact rows of the recorded baseline. *)

module D = Asr.Domain
module G = Asr.Graph
module S = Asr.Supervisor
module I = Asr.Inject
module E = Javatime.Elaborate
module F = Fixtures

let graphs ~smoke =
  let scale n small = if smoke then small else n in
  [ ("fir", F.fir_graph (scale 32 8), scale 60 12);
    ("jpeg-pipeline", F.pipeline_graph (scale 24 6), scale 60 12);
    ("cyclic", F.cyclic_graph (scale 8 3), scale 60 12);
    ( "random",
      F.random_graph ~seed:7 ~inputs:3 ~layers:(scale 8 3)
        ~per_layer:(scale 12 4) ~delays:3,
      scale 60 12 );
    (* structured random nets (delays and a few cycles) widen the
       campaign beyond the hand-built topologies *)
    ( "netgen",
      Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1
        ~seed:23 ~depth:(scale 7 3) ~width:(scale 10 4) (),
      scale 60 12 ) ]

(* Returns the rows and the (instant, net) pairs checked. *)
let campaign_rows (name, g, instants) ~policy ~first_only ~seed =
  let compiled = G.compile g in
  let n_blocks = Array.length compiled.G.c_blocks in
  let stream = F.stimulus g ~instants in
  let clean = F.run_capture g stream in
  let specs = I.plan ~seed ~n_blocks ~instants ~n_faults:2 ~first_only () in
  let faulty_run () =
    let inj = I.make specs in
    let sup = S.create ~policy () in
    (inj, sup, F.run_capture ~supervisor:sup ~inject:inj (I.instrument inj g) stream)
  in
  let inj, sup, faulty = faulty_run () in
  let inj2, sup2, faulty2 = faulty_run () in
  let affected, checked, ok = F.containment g specs ~clean ~faulty in
  let w = name and layer = S.policy_name policy in
  let contained = S.fault_count sup and recovered = S.recovered_count sup in
  ( Row.
      [ exact ~w ~layer "first_application_only" (Bool first_only);
        count ~w ~layer "seed" seed;
        count ~w ~layer "blocks" n_blocks;
        count ~w ~layer "nets" compiled.G.n_nets;
        count ~w ~layer "instants" instants;
        str ~w ~layer "specs" (String.concat "; " (List.map I.spec_to_string specs));
        count ~w ~layer "injected" (I.fired inj);
        count ~w ~layer "contained" contained;
        count ~w ~layer "recovered" recovered;
        count ~w ~layer "quarantined" (List.length (S.quarantined_blocks sup));
        count ~w ~layer "affected_nets" affected;
        count ~w ~layer "checked_pairs" checked;
        exact ~w ~layer "trace_fully_identical" (Bool (clean = faulty));
        gate ~w ~layer "fault_injected" (I.fired inj > 0);
        gate ~w ~layer "unaffected_identical" ok;
        gate ~w ~layer "deterministic"
          (faulty = faulty2
          && I.fired inj = I.fired inj2
          && S.faults sup = S.faults sup2) ]
    @ (if first_only then
         Row.
           [ gate ~w ~layer "retry_absorbs_glitch" (clean = faulty);
             gate ~w ~layer "recovery_recorded" (recovered > 0) ]
       else [ Row.gate ~w ~layer "fault_contained" (contained > 0) ]),
    checked )

(* A supervisor with nothing to contain must be invisible. *)
let nofault_row (w, g, instants) =
  let stream = F.stimulus g ~instants in
  let sup = S.create () in
  let supervised = F.run_capture ~supervisor:sup g stream in
  Row.gate ~w "supervised_nofault_identical"
    (F.run_capture g stream = supervised && S.fault_count sup = 0)

(* The [Retry] rows inject first-application-only glitches, the shape
   that policy exists to absorb; the others inject unconditionally. *)
let policies = [ (S.Hold_last, false); (S.Absent, false); (S.Retry 2, true) ]

let asr_rows ~smoke =
  let rows, checked =
    List.split
      (List.concat
         (List.mapi
            (fun wi w ->
              List.mapi
                (fun pi (policy, first_only) ->
                  campaign_rows w ~policy ~first_only
                    ~seed:(41 + (13 * wi) + (7 * pi)))
                policies)
            (graphs ~smoke)))
  in
  List.concat rows
  @ [ Row.gate ~w:"campaign" "containment_not_vacuous"
        (List.fold_left ( + ) 0 checked > 0) ]
  @ List.map nofault_row (graphs ~smoke)

(* Blows any small cycle budget: 64 loop iterations per reaction. *)
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

(* Allocates 34 heap words per reaction; a limit of init+80 words
   admits two reactions and traps from the third on. *)
let storm_src =
  {|class Storm extends ASR {
      Storm() { declarePorts(1, 1); }
      public void run() {
        int[] a = new int[32];
        a[0] = readPort(0);
        writePort(0, a[0] + 1);
      }
    }|}

let mj_trap_rows (layer, engine) trap =
  let src, cls, budget, heap_slack, instants, expected =
    match trap with
    | `Budget -> (spin_src, "Spin", Some 40, None, 5, S.Budget_exceeded)
    | `Heap -> (storm_src, "Storm", None, Some 80, 6, S.Heap_exhausted)
  in
  let checked = Mj.Typecheck.check_source ~file:(cls ^ ".mj") src in
  let lines = Telemetry.Lines.create () in
  let elab =
    E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
      ~cost_lines:lines checked ~cls
  in
  let heap = (E.machine elab).Mj_runtime.Machine.heap in
  Option.iter
    (fun slack ->
      let stats = Mj_runtime.Heap.stats heap in
      Mj_runtime.Heap.set_limit_words heap
        (Some (stats.Mj_runtime.Heap.init_words + slack)))
    heap_slack;
  let n_in, n_out = E.ports elab in
  let block =
    Asr.Block.make ~name:("mj:" ^ cls) ~n_in ~n_out (fun inputs ->
        if Array.for_all D.is_def inputs then
          match budget with
          | Some b -> E.react_bounded elab ~budget_cycles:b inputs
          | None -> E.react elab inputs
        else Array.make n_out D.Bottom)
  in
  let g = G.create ("mj-" ^ cls) in
  let b = G.add_block g block in
  let inp = G.add_input g "x" in
  let out = G.add_output g "y" in
  G.connect g ~src:(G.out_port inp 0) ~dst:(G.in_port b 0);
  G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port out 0);
  let sup = S.create ~policy:S.Hold_last ~classify:E.fault_classifier () in
  let sim = Asr.Simulate.create ~supervisor:sup g in
  ignore
    (Asr.Simulate.run sim (List.init instants (fun t -> [ ("x", D.int t) ])));
  let contained = S.fault_count sup in
  (* graceful degradation: lift the pressure, the reaction works again *)
  Mj_runtime.Heap.set_limit_words heap None;
  let resumes =
    match E.react elab [| D.int 1 |] with
    | [| D.Def _ |] -> true
    | _ -> false
    | exception _ -> false
  in
  let w = match trap with `Budget -> "mj-budget" | `Heap -> "mj-heap" in
  Row.
    [ count ~w ~layer "instants" instants;
      count ~w ~layer "contained" contained;
      gate ~w ~layer "trap_contained" (contained > 0);
      gate ~w ~layer "class_ok"
        (contained > 0
        && List.for_all
             (fun f -> f.S.f_action = S.Escalated || f.S.f_class = expected)
             (S.faults sup));
      gate ~w ~layer "lines_reconcile"
        (Telemetry.Lines.total lines = E.total_cycles elab);
      gate ~w ~layer "resumes_after_pressure" resumes ]

(* The supervisor-disabled path: ample but not max_int limits (the
   budget trip point is meter + budget and must not overflow) leave the
   modeled cycles unchanged. *)
let disabled_rows (w : F.mj) (layer, engine) =
  let run ?budget ?heap_limit () =
    F.total_cycles ~engine ?budget ?heap_limit w
  in
  let plain = run () in
  let w = w.name in
  Row.
    [ cycles ~w ~layer "cycles" plain;
      gate ~w ~layer "budget_armed_identical"
        (run ~budget:(max_int / 2) () = plain);
      gate ~w ~layer "heap_armed_identical"
        (run ~heap_limit:(max_int / 2) () = plain) ]

let rows ~smoke =
  asr_rows ~smoke
  @ List.concat_map
      (fun e -> mj_trap_rows e `Budget @ mj_trap_rows e `Heap)
      F.engines
  @ List.concat_map
      (fun w -> List.concat_map (disabled_rows w) F.engines)
      (F.mj_workloads ~smoke)
