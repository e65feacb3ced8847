(* Mechanized refinement checking: the two cooperating layers.

   Layer 1 replays the engine's provenance chain and discharges the
   per-transform verification conditions of [Analysis.Refinement] on
   every recorded before/after pair, plus the race-freedom VC that
   justifies sequentializing the refined program. Failures become
   blocking [Policy.Rule] violations carrying both spans.

   Layer 2 is the trace correspondence: an abstraction function from
   unrestricted-MJ traces under seeded thread schedules (the pluggable
   [Mj_runtime.Threads] scheduler, with port accesses recorded by the
   machine) to ASR instant streams, compared against the deterministic
   instant stream of the refined program under every fixpoint strategy
   — [Chaotic] included: the re-applicable embedding restores the
   machine before each within-instant re-application, so stateful
   reactions survive chaotic iteration. *)

module R = Analysis.Refinement
module D = Asr.Domain
module T = Mj_runtime.Threads

(* ------------------------------------------------------------------ *)
(* Layer 1: per-transform verification conditions                      *)
(* ------------------------------------------------------------------ *)

type vc_step = {
  s_iteration : int;
  s_transform : string;
  s_vcs : R.vc list;
}

type vc_report = {
  v_steps : vc_step list;
  v_races : R.vc;
  v_discharged : int;
  v_failed : int;
}

let all_vcs r = List.concat_map (fun s -> s.s_vcs) r.v_steps @ [ r.v_races ]

let check_program ?catalogue program =
  let outcome = Engine.refine ?catalogue ~provenance:true program in
  let iterations =
    match outcome.Engine.provenance with
    | Some p -> p.Provenance.p_iterations
    | None -> []
  in
  (* A transform's output is what the next iteration analyzed; the last
     iteration's successor is the refined program itself. *)
  let afters =
    match iterations with
    | [] -> []
    | _ :: rest ->
        List.map (fun (it : Provenance.iteration) -> it.it_checked) rest
        @ [ outcome.Engine.checked ]
  in
  let steps =
    List.concat
      (List.map2
         (fun (it : Provenance.iteration) after ->
           match it.it_transform with
           | Some transform ->
               [ { s_iteration = it.it_index; s_transform = transform;
                   s_vcs =
                     R.check_transform ~transform
                       ~before:(Analysis.Facts.of_checked it.it_checked)
                       ~after:(Analysis.Facts.of_checked after) } ]
           | None -> [])
         iterations afters)
  in
  let report0 =
    { v_steps = steps; v_races = R.races_clean outcome.Engine.checked;
      v_discharged = 0; v_failed = 0 }
  in
  let all = all_vcs report0 in
  let report =
    { report0 with
      v_discharged = List.length (List.filter (fun v -> v.R.vc_ok) all);
      v_failed = List.length (List.filter (fun v -> not v.R.vc_ok) all) }
  in
  (report, outcome)

(* The rule is deliberately NOT part of [Policy.Asr_policy.rules]: the
   engine's refinement loop re-checks that policy every iteration, and
   a rule that itself runs the engine would recurse. The CLI composes
   it into `javatime check` on top of the policy report. *)
let rec refinement_rule =
  { Policy.Rule.id = "R11-verified-refinement";
    title = "every applied transform must discharge its verification conditions";
    paper_ref =
      "§2: each step of the successive refinement must preserve the \
       meaning of the design while restricting it to the policy of use";
    check = rule_check }

and violation_of_vc v =
  if v.R.vc_ok then None
  else
    Some
      (Policy.Rule.make_violation ~rule:refinement_rule ~loc:v.R.vc_after
         ~subject:(v.R.vc_class ^ ": " ^ v.R.vc_site)
         ~fixes:
           [ Policy.Rule.Manual
               (if String.equal v.R.vc_transform "thread-elimination" then
                  "resolve the remaining shared-field races before \
                   sequentializing the reactions"
                else
                  "the recorded transform is not simulation-equivalent; \
                   refine by hand or fix the transform") ]
         ~related:[ ("before", v.R.vc_before) ]
         (v.R.vc_transform ^ ": " ^ v.R.vc_detail))

and rule_check checked =
  let report, _ = check_program checked.Mj.Typecheck.program in
  List.filter_map violation_of_vc (all_vcs report)

let violations_of_report report =
  List.filter_map violation_of_vc (all_vcs report)

(* ------------------------------------------------------------------ *)
(* Layer 2: trace correspondence                                       *)
(* ------------------------------------------------------------------ *)

(* Deterministic input ramp, shared with `javatime simulate`: port i at
   instant t carries (t + 1) * (i + 2) mod 17. *)
let ramp t i = (t + 1) * (i + 2) mod 17

(* Input ports read with readPortArray carry arrays, not ints. The
   kinds are recovered syntactically from the class's own bodies (a
   reaction that delegates its port reads to another class is out of
   scope and will surface as a runtime error). *)
let input_kinds checked ~cls ~n_in =
  let arrays = Hashtbl.create 4 in
  let graph = Analysis.Call_graph.build checked in
  let facts = Analysis.Facts.of_checked checked in
  List.iter
    (fun node ->
      List.iter
        (fun b ->
          Mj.Visit.iter_exprs
            (fun e ->
              match e.Mj.Ast.expr with
              | Mj.Ast.Call { mname = "readPortArray"; args = [ a ]; _ } -> (
                  match Analysis.Const_eval.const_int facts a with
                  | Some i -> Hashtbl.replace arrays i ()
                  | None -> ())
              | _ -> ())
            b.Mj.Visit.b_stmts)
        (Analysis.Call_graph.bodies graph node))
    (Analysis.Call_graph.reachable graph
       ~roots:(Option.to_list (Analysis.Call_graph.method_node graph cls "run")));
  Array.init n_in (Hashtbl.mem arrays)

(* Deterministic array payload for an array-carrying port: element k of
   port i at instant t is pixel-like, in 0..255. *)
let array_ramp ~size t i =
  Asr.Data.Int_array (Array.init size (fun k -> (t + 1) * (i + k + 2) mod 256))

let make_inputs ~kinds ~array_size t i =
  if i < Array.length kinds && kinds.(i) then D.Def (array_ramp ~size:array_size t i)
  else D.int (ramp t i)

(* The needed array length depends on constants baked into the design
   (e.g. an image's WIDTH * HEIGHT), so it is found by probing: the
   smallest power of two a throwaway reaction accepts without an
   out-of-bounds trap. *)
let calibrate_array_size ?(engine = Elaborate.Engine_vm) ~kinds checked ~cls =
  let rec probe size =
    if size > 1 lsl 20 then 1
    else
      let ok =
        match
          let elab =
            Elaborate.elaborate ~engine ~enforce_policy:false
              ~bounded_memory:false checked ~cls
          in
          let n_in, _ = Elaborate.ports elab in
          Elaborate.react elab
            (Array.init n_in (make_inputs ~kinds ~array_size:size 0))
        with
        | _ -> true
        | exception Mj_runtime.Heap.Runtime_error _ -> false
      in
      if ok then size else probe (size * 2)
  in
  probe 1

(* The abstraction function α maps a low-level schedule trace to the
   instant's ASR outputs: of all port-write events in the trace, the
   last write to each port defines that port's value for the instant;
   unwritten ports are ⊥, and so is a port whose last write was [null].
   Array payloads were copied at write time by the machine, so later
   in-place mutations do not leak in. MJ ports carry [int] and [int[]]
   only; any other value on a port is a fault, not a silent drop. *)
let port_data value =
  let int_of = function
    | Mj_runtime.Value.Int n -> n
    | v ->
        invalid_arg
          ("abstract_outputs: " ^ Mj_runtime.Value.to_display v
         ^ " on a port is not an int")
  in
  match value with
  | T.Scalar Mj_runtime.Value.Null -> D.Bottom
  | T.Scalar v -> D.int (int_of v)
  | T.Elements a -> D.int_array (Array.map int_of a)

let abstract_outputs ~n_out (events : T.event list) =
  let outs = Array.make n_out D.Bottom in
  List.iter
    (fun (e : T.event) ->
      match e.access with
      | Port { native = "writePort" | "writePortArray"; port; value }
        when 0 <= port && port < n_out ->
          outs.(port) <- port_data value
      | Port _ | Read_static _ | Write_static _ -> ())
    events;
  outs

(* The deterministic instant stream of the refined program: the
   elaborated reaction as a one-block ASR system, driven on the input
   ramp under the given fixpoint strategy. The block is re-applicable,
   so even strategies that apply it several times per instant (chaotic
   iteration) see single-application semantics. *)
let spec_stream ?(inputs = fun t i -> D.int (ramp t i)) ~strategy ~instants
    checked ~cls =
  let elab =
    Elaborate.elaborate ~enforce_policy:false ~bounded_memory:false checked
      ~cls
  in
  let n_in, n_out = Elaborate.ports elab in
  let g, new_instant = Elaborate.system elab in
  let sim = Asr.Simulate.create ~strategy g in
  let stream =
    List.init instants (fun t ->
        List.init n_in (fun i -> (string_of_int i, inputs t i)))
  in
  let trace =
    List.concat_map
      (fun bindings ->
        new_instant ();
        Asr.Simulate.run sim [ bindings ])
      stream
  in
  List.map
    (fun (te : Asr.Simulate.trace_entry) ->
      Array.init n_out (fun j ->
          List.assoc (string_of_int j) te.Asr.Simulate.outputs))
    trace

(* One seeded schedule of the unrestricted program: run each instant's
   reaction under the pluggable scheduler, abstract the recorded trace.
   Threads started by the reaction really interleave here — this is
   the nondeterministic low-level semantics the refined stream must be
   an abstraction of. [branched] is set when any instant's scheduler
   had a choice, also when the schedule raises. *)
let low_schedule ~branched ~inputs ~seed ~instants checked ~cls =
  let elab =
    Elaborate.elaborate ~enforce_policy:false ~bounded_memory:false checked
      ~cls
  in
  let n_in, n_out = Elaborate.ports elab in
  List.init instants (fun t ->
      let inputs = Array.init n_in (inputs t) in
      let events =
        Fun.protect
          ~finally:(fun () ->
            if T.last_run_branched () then branched := true)
          (fun () ->
            T.run ~policy:(T.Seeded seed)
              (fun () -> ignore (Elaborate.react elab inputs)))
      in
      abstract_outputs ~n_out events)

let low_stream ?(inputs = fun t i -> D.int (ramp t i)) ~seed ~instants
    checked ~cls =
  low_schedule ~branched:(ref false) ~inputs ~seed ~instants checked ~cls

type correspondence = {
  c_schedules : int;      (* seeded schedules covered *)
  c_executed : int;       (* seeded schedules actually run *)
  c_exhaustive : bool;    (* no executed run had a scheduling choice *)
  c_instants : int;
  c_strategies : string list;
  c_checked : int;        (* instant correspondences checked *)
  c_failures : string list;
}

let coverage c = if c.c_exhaustive then "exhaustive" else "sampled"

let stream_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2 D.equal x y)
       a b

let diverging_instant spec low =
  let rec go t spec low =
    match (spec, low) with
    | [], [] -> None
    | s :: spec, l :: low ->
        if Array.length s = Array.length l && Array.for_all2 D.equal s l then
          go (t + 1) spec low
        else Some t
    | _ -> Some t
  in
  go 0 spec low

let trace_correspondence ?(schedules = 100) ?(instants = 8) ?array_size
    program ~cls =
  let outcome = Engine.refine program in
  let refined = outcome.Engine.checked in
  let unrestricted = Mj.Typecheck.check program in
  let n_in =
    let elab =
      Elaborate.elaborate ~enforce_policy:false ~bounded_memory:false
        unrestricted ~cls
    in
    fst (Elaborate.ports elab)
  in
  let kinds = input_kinds unrestricted ~cls ~n_in in
  let array_size =
    match array_size with
    | Some s -> s
    | None ->
        if Array.exists Fun.id kinds then
          calibrate_array_size ~kinds unrestricted ~cls
        else 1
  in
  let inputs = make_inputs ~kinds ~array_size in
  (* Chaotic iteration re-applies blocks within an instant, and
     re-running run() would double-step any stateful design. The
     re-applicable embedding ([Elaborate.to_reapplicable_block]) runs
     the reaction once per instant and answers re-applications with its
     outputs, so all four strategies are checked. *)
  let strategies =
    [ Asr.Fixpoint.Chaotic; Asr.Fixpoint.Scheduled; Asr.Fixpoint.Worklist;
      Asr.Fixpoint.Fused ]
  in
  let failures = ref [] in
  let checked_count = ref 0 in
  let executed = ref 0 and branched = ref false in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let specs =
    List.map
      (fun strategy ->
        ( Asr.Fixpoint.strategy_name strategy,
          spec_stream ~inputs ~strategy ~instants refined ~cls ))
      strategies
  in
  (match specs with
  | [] -> ()
  | (name0, spec0) :: rest ->
      (* The refined stream is deterministic: every strategy computes
         the same instants. *)
      List.iter
        (fun (name, spec) ->
          incr checked_count;
          if not (stream_equal spec0 spec) then
            fail "strategy %s diverges from %s" name name0)
        rest;
      (* Seed 1 runs first. If none of its picks had a choice, every
         seed replays its execution ([Threads.last_run_branched]), so
         its result — stream or exception — stands for seeds 2..N;
         each seed is still counted and reported on its own. *)
      let execute seed =
        incr executed;
        match
          low_schedule ~branched ~inputs ~seed ~instants unrestricted ~cls
        with
        | low -> Ok low
        | exception e -> Error e
      in
      let first = lazy (execute 1) in
      for seed = 1 to schedules do
        let result =
          if seed > 1 && !branched then execute seed else Lazy.force first
        in
        incr checked_count;
        match result with
        | Ok low -> (
            match diverging_instant spec0 low with
            | None -> ()
            | Some t ->
                fail "seed %d: abstracted trace diverges from the refined \
                      stream at instant %d"
                  seed t)
        | Error e ->
            fail "seed %d: schedule raised %s" seed (Printexc.to_string e)
      done);
  { c_schedules = schedules; c_executed = !executed;
    c_exhaustive = !executed > 0 && not !branched; c_instants = instants;
    c_strategies = List.map fst specs; c_checked = !checked_count;
    c_failures = List.rev !failures }
