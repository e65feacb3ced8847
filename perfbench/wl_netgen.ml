(* netgen-fused and netgen-observed: one instant of a ~10^4-block
   generated net (the fusion bench's 10764-block shape) under the Fused
   strategy, bare or with every attachment on. Both use the same net
   and input stream for a seed, so the difference between them is the
   cost of observing the run. *)

open Common

let shape = function Full -> (400, 25) | Smoke -> (6, 8)

(* The net is fixed: the fusion bench's 10^4-row net (generator seed
   271 + 10000). Nets drawn from other generator seeds differ by about
   5% in block evaluations per instant, which would blur a run-to-run
   comparison; the benchmark seed drives the input stream and the fault
   plan instead. *)
let net_seed = 10_271

let generate size =
  let depth, width = shape size in
  Spans.with_span "asr.netgen" (fun () ->
      Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
        ~seed:net_seed ~depth ~width ())

(* A seeded input stream, cycled by the loop: instant [t] reads entry
   [t mod length]. *)
let stream size ~seed g =
  let length = match size with Full -> 4096 | Smoke -> 64 in
  let rng = Random.State.make [| seed; 0x57 |] in
  let labels = Workloads.Netgen.input_labels g in
  Array.init length (fun _ ->
      List.map (fun l -> (l, Asr.Domain.int (Random.State.int rng 97))) labels)

let outputs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (la, va) (lb, vb) -> la = lb && Asr.Domain.equal va vb)
       a b

let streams_equal a b =
  List.length a = List.length b && List.for_all2 outputs_equal a b

(* Run [n] instants of [stream] on a fresh simulator, return outputs. *)
let replay sim stream n =
  List.init n (fun t -> Asr.Simulate.step sim stream.(t mod Array.length stream))

let prefix = function Full -> 256 | Smoke -> 16

(* Smoke nets react in microseconds; cap their loops so a smoke pass
   stays small. *)
let max_ops = function Full -> max_int | Smoke -> 400

(* ---- netgen-fused ------------------------------------------------- *)

type fused = {
  f_graph : Asr.Graph.t;
  f_stream : (string * Asr.Domain.t) list array;
  f_sim : Asr.Simulate.t;
}

let setup_fused size ~seed () =
  let g = generate size in
  if Spans.enabled () then begin
    (* The phases [Simulate.create] runs internally, timed on their own
       for the per-layer set-up split (traced run only). *)
    let compiled =
      Spans.with_span "asr.graph_compile" (fun () -> Asr.Graph.compile g)
    in
    let schedule =
      Spans.with_span "asr.schedule" (fun () -> Asr.Schedule.of_compiled compiled)
    in
    ignore
      (Spans.with_span "asr.fuse_compile" (fun () ->
           Asr.Fuse.compile ~schedule compiled))
  end;
  let sim =
    Spans.with_span "asr.simulate_create" (fun () ->
        Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused g)
  in
  { f_graph = g; f_stream = stream size ~seed g; f_sim = sim }

let setup_names =
  [ "asr.netgen"; "asr.graph_compile"; "asr.schedule"; "asr.fuse_compile";
    "asr.simulate_create" ]

let step sim inputs =
  Spans.with_span "asr.simulate.step" (fun () -> Asr.Simulate.step sim inputs)

let run_fused size ~seed ~seconds o =
  let st, setup_s, setups = repeat_setup ~seconds (setup_fused size ~seed) in
  let setup_layers = setup_layers ~setups setup_names in
  let p = prefix size in
  let recorded = ref [] and evals_at_prefix = ref 0 in
  let loop =
    closed_loop ~seconds ~min_ops:p ~max_ops:(max_ops size) o
      ~op:(fun i -> step st.f_sim st.f_stream.(i mod Array.length st.f_stream))
      ~check:(fun i out ->
        if i < p then recorded := out :: !recorded;
        if i = p - 1 then
          evals_at_prefix := Asr.Simulate.block_evaluations st.f_sim)
  in
  (* Fused outputs on the stream prefix equal the Worklist reference. *)
  let reference =
    replay
      (Asr.Simulate.create ~strategy:Asr.Fixpoint.Worklist st.f_graph)
      st.f_stream p
  in
  check o (streams_equal (List.rev !recorded) reference)
    "fused outputs differ from Worklist on the first %d instants" p;
  let plan = Option.get (Asr.Simulate.fuse_plan st.f_sim) in
  let exact =
    [ metric "asr.block_evals_per_instant" "count"
        (float_of_int !evals_at_prefix /. float_of_int p);
      metric "asr.fuse.constant_nets" "count"
        (float_of_int (List.length (Asr.Fuse.constant_nets plan))) ]
  in
  { e2e = end_to_end ~setup_s loop; exact; layers = []; setup_layers; loop }

(* ---- netgen-observed ---------------------------------------------- *)

let checkpoint_every = function Full -> 250 | Smoke -> 8

let causal_capacity = 65_536

(* Three seeded faults, first faulty instants in [50, 300): the run
   always has a fault-free prefix to compare with the bare net, and
   every fault has fired (and persistent ones are quarantined) before
   the loop's minimum length, so the fault counts are exact. *)
let fault_window = function Full -> (50, 250) | Smoke -> (4, 8)

let min_observed_ops = function Full -> 400 | Smoke -> 24

type observed = {
  o_graph : Asr.Graph.t;  (* clean, uninstrumented *)
  o_stream : (string * Asr.Domain.t) list array;
  o_injector : Asr.Inject.t;
  o_sim : Asr.Simulate.t;
  o_first_fault : int;
}

let monitor_for snapshots =
  Telemetry.Monitor.create ~snapshot_every:100
    ~snapshot_sink:(fun line ->
      output_string snapshots line;
      output_char snapshots '\n')
    ()

let setup_observed size ~seed ~snapshots () =
  let g = generate size in
  let compiled =
    Spans.with_span "asr.graph_compile" (fun () -> Asr.Graph.compile g)
  in
  let offset, span = fault_window size in
  let plan =
    Asr.Inject.plan ~seed
      ~n_blocks:(Array.length compiled.Asr.Graph.c_blocks)
      ~instants:span ~n_faults:3 ()
    |> List.map (fun s ->
           { s with Asr.Inject.i_instant = s.Asr.Inject.i_instant + offset })
  in
  let injector = Asr.Inject.make plan in
  let sim =
    Spans.with_span "asr.simulate_create" (fun () ->
        Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused
          ~supervisor:(Asr.Supervisor.create ~policy:Asr.Supervisor.Hold_last ())
          ~monitor:(monitor_for snapshots)
          ~causal:
            (Telemetry.Causal.create ~capacity:causal_capacity
               ~n_nets:compiled.Asr.Graph.n_nets ())
          (Asr.Inject.instrument injector g))
  in
  { o_graph = g;
    o_stream = stream size ~seed g;
    o_injector = injector;
    o_sim = sim;
    o_first_fault =
      List.fold_left (fun acc s -> min acc s.Asr.Inject.i_instant) max_int plan }

type saved = { s_path : string; s_instant : int; s_bytes : int }

let observed_step st i =
  let out = step st.o_sim st.o_stream.(i mod Array.length st.o_stream) in
  Spans.with_span "asr.inject.tick" (fun () -> Asr.Inject.tick st.o_injector);
  out

(* Serialized bytes of the checkpoint's largest sections; every other
   top-level key is summed into [other]. *)
let sections = [ "causal"; "supervisor"; "nets"; "prev_nets"; "monitor" ]

let section_bytes ck =
  let fields =
    match Asr.Checkpoint.to_json ck with
    | Telemetry.Json.Obj fields ->
        List.map
          (fun (k, v) -> (k, String.length (Telemetry.Json.to_string v)))
          fields
    | _ -> []
  in
  let bytes k = Option.value (List.assoc_opt k fields) ~default:0 in
  let other =
    List.fold_left
      (fun acc (k, n) -> if List.mem k sections then acc else acc + n)
      0 fields
  in
  List.map
    (fun (k, n) ->
      metric ("asr.checkpoint.section_bytes." ^ k) "bytes" (float_of_int n))
    (List.map (fun k -> (k, bytes k)) sections @ [ ("other", other) ])

let run_observed size ~seed ~seconds o =
  with_scratch "observed" @@ fun dir ->
  let snapshots = open_out (Filename.concat dir "snapshots.ndjson") in
  Fun.protect ~finally:(fun () -> close_out_noerr snapshots) @@ fun () ->
  let st, setup_s, setups = repeat_setup ~seconds (setup_observed size ~seed ~snapshots) in
  let setup_layers =
    setup_layers ~setups [ "asr.netgen"; "asr.graph_compile"; "asr.simulate_create" ]
  in
  let every = checkpoint_every size in
  let saves = ref [] and first_ck = ref None in
  let since_save = ref [] and before_fault = ref [] in
  let causal = Option.get (Asr.Simulate.causal st.o_sim) in
  let supervisor = Option.get (Asr.Simulate.supervisor st.o_sim) in
  let causal_at_first = ref (0, 0) in
  let between i =
    if (i + 1) mod every = 0 then begin
      let ck =
        Spans.with_span "asr.checkpoint.capture" (fun () ->
            Asr.Checkpoint.capture ~system:"netgen-observed" ~seed
              ~injector:st.o_injector st.o_sim)
      in
      let path = Filename.concat dir (Printf.sprintf "checkpoint-%d.json" (i + 1)) in
      Spans.with_span "asr.checkpoint.save" (fun () ->
          Asr.Checkpoint.save
            ?monitor:(Asr.Simulate.monitor st.o_sim)
            ck path);
      (match !saves with
      | prev :: _ -> Sys.remove prev.s_path
      | [] ->
          first_ck := Some ck;
          causal_at_first :=
            (Telemetry.Causal.pushed causal, Telemetry.Causal.overwrites causal));
      saves :=
        { s_path = path; s_instant = i + 1; s_bytes = (Unix.stat path).Unix.st_size }
        :: !saves;
      since_save := []
    end
  in
  let loop =
    closed_loop ~between ~seconds ~min_ops:(min_observed_ops size)
      ~max_ops:(max_ops size) o
      ~op:(observed_step st)
      ~check:(fun i out ->
        if i < st.o_first_fault then before_fault := out :: !before_fault;
        since_save := out :: !since_save)
  in
  let instants = Array.length loop.latencies in
  (* Outputs before the first injected fault equal the bare net's. *)
  let n_before = min instants st.o_first_fault in
  let bare =
    replay (Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused st.o_graph)
      st.o_stream n_before
  in
  check o
    (streams_equal (List.rev !before_fault) bare)
    "observed outputs differ from the bare net before the first fault (%d instants)"
    n_before;
  (* Loading and resuming the last checkpoint replays the rest of the
     run bit-identically. *)
  let last = List.hd !saves in
  let ck =
    Spans.with_span "asr.checkpoint.load" (fun () ->
        Asr.Checkpoint.load last.s_path)
  in
  let discard = open_out (Filename.concat dir "resumed.ndjson") in
  let resumed =
    Fun.protect ~finally:(fun () -> close_out_noerr discard) @@ fun () ->
    let r = Asr.Checkpoint.resume ~monitor:(monitor_for discard) ck st.o_graph in
    let injector = Option.get r.Asr.Checkpoint.r_injector in
    let outs =
      List.init (instants - last.s_instant) (fun k ->
          let t = last.s_instant + k in
          let out =
            Asr.Simulate.step r.Asr.Checkpoint.r_sim
              st.o_stream.(t mod Array.length st.o_stream)
          in
          Asr.Inject.tick injector;
          out)
    in
    (outs, r)
  in
  let outs, r = resumed in
  let final sim = Asr.Simulate.export_state sim in
  let faults sim = Asr.Supervisor.faults (Option.get (Asr.Simulate.supervisor sim)) in
  check o
    (streams_equal outs (List.rev !since_save)
    && final r.Asr.Checkpoint.r_sim = final st.o_sim
    && faults r.Asr.Checkpoint.r_sim = faults st.o_sim)
    "resume from instant %d does not replay the run" last.s_instant;
  let first = List.nth !saves (List.length !saves - 1) in
  let pushed, overwrites = !causal_at_first in
  let faults = Asr.Supervisor.faults supervisor in
  let exact =
    [ metric "artifact_bytes" "bytes" (float_of_int first.s_bytes);
      metric "telemetry.causal.events_per_instant" "count"
        (float_of_int pushed /. float_of_int first.s_instant);
      metric "telemetry.causal.overwrites" "count" (float_of_int overwrites);
      metric "asr.supervisor.faults" "count" (float_of_int (List.length faults));
      metric "asr.supervisor.contained" "count"
        (float_of_int
           (List.length
              (List.filter
                 (fun f -> f.Asr.Supervisor.f_action <> Asr.Supervisor.Aborted)
                 faults))) ]
  in
  let by_name = Spans.self_by_name (Spans.recorded ()) in
  let per_call name =
    match Hashtbl.find_opt by_name name with
    | Some (ns, calls) when calls > 0 ->
        [ metric (name ^ "_ms") "ms" (ns /. 1e6 /. float_of_int calls) ]
    | _ -> []
  in
  let layers =
    per_call "asr.checkpoint.capture" @ per_call "asr.checkpoint.save"
    @ per_call "asr.checkpoint.load"
    @ (if Spans.enabled () then section_bytes (Option.get !first_ck) else [])
  in
  { e2e = end_to_end ~setup_s loop; exact; layers; setup_layers; loop }

(* ---- isolation rows (traced run) ---------------------------------- *)

(* Per-strategy rows and attachment-isolation rows on the netgen-fused
   net and stream: each strategy runs bare, and each attachment runs
   alone under Fused, for [seconds] each. Attachment costs are ratios
   of the median instant to the bare Fused median; the checkpoint-only
   row compares mean instant times, since its cost lands on one
   instant in [checkpoint_every]. *)
let isolation size ~seed ~seconds o =
  with_scratch "isolation" @@ fun dir ->
  let g = generate size in
  let stream = stream size ~seed g in
  let n_nets = (Asr.Graph.compile g).Asr.Graph.n_nets in
  let measure ?between sim =
    let l =
      closed_loop ?between ~seconds ~min_ops:50 ~max_ops:(max_ops size) o
        ~op:(fun i -> Asr.Simulate.step sim stream.(i mod Array.length stream))
        ~check:(fun _ _ -> ())
    in
    (Stats.median l.latencies, l.loop_s /. float_of_int (Array.length l.latencies))
  in
  let fused ?supervisor ?monitor ?causal () =
    Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ?supervisor ?monitor
      ?causal g
  in
  (* The bare row runs first and last and its base is the mean of both,
     so heap growth and cache warm-up do not land on one side. *)
  let bare1, bare_mean1 = measure (fused ()) in
  let strategy s = fst (measure (Asr.Simulate.create ~strategy:s g)) in
  let worklist = strategy Asr.Fixpoint.Worklist in
  let scheduled = strategy Asr.Fixpoint.Scheduled in
  let supervisor = fst (measure (fused ~supervisor:(Asr.Supervisor.create ()) ())) in
  let monitor =
    fst
      (measure
         (fused
            ~monitor:
              (Telemetry.Monitor.create ~snapshot_every:100
                 ~snapshot_sink:(fun _ -> ()) ())
            ()))
  in
  let causal =
    fst
      (measure
         (fused
            ~causal:(Telemetry.Causal.create ~capacity:causal_capacity ~n_nets ())
            ()))
  in
  let checkpoint =
    let sim = fused () in
    let every = checkpoint_every size in
    let path = Filename.concat dir "checkpoint.json" in
    let between i =
      if (i + 1) mod every = 0 then
        Asr.Checkpoint.save
          (Asr.Checkpoint.capture ~system:"netgen-fused" ~seed sim)
          path
    in
    snd (measure ~between sim)
  in
  let bare2, bare_mean2 = measure (fused ()) in
  let bare = (bare1 +. bare2) /. 2.0 in
  let bare_mean = (bare_mean1 +. bare_mean2) /. 2.0 in
  let us v = v *. 1e6 in
  [ metric "asr.fused.instant_us" "us" (us bare);
    metric "asr.worklist.instant_us" "us" (us worklist);
    metric "asr.scheduled.instant_us" "us" (us scheduled);
    metric "asr.supervisor.overhead" "ratio" (supervisor /. bare);
    metric "telemetry.monitor.overhead" "ratio" (monitor /. bare);
    metric "telemetry.causal.overhead" "ratio" (causal /. bare);
    metric "asr.checkpoint.overhead" "ratio" (checkpoint /. bare_mean) ]
