(* Workloads several targets share: hand-built ASR graphs and their
   stimulus, sized generated nets, the two MJ designs every engine runs,
   and the simulation helpers the ASR targets measure with. *)

module D = Asr.Domain
module G = Asr.Graph
module B = Asr.Block
module E = Javatime.Elaborate

let conn g src dst = G.connect g ~src ~dst

(* FIR filter with [taps] taps, adder chain declared output-first:
   chain position k uses the node declared at index taps-2-k, so every
   chain consumer precedes its producer in declaration order (the
   chaotic worst case). Feed-forward. *)
let fir_graph taps =
  let g = G.create (Printf.sprintf "fir%d" taps) in
  let output = G.add_output g "y" in
  let rev_adders = Array.init (taps - 1) (fun _ -> G.add_block g B.add) in
  let adders = Array.init (taps - 1) (fun k -> rev_adders.(taps - 2 - k)) in
  let gains = Array.init taps (fun k -> G.add_block g (B.gain (taps - k))) in
  let forks = Array.init (taps - 1) (fun _ -> G.add_block g (B.fork 2)) in
  let delays =
    Array.init (taps - 1) (fun _ -> G.add_delay g ~init:(D.int 0))
  in
  let input = G.add_input g "x" in
  conn g (G.out_port input 0) (G.in_port forks.(0) 0);
  for k = 0 to taps - 2 do
    (* tap k's fork feeds its gain and the next delay *)
    conn g (G.out_port forks.(k) 0) (G.in_port gains.(k) 0);
    conn g (G.out_port forks.(k) 1) (G.in_port delays.(k) 0);
    if k < taps - 2 then
      conn g (G.out_port delays.(k) 0) (G.in_port forks.(k + 1) 0)
  done;
  conn g (G.out_port delays.(taps - 2) 0) (G.in_port gains.(taps - 1) 0);
  (* adder chain *)
  conn g (G.out_port gains.(0) 0) (G.in_port adders.(0) 0);
  conn g (G.out_port gains.(1) 0) (G.in_port adders.(0) 1);
  for k = 1 to taps - 2 do
    conn g (G.out_port adders.(k - 1) 0) (G.in_port adders.(k) 0);
    conn g (G.out_port gains.(k + 1) 0) (G.in_port adders.(k) 1)
  done;
  conn g (G.out_port adders.(taps - 2) 0) (G.in_port output 0);
  g

(* Deep diamond pipeline shaped like the JPEG stage chain (each stage:
   fork -> two unary transforms -> recombine), declared output-first. *)
let pipeline_graph stages =
  let g = G.create (Printf.sprintf "pipe%d" stages) in
  let output = G.add_output g "y" in
  let stage_blocks =
    (* declare stage [stages-1] (closest to the output) first *)
    Array.init stages (fun _ ->
        let add = G.add_block g B.add in
        let hi = G.add_block g (B.gain 3) in
        let lo = G.add_block g (B.gain 2) in
        let fork = G.add_block g (B.fork 2) in
        (fork, lo, hi, add))
  in
  let input = G.add_input g "x" in
  let wire_stage (fork, lo, hi, add) src =
    conn g src (G.in_port fork 0);
    conn g (G.out_port fork 0) (G.in_port lo 0);
    conn g (G.out_port fork 1) (G.in_port hi 0);
    conn g (G.out_port lo 0) (G.in_port add 0);
    conn g (G.out_port hi 0) (G.in_port add 1);
    G.out_port add 0
  in
  let last =
    Array.fold_left
      (fun src stage -> wire_stage stage src)
      (G.out_port input 0)
      (Array.init stages (fun i -> stage_blocks.(stages - 1 - i)))
  in
  conn g last (G.in_port output 0);
  g

(* [loops] independent delay-free cycles, each resolved through the
   dead branch of a mux (genuinely cyclic SCCs, still constructive). *)
let cyclic_graph loops =
  let g = G.create (Printf.sprintf "cyclic%d" loops) in
  for i = 0 to loops - 1 do
    let sel = G.add_block g (B.const ~name:"sel" (Asr.Data.Bool true)) in
    let v = G.add_block g (B.const ~name:"v" (Asr.Data.Int i)) in
    let mux = G.add_block g B.mux in
    let fork = G.add_block g (B.fork 2) in
    let out = G.add_output g (Printf.sprintf "y%d" i) in
    conn g (G.out_port sel 0) (G.in_port mux 0);
    conn g (G.out_port v 0) (G.in_port mux 1);
    conn g (G.out_port mux 0) (G.in_port fork 0);
    conn g (G.out_port fork 0) (G.in_port mux 2);
    conn g (G.out_port fork 1) (G.in_port out 0)
  done;
  g

(* Random layered DAG with delay feedback, declaration order shuffled
   by construction: consumers draw from any previously declared source. *)
let random_graph ~seed ~inputs ~layers ~per_layer ~delays =
  let rng = Random.State.make [| seed |] in
  let g = G.create (Printf.sprintf "rand%d" seed) in
  let sources = ref [] in
  let add_source e = sources := e :: !sources in
  for i = 0 to inputs - 1 do
    let input = G.add_input g (Printf.sprintf "x%d" i) in
    add_source (G.out_port input 0)
  done;
  let delay_nodes =
    List.init delays (fun i ->
        let d = G.add_delay g ~init:(D.int i) in
        add_source (G.out_port d 0);
        d)
  in
  let pick () =
    List.nth !sources (Random.State.int rng (List.length !sources))
  in
  for _ = 1 to layers do
    for _ = 1 to per_layer do
      if Random.State.bool rng then begin
        let b = G.add_block g (B.gain (1 + Random.State.int rng 4)) in
        conn g (pick ()) (G.in_port b 0);
        add_source (G.out_port b 0)
      end
      else begin
        let b = G.add_block g B.add in
        conn g (pick ()) (G.in_port b 0);
        conn g (pick ()) (G.in_port b 1);
        add_source (G.out_port b 0)
      end
    done
  done;
  List.iter (fun d -> conn g (pick ()) (G.in_port d 0)) delay_nodes;
  let out = G.add_output g "y" in
  conn g (pick ()) (G.in_port out 0);
  g

let stimulus g ~instants =
  let names =
    List.filter_map
      (fun (_, kind) ->
        match kind with G.Kinput label -> Some label | _ -> None)
      (G.nodes g)
  in
  List.init instants (fun t ->
      List.mapi (fun i name -> (name, D.int ((t + i) mod 97))) names)

(* A generated net of about [size] blocks, at most 25 blocks wide. *)
let netgen ~seed size =
  let width = min size 25 in
  Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04 ~seed
    ~depth:(max 1 (size / width)) ~width ()

let n_blocks g = Array.length (G.compile g).G.c_blocks

(* ---- simulation helpers ------------------------------------------- *)

(* One untimed pass: per-instant outputs and block evaluations, which
   are deterministic; the simulator is reset for the timed passes. *)
let arm sim stream =
  let outputs = List.map (Asr.Simulate.step sim) stream in
  let evals = Asr.Simulate.block_evaluations sim in
  Asr.Simulate.reset sim;
  (outputs, evals)

(* Wall seconds per stream, averaged over [reps] streams. *)
let timed sim stream ~reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    List.iter (fun inputs -> ignore (Asr.Simulate.step sim inputs)) stream;
    Asr.Simulate.reset sim
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Best-of-[passes] wall for two simulators with their passes
   interleaved: an overhead gate compares two nearly identical costs,
   so a GC pause or a load shift must hit both arms alike. Which arm
   goes first alternates, so a cost one pass defers onto its successor
   is charged evenly. *)
let best_of_pair sim_off sim_on stream ~passes ~reps =
  Gc.full_major ();
  let best_off = ref infinity and best_on = ref infinity in
  for p = 1 to passes do
    let w_off, w_on =
      if p land 1 = 0 then
        let w_off = timed sim_off stream ~reps in
        (w_off, timed sim_on stream ~reps)
      else
        let w_on = timed sim_on stream ~reps in
        (timed sim_off stream ~reps, w_on)
    in
    best_off := Float.min !best_off w_off;
    best_on := Float.min !best_on w_on
  done;
  (!best_off, !best_on)

(* Drive one instant at a time, capturing each instant's whole fixed
   point (not just the output ports): containment quantifies over
   nets. *)
let run_capture ?strategy ?supervisor ?inject g stream =
  let sim = Asr.Simulate.create ?strategy ?supervisor g in
  List.map
    (fun inputs ->
      ignore (Asr.Simulate.step sim inputs);
      Option.iter Asr.Inject.tick inject;
      Asr.Simulate.net_values sim)
    stream

(* Blast-radius check of an injected run against the fault-free one:
   (nets inside the faulted blocks' influence cone, (instant, net)
   pairs compared outside it, whether every one of those is
   bit-identical). *)
let containment g specs ~clean ~faulty =
  let compiled = G.compile g in
  let affected = Array.make compiled.G.n_nets false in
  List.iter
    (fun s ->
      Array.iteri
        (fun i b -> if b then affected.(i) <- true)
        (G.affected_nets compiled s.Asr.Inject.i_block))
    specs;
  let checked = ref 0 and ok = ref true in
  List.iter2
    (fun clean_nets faulty_nets ->
      Array.iteri
        (fun n v ->
          if not affected.(n) then begin
            incr checked;
            if v <> faulty_nets.(n) then ok := false
          end)
        clean_nets)
    clean faulty;
  let n_affected =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 affected
  in
  (n_affected, !checked, !ok)

(* ---- MJ designs ------------------------------------------------------ *)

type mj = {
  name : string;
  source : string;
  cls : string;
  inputs : D.t array list;
}

(* The restricted JPEG codec (one large reaction) and the SFR-refined
   FIR (many small reactions). *)
let mj_workloads ~smoke =
  let width = if smoke then 32 else 48 in
  let height = if smoke then 24 else 40 in
  let image = Workloads.Images.synthetic ~width ~height in
  let samples = if smoke then 24 else 192 in
  let fir_refined =
    (* no hand-restricted FIR ships; SFR produces the compliant one *)
    let outcome =
      Javatime.Engine.refine
        (Mj.Parser.parse_program ~file:"fir.mj"
           Workloads.Fir_mj.unrestricted_source)
    in
    Mj.Pretty.program_to_string outcome.Javatime.Engine.final
  in
  [ { name = "jpeg-restricted";
      source = Workloads.Jpeg_mj.restricted_source ~width ~height ();
      cls = "JpegCodec";
      inputs = [ [| D.int_array image |] ] };
    { name = "fir-refined";
      source = fir_refined;
      cls = Workloads.Fir_mj.class_name;
      inputs =
        List.init samples (fun i -> [| D.int (((i * 37) mod 201) - 100) |]) }
  ]

let engines =
  [ ("interp", E.Engine_interp); ("vm", E.Engine_vm); ("jit", E.Engine_jit) ]

(* Elaborates [w] and runs every input through it, under a reaction
   budget when one is given. *)
let drive ~engine ?(elide = false) ?profile ?lines ?heap_limit ?budget w =
  let checked = Mj.Typecheck.check_source ~file:(w.name ^ ".mj") w.source in
  let elab =
    E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
      ~elide_bounds_checks:elide
      ?profile
      ?cost_lines:lines ?heap_limit_words:heap_limit checked ~cls:w.cls
  in
  let react =
    match budget with
    | Some b -> E.react_bounded elab ~budget_cycles:b
    | None -> E.react elab
  in
  let outputs = List.map react w.inputs in
  (elab, outputs)

let total_cycles ~engine ?profile ?lines ?heap_limit ?budget w =
  E.total_cycles (fst (drive ~engine ?profile ?lines ?heap_limit ?budget w))

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
