(* Text-only reproductions of the paper's evaluation: Table 1, Figs.
   1-8 and the restriction ablation (EXPERIMENTS.md maps each to the
   paper and records paper-vs-measured values). Times are reported two
   ways: deterministic cost-model cycles scaled to seconds at the
   paper's 150 MHz clock, and measured wall-clock seconds. *)

let clock_hz = 150e6

let wall = Fixtures.wall

let modeled cycles = float_of_int cycles /. clock_hz

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type cell = {
  c_init_cycles : int;
  c_react_cycles : int;
  c_init_wall : float;
  c_react_wall : float;
}

(* 64 KiB young space, in the JDK-1.1 mould: reactive allocation beyond
   it triggers a modeled stop-the-world pause. The restricted codec never
   allocates reactively, so only the unrestricted variant pays. *)
let gc_threshold = 16_384

let run_codec ~engine ~source ~image ~reactions =
  let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
  let (elab, init_wall) =
    wall (fun () ->
        Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
          ~bounded_memory:false ~gc_threshold checked ~cls:"JpegCodec")
  in
  let react () =
    match Javatime.Elaborate.react elab [| Asr.Domain.int_array image |] with
    | [| Asr.Domain.Def (Asr.Data.Int_array reconstructed);
         Asr.Domain.Def (Asr.Data.Int stream_len) |] ->
        (reconstructed, stream_len)
    | _ -> failwith "unexpected codec outputs"
  in
  (* warm once (JIT translation happens on first call), then measure *)
  let first, _ = wall react in
  let cycles_before = Javatime.Elaborate.total_cycles elab in
  let (_, react_wall) =
    wall (fun () ->
        for _ = 1 to reactions do
          ignore (react ())
        done)
  in
  let react_cycles =
    (Javatime.Elaborate.total_cycles elab - cycles_before) / reactions
  in
  ( { c_init_cycles = Javatime.Elaborate.init_cycles elab;
      c_react_cycles = react_cycles;
      c_init_wall = init_wall;
      c_react_wall = react_wall /. float_of_int reactions },
    first )

let program_size source classes =
  let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
  let image = Mj_bytecode.Compile.compile checked in
  Mj_bytecode.Classfile.program_size image ~classes

let table1 ~small () =
  let width = if small then 48 else Workloads.Images.paper_width in
  let height = if small then 40 else Workloads.Images.paper_height in
  let reactions = if small then 2 else 1 in
  let image = Workloads.Images.synthetic ~width ~height in
  let unrestricted = Workloads.Jpeg_mj.unrestricted_source ~width ~height () in
  let restricted = Workloads.Jpeg_mj.restricted_source ~width ~height () in
  Printf.printf
    "Table 1: unrestricted vs restricted JPEG (%dx%d image, %d reaction(s))\n\n"
    width height reactions;
  let engines =
    [ ("MJVM interpreter (cf. Sun JDK 1.1.4)", Javatime.Elaborate.Engine_vm);
      ("closure backend  (cf. Cafe JIT)", Javatime.Elaborate.Engine_jit) ]
  in
  let results =
    List.map
      (fun (label, engine) ->
        let (u, out_u) = run_codec ~engine ~source:unrestricted ~image ~reactions in
        let (r, out_r) = run_codec ~engine ~source:restricted ~image ~reactions in
        if out_u <> out_r then
          print_endline "WARNING: variants disagree on outputs!";
        (label, u, r))
      engines
  in
  Printf.printf
    "%-38s %14s %14s %12s\n" "" "unrestricted" "restricted" "restr/unr";
  List.iter
    (fun (label, u, r) ->
      Printf.printf "%s\n" label;
      let row name uv rv =
        Printf.printf "  %-36s %14.3f %14.3f %12.2f\n" name uv rv (rv /. uv)
      in
      row "initialization, modeled s" (modeled u.c_init_cycles)
        (modeled r.c_init_cycles);
      row "reaction, modeled s" (modeled u.c_react_cycles)
        (modeled r.c_react_cycles);
      row "initialization, wall s" u.c_init_wall r.c_init_wall;
      row "reaction, wall s" u.c_react_wall r.c_react_wall)
    results;
  let size_u =
    program_size unrestricted Workloads.Jpeg_mj.unrestricted_classes
  in
  let size_r = program_size restricted Workloads.Jpeg_mj.restricted_classes in
  Printf.printf "%-38s %14d %14d %12.2f\n" "program size (bytes)" size_u size_r
    (float_of_int size_r /. float_of_int size_u);
  print_newline ();
  print_endline "paper reported (130x135, 150 MHz Pentium):";
  print_endline "  JDK:  init 2.36 -> 5.12 s (2.2x);  reaction 39.5 -> 20.6 s (0.52x)";
  print_endline "  JIT:  init 0.56 -> 0.93 s (1.7x);  reaction  6.9 ->  3.3 s (0.47x)";
  print_endline "  size: 57.5k -> 58.1k (1.01x)"

(* ------------------------------------------------------------------ *)
(* Fig. 1: policy of use carves S' out of S                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  print_endline "Fig. 1: the ASR policy of use (restrictions defining S')";
  print_newline ();
  List.iter
    (fun rule ->
      Printf.printf "  %-24s %s\n" rule.Policy.Rule.id rule.Policy.Rule.title)
    Policy.Asr_policy.rules;
  print_newline ();
  print_endline "membership of the bundled designs:";
  let verdict name source =
    let checked = Mj.Typecheck.check_source ~file:(name ^ ".mj") source in
    let violations = Policy.Asr_policy.check checked in
    let blocking =
      List.length (List.filter Policy.Rule.is_blocking violations)
    in
    Printf.printf "  %-28s %s (%d violation(s))\n" name
      (if blocking = 0 then "in S' (compliant)" else "in S \\ S'")
      (List.length violations)
  in
  verdict "jpeg-unrestricted"
    (Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ());
  verdict "jpeg-restricted"
    (Workloads.Jpeg_mj.restricted_source ~width:48 ~height:40 ());
  verdict "fir-unrestricted" Workloads.Fir_mj.unrestricted_source;
  verdict "traffic-light" Workloads.Traffic_mj.source;
  verdict "fig8-threaded" Workloads.Fig8_mj.threaded_source;
  verdict "fig8-refined-blocks" Workloads.Fig8_mj.refined_blocks_source

(* ------------------------------------------------------------------ *)
(* Fig. 2: SFR moves P into S'                                         *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  print_endline "Fig. 2: successive formal refinement traces";
  print_newline ();
  let trace name source =
    Printf.printf "-- %s --\n" name;
    let outcome =
      Javatime.Engine.refine (Mj.Parser.parse_program ~file:(name ^ ".mj") source)
    in
    Javatime.Engine.pp_trace Format.std_formatter outcome;
    Format.print_newline ()
  in
  trace "fir" Workloads.Fir_mj.unrestricted_source;
  trace "jpeg"
    (Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ())

(* ------------------------------------------------------------------ *)
(* Fig. 3: an ASR system                                               *)
(* ------------------------------------------------------------------ *)

let fig3_graph () =
  (* Two inputs feed blocks A and B; C combines them; C's output both
     leaves the system and re-enters B through a delay element — the
     topology sketched in the paper's Fig. 3. *)
  let g = Asr.Graph.create "fig3" in
  let in1 = Asr.Graph.add_input g "i1" in
  let in2 = Asr.Graph.add_input g "i2" in
  let block_a = Asr.Graph.add_block g (Asr.Block.gain 2) in
  let block_b = Asr.Graph.add_block g Asr.Block.add in
  let block_c = Asr.Graph.add_block g Asr.Block.add in
  let fork = Asr.Graph.add_block g (Asr.Block.fork 2) in
  let delay = Asr.Graph.add_delay g ~init:(Asr.Domain.int 0) in
  let out = Asr.Graph.add_output g "o" in
  Asr.Graph.connect g ~src:(Asr.Graph.out_port in1 0) ~dst:(Asr.Graph.in_port block_a 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port in2 0) ~dst:(Asr.Graph.in_port block_b 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port delay 0) ~dst:(Asr.Graph.in_port block_b 1);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port block_a 0) ~dst:(Asr.Graph.in_port block_c 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port block_b 0) ~dst:(Asr.Graph.in_port block_c 1);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port block_c 0) ~dst:(Asr.Graph.in_port fork 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port fork 0) ~dst:(Asr.Graph.in_port out 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port fork 1) ~dst:(Asr.Graph.in_port delay 0);
  g

let fig3 () =
  print_endline "Fig. 3: an ASR system (blocks, channels, one delay element)";
  print_newline ();
  let g = fig3_graph () in
  print_string (Asr.Render.to_string g);
  print_newline ();
  print_endline "graphviz form (render with dot -Tpng):";
  print_string (Asr.Render.to_dot g);
  print_newline ();
  let sim = Asr.Simulate.create g in
  print_endline "three instants of reactive execution:";
  List.iter
    (fun (i1, i2) ->
      match
        Asr.Simulate.step sim
          [ ("i1", Asr.Domain.int i1); ("i2", Asr.Domain.int i2) ]
      with
      | [ ("o", v) ] ->
          Printf.printf "  i1=%d i2=%d  ->  o=%s\n" i1 i2 (Asr.Domain.to_string v)
      | _ -> assert false)
    [ (1, 1); (2, 0); (0, 3) ]

(* ------------------------------------------------------------------ *)
(* Fig. 4: hierarchical instants                                       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_endline "Fig. 4: hierarchical nesting of instants";
  print_newline ();
  (* MJ side: a design opens sub-instants with JTime. *)
  let source =
    {|class Protocol extends ASR {
  Protocol() { declarePorts(1, 1); }
  public void run() {
    JTime.enterInstant("message transfer");
    JTime.enterInstant("handshake");
    JTime.exitInstant();
    JTime.enterInstant("payload");
    JTime.enterInstant("word 0");
    JTime.exitInstant();
    JTime.enterInstant("word 1");
    JTime.exitInstant();
    JTime.exitInstant();
    JTime.enterInstant("acknowledge");
    JTime.exitInstant();
    JTime.exitInstant();
    writePort(0, readPort(0));
  }
}|}
  in
  let checked = Mj.Typecheck.check_source ~file:"protocol.mj" source in
  let elab = Javatime.Elaborate.elaborate checked ~cls:"Protocol" in
  ignore (Javatime.Elaborate.react elab [| Asr.Domain.int 7 |]);
  let machine = Javatime.Elaborate.machine elab in
  let root = Mj_runtime.Machine.instant_root machine in
  let rec render indent (node : Mj_runtime.Machine.instant) =
    Printf.printf "%s%s\n" indent node.Mj_runtime.Machine.label;
    List.iter (render (indent ^ "  ")) node.Mj_runtime.Machine.subs
  in
  print_endline "instants opened by one reaction of an MJ protocol block:";
  render "  " root;
  print_newline ();
  (* ASR side: a composite block's internal activity as sub-instants. *)
  let instants = Asr.Instant.make "instant 0 (outer reaction)" in
  let inner = Asr.Graph.create "inner" in
  let i = Asr.Graph.add_input inner "a" in
  let g1 = Asr.Graph.add_block inner (Asr.Block.gain 3) in
  let g2 = Asr.Graph.add_block inner (Asr.Block.gain 5) in
  let o = Asr.Graph.add_output inner "b" in
  Asr.Graph.connect inner ~src:(Asr.Graph.out_port i 0) ~dst:(Asr.Graph.in_port g1 0);
  Asr.Graph.connect inner ~src:(Asr.Graph.out_port g1 0) ~dst:(Asr.Graph.in_port g2 0);
  Asr.Graph.connect inner ~src:(Asr.Graph.out_port g2 0) ~dst:(Asr.Graph.in_port o 0);
  let composite = Asr.Compose.to_block ~instants inner in
  ignore (Asr.Block.apply composite [| Asr.Domain.int 2 |]);
  print_endline "sub-instants of one application of a composite ASR block:";
  print_string (Asr.Instant.to_string instants);
  Printf.printf "tree: depth %d, %d nodes\n" (Asr.Instant.depth instants)
    (Asr.Instant.count instants);
  print_newline ();
  (* The paper's own example: "communication of a message between two
     processors may be viewed as a single instant, rather than as a
     multitude of instants representing the detailed protocol
     activities." One byte through the UART pair: *)
  let checked = Mj.Typecheck.check_source ~file:"uart.mj" Workloads.Uart_mj.source in
  let tx =
    Javatime.Elaborate.elaborate checked ~cls:Workloads.Uart_mj.serializer_class
  in
  let rx =
    Javatime.Elaborate.elaborate checked ~cls:Workloads.Uart_mj.deserializer_class
  in
  let byte = 0x5A in
  let delivered = ref (-1) in
  let detail_instants = ref 0 in
  for i = 1 to Workloads.Uart_mj.frame_instants do
    incr detail_instants;
    let word = if i = 1 then byte else -1 in
    match Javatime.Elaborate.react tx [| Asr.Domain.int word |] with
    | [| line; _busy |] -> (
        match Javatime.Elaborate.react rx [| line |] with
        | [| completed |] -> (
            match Asr.Domain.to_int completed with
            | Some c when c >= 0 -> delivered := c
            | _ -> ())
        | _ -> ())
    | _ -> ()
  done;
  Printf.printf
    "message transfer over the UART pair: 1 abstract instant = %d detail      instants (byte 0x%02X delivered as 0x%02X)\n"
    !detail_instants byte !delivered

(* ------------------------------------------------------------------ *)
(* Fig. 5: spatial abstraction                                         *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  print_endline "Fig. 5: blocks + delays  ==  one block + one delay";
  print_newline ();
  let g = fig3_graph () in
  let abstracted = Asr.Compose.abstract g in
  Printf.printf "original:   %s\n" (Asr.Render.summary g);
  Printf.printf "abstracted: %s\n" (Asr.Render.summary abstracted);
  let sim1 = Asr.Simulate.create g in
  let sim2 = Asr.Simulate.create abstracted in
  let rng = Random.State.make [| 5 |] in
  let mismatches = ref 0 in
  let instants = 200 in
  for _ = 1 to instants do
    let i1 = Random.State.int rng 100 and i2 = Random.State.int rng 100 in
    let inputs = [ ("i1", Asr.Domain.int i1); ("i2", Asr.Domain.int i2) ] in
    if Asr.Simulate.step sim1 inputs <> Asr.Simulate.step sim2 inputs then
      incr mismatches
  done;
  Printf.printf "I/O equivalence over %d random instants: %s\n" instants
    (if !mismatches = 0 then "EQUAL" else Printf.sprintf "%d mismatches" !mismatches)

(* ------------------------------------------------------------------ *)
(* Fig. 6: threads define a partial order                              *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline "Fig. 6: Java threads specify a partial order of events";
  print_newline ();
  List.iter
    (fun seed ->
      let output, trace = Workloads.Fig8_mj.run_threaded ~seed in
      Printf.printf "schedule (seed %d): result %s" seed output;
      List.iter
        (fun e ->
          Printf.printf "    [thread %d] %s\n" e.Mj_runtime.Threads.thread
            (Mj_runtime.Threads.description e))
        trace;
      print_newline ())
    [ 0; 1; 3 ];
  print_endline
    "the per-thread orders are fixed; the cross-thread order is not -";
  print_endline "different linearizations of the same partial order differ in result."

(* ------------------------------------------------------------------ *)
(* Fig. 7: encapsulation in the ASR class                              *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  print_endline "Fig. 7: an MJ design encapsulated in the ASR base class";
  print_newline ();
  let checked = Mj.Typecheck.check_source Workloads.Traffic_mj.source in
  let elab = Javatime.Elaborate.elaborate checked ~cls:"TrafficLight" in
  let n_in, n_out = Javatime.Elaborate.ports elab in
  Printf.printf "class TrafficLight extends ASR\n";
  Printf.printf "  input ports:  %d (car sensor)\n" n_in;
  Printf.printf "  output ports: %d (main light, side light)\n" n_out;
  Printf.printf "  initialization: %d cycles (constructor = fabrication + reset)\n"
    (Javatime.Elaborate.init_cycles elab);
  (match Policy.Time_bound.reaction_bound checked ~cls:"TrafficLight" with
  | Policy.Time_bound.Cycles n ->
      Printf.printf "  static worst-case reaction bound: %d cycles\n" n
  | Policy.Time_bound.Unbounded why -> Printf.printf "  unbounded: %s\n" why);
  ignore (Javatime.Elaborate.react elab [| Asr.Domain.int 0 |]);
  Printf.printf "  observed reaction: %d cycles\n"
    (Javatime.Elaborate.last_reaction_cycles elab);
  let stats =
    Mj_runtime.Heap.stats (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap
  in
  Printf.printf
    "  heap: %d init-phase allocation(s), %d reactive allocation(s) \
     (bounded-memory enforcement armed)\n"
    stats.Mj_runtime.Heap.init_allocations
    stats.Mj_runtime.Heap.reactive_allocations;
  print_endline "  protocol per instant: environment writes input ports,";
  print_endline "  invokes run() (atomic from outside), reads output ports."

(* ------------------------------------------------------------------ *)
(* Fig. 8: nondeterministic thread interaction                         *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  print_endline "Fig. 8: nondeterministic thread interaction on shared x";
  print_newline ();
  let seeds = 40 in
  let outcomes = Hashtbl.create 8 in
  for seed = 0 to seeds - 1 do
    let output, _ = Workloads.Fig8_mj.run_threaded ~seed in
    let n = try Hashtbl.find outcomes output with Not_found -> 0 in
    Hashtbl.replace outcomes output (n + 1)
  done;
  Printf.printf "threaded program over %d seeded schedules: %d distinct outcome(s)\n"
    seeds (Hashtbl.length outcomes);
  Hashtbl.iter (fun k n -> Printf.printf "    %-24s x%d" (String.trim k) n;
                 print_newline ()) outcomes;
  print_newline ();
  let runs =
    List.init 5 (fun _ -> Workloads.Fig8_mj.run_refined ~instants:4)
  in
  let all_equal = List.for_all (fun r -> r = List.hd runs) runs in
  Printf.printf
    "refined ASR version (threads as functional blocks + delay): %s\n"
    (if all_equal then "1 distinct outcome across runs (deterministic)"
     else "NONDETERMINISTIC (bug)");
  Printf.printf "    x per instant: %s\n"
    (String.concat ", " (List.map string_of_int (List.hd runs)))

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "Ablation: which restriction pays, and what stays manual";
  print_newline ();
  let width = 48 and height = 40 in
  let image = Workloads.Images.synthetic ~width ~height in
  let unrestricted = Workloads.Jpeg_mj.unrestricted_source ~width ~height () in
  let restricted = Workloads.Jpeg_mj.restricted_source ~width ~height () in
  let auto_refined =
    let outcome =
      Javatime.Engine.refine
        (Mj.Parser.parse_program ~file:"jpeg.mj" unrestricted)
    in
    Mj.Pretty.program_to_string outcome.Javatime.Engine.final
  in
  let measure name source =
    let (cell, _) =
      run_codec ~engine:Javatime.Elaborate.Engine_vm ~source ~image ~reactions:1
    in
    Printf.printf "  %-34s init %10d cy   reaction %11d cy\n" name
      cell.c_init_cycles cell.c_react_cycles;
    cell
  in
  let u = measure "unrestricted" unrestricted in
  let a = measure "auto-refined (SFR, no manual work)" auto_refined in
  let r = measure "hand-restricted" restricted in
  print_newline ();
  (* GC pauses per reaction (JDK-style collector armed above) *)
  let gc_runs name source =
    let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
    let elab =
      Javatime.Elaborate.elaborate ~engine:Javatime.Elaborate.Engine_vm
        ~enforce_policy:false ~bounded_memory:false ~gc_threshold checked
        ~cls:"JpegCodec"
    in
    ignore (Javatime.Elaborate.react elab [| Asr.Domain.int_array image |]);
    let heap = (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap in
    Printf.printf "  %-34s %d GC pause(s) per reaction\n" name
      (Mj_runtime.Heap.gc_count heap)
  in
  gc_runs "unrestricted" unrestricted;
  gc_runs "hand-restricted" restricted;
  print_newline ();
  Printf.printf
    "  automatic transformations recover %.0f%% of the reaction-time gap;\n"
    (100.0
    *. float_of_int (u.c_react_cycles - a.c_react_cycles)
    /. float_of_int (u.c_react_cycles - r.c_react_cycles));
  print_endline
    "  the rest needs the manual data-structure work (linked list -> static\n\
    \  buffers, table precomputation) the paper describes.";
  print_newline ();
  (* allocation accounting across the three versions *)
  let allocs name source =
    let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
    let elab =
      Javatime.Elaborate.elaborate ~engine:Javatime.Elaborate.Engine_vm
        ~enforce_policy:false ~bounded_memory:false checked ~cls:"JpegCodec"
    in
    ignore (Javatime.Elaborate.react elab [| Asr.Domain.int_array image |]);
    let stats =
      Mj_runtime.Heap.stats
        (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap
    in
    Printf.printf "  %-34s init allocs %5d   reactive allocs %6d\n" name
      stats.Mj_runtime.Heap.init_allocations
      stats.Mj_runtime.Heap.reactive_allocations
  in
  allocs "unrestricted" unrestricted;
  allocs "auto-refined" auto_refined;
  allocs "hand-restricted" restricted
