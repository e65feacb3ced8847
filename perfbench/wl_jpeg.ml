(* jpeg-codec: Table 1 on the bytecode VM and the closure backend. One
   op is one reaction in each of four cells, {VM, JIT} x {unrestricted,
   restricted}, on a seeded 48x40 image at Table 1's GC threshold. The
   paper's 130x135 size costs about 13 s per op on a 2-core host, too
   long for a repeated run; 48x40 runs the same code path. *)

open Common

let dims = function Full -> (48, 40) | Smoke -> (16, 8)

(* Table 1's young space: reactive allocation beyond 16 Ki words
   charges a modeled collector pause. *)
let gc_threshold = 16_384

(* Reconstruction quality floor against the input, in dB. The codec
   measures 30-34 dB on seeded 48x40 images. *)
let psnr_floor = 25.0

(* A crop of the synthetic test image at a seeded offset, with seeded
   per-channel noise of +-4, so every seed is a different image with
   the same structure. *)
let image ~seed ~width ~height =
  let rng = Random.State.make [| seed; 0x1be6 |] in
  let margin = 16 in
  let bw = width + margin in
  let big = Workloads.Images.synthetic ~width:bw ~height:(height + margin) in
  let dx = Random.State.int rng margin and dy = Random.State.int rng margin in
  Array.init (width * height) (fun idx ->
      let x = idx mod width and y = idx / width in
      let p = big.(((y + dy) * bw) + x + dx) in
      let ch shift =
        let c = (p lsr shift) land 255 in
        max 0 (min 255 (c + Random.State.int rng 9 - 4))
      in
      (ch 16 lsl 16) lor (ch 8 lsl 8) lor ch 0)

type cell = {
  engine : string;  (* vm | jit *)
  variant : string;  (* unrestricted | restricted *)
  elab : Javatime.Elaborate.t;
  mutable cycles : int;  (* reaction cycles summed over the timed ops *)
}

type st = {
  input : Asr.Domain.t array;
  pixels : int array;
  cells : cell array;
  program_bytes : int;
  instrs_before : int;
  instrs_after : int;
}

let front source classes =
  let ast =
    Spans.with_span "mj.parse" (fun () ->
        Mj.Parser.parse_program ~file:"jpeg.mj" source)
  in
  let checked =
    Spans.with_span "mj.typecheck" (fun () -> Mj.Typecheck.check ast)
  in
  let image =
    Spans.with_span "bytecode.compile" (fun () ->
        Mj_bytecode.Compile.compile checked)
  in
  let size = Mj_bytecode.Classfile.program_size image ~classes in
  let before, after =
    Spans.with_span "bytecode.optimize" (fun () ->
        Mj_bytecode.Optimize.shrinkage image)
  in
  (checked, size, before, after)

let setup size ~seed () =
  let width, height = dims size in
  let pixels = image ~seed ~width ~height in
  let variants =
    [ ("unrestricted",
       Workloads.Jpeg_mj.unrestricted_source ~width ~height (),
       Workloads.Jpeg_mj.unrestricted_classes);
      ("restricted",
       Workloads.Jpeg_mj.restricted_source ~width ~height (),
       Workloads.Jpeg_mj.restricted_classes) ]
    |> List.map (fun (v, src, classes) -> (v, front src classes))
  in
  let cells =
    List.concat_map
      (fun (engine_name, engine) ->
        List.map
          (fun (variant, (checked, _, _, _)) ->
            let elab =
              Spans.with_span "core.elaborate" (fun () ->
                  Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
                    ~bounded_memory:false ~gc_threshold checked
                    ~cls:Workloads.Jpeg_mj.class_name)
            in
            { engine = engine_name; variant; elab; cycles = 0 })
          variants)
      [ ("vm", Javatime.Elaborate.Engine_vm);
        ("jit", Javatime.Elaborate.Engine_jit) ]
  in
  let sum f = List.fold_left (fun acc (_, x) -> acc + f x) 0 variants in
  { input = [| Asr.Domain.int_array pixels |];
    pixels;
    cells = Array.of_list cells;
    program_bytes = sum (fun (_, s, _, _) -> s);
    instrs_before = sum (fun (_, _, b, _) -> b);
    instrs_after = sum (fun (_, _, _, a) -> a) }

type out = {
  images : (int array * int) array;  (* per cell: reconstruction, stream ints *)
  cell_cycles : int array;  (* Elaborate.last_reaction_cycles per cell *)
  total_delta : int;  (* Elaborate.total_cycles moved over the op *)
}

let op st _i =
  let total_delta = ref 0 in
  let cell_cycles = Array.make (Array.length st.cells) 0 in
  let images =
    Array.mapi
      (fun k c ->
        let before = Javatime.Elaborate.total_cycles c.elab in
        let outs =
          Spans.with_span
            (Printf.sprintf "bytecode.%s.react.%s" c.engine c.variant)
            (fun () -> Javatime.Elaborate.react c.elab st.input)
        in
        let r = Javatime.Elaborate.last_reaction_cycles c.elab in
        cell_cycles.(k) <- r;
        c.cycles <- c.cycles + r;
        total_delta :=
          !total_delta + Javatime.Elaborate.total_cycles c.elab - before;
        match outs with
        | [| Asr.Domain.Def (Asr.Data.Int_array recon);
             Asr.Domain.Def (Asr.Data.Int len) |] ->
            (recon, len)
        | _ -> failwith "unexpected codec outputs")
      st.cells
  in
  { images; cell_cycles; total_delta = !total_delta }

(* Both variants reconstruct the same image and stream length on both
   engines, the image is close to the input, the per-cell cycles sum to
   the engines' meter delta, and every op reconstructs what the first
   did. Cycles may differ between ops: the modeled collector's pauses
   depend on the live size when it triggers. *)
let check_out st o ~first i out =
  let recon0, len0 = out.images.(0) in
  Array.iteri
    (fun k (recon, len) ->
      if recon <> recon0 || len <> len0 then
        fail o "op %d: cell %s/%s disagrees with %s/%s" i st.cells.(k).engine
          st.cells.(k).variant st.cells.(0).engine st.cells.(0).variant)
    out.images;
  let psnr = Workloads.Images.psnr st.pixels recon0 in
  if psnr < psnr_floor then
    fail o "op %d: PSNR %.2f dB below the %.1f dB floor" i psnr psnr_floor;
  if Array.fold_left ( + ) 0 out.cell_cycles <> out.total_delta then
    fail o "op %d: cell cycles do not sum to the meter delta" i;
  match !first with
  | None -> first := Some out
  | Some f ->
      if f.images <> out.images then
        fail o "op %d reconstructs differently from the first op" i

let heap_stats st =
  Array.fold_left
    (fun (words, gcs) c ->
      if c.variant <> "unrestricted" then (words, gcs)
      else
        let heap = (Javatime.Elaborate.machine c.elab).Mj_runtime.Machine.heap in
        ( words + (Mj_runtime.Heap.stats heap).Mj_runtime.Heap.reactive_words,
          gcs + Mj_runtime.Heap.gc_count heap ))
    (0, 0) st.cells

let run size ~seed ~seconds o =
  let st, setup_s, setups = repeat_setup ~seconds (setup size ~seed) in
  let setup_layers =
    setup_layers ~setups
      [ "mj.parse"; "mj.typecheck"; "bytecode.compile"; "bytecode.optimize";
        "core.elaborate" ]
  in
  let first = ref None in
  (* Warm-up op: the closure backend translates methods on first call.
     It is checked like any other op but not timed. *)
  o.attempted <- o.attempted + 1;
  (try check_out st o ~first (-1) (op st (-1))
   with e -> fail o "warm-up op raised %s" (Printexc.to_string e));
  let words0, gcs0 = heap_stats st in
  Array.iter (fun c -> c.cycles <- 0) st.cells;
  let loop =
    closed_loop ~seconds ~min_ops:3 ~max_ops:max_int o ~op:(op st)
      ~check:(check_out st o ~first)
  in
  let ops = Array.length loop.latencies in
  let words1, gcs1 = heap_stats st in
  let reactions = float_of_int (2 * ops) in
  let cycles_per_op =
    match !first with
    | Some f -> Array.fold_left ( + ) 0 f.cell_cycles
    | None -> 0
  in
  let exact =
    [ metric "modeled_cycles_per_op" "cycles" (float_of_int cycles_per_op);
      metric "program_bytes" "bytes" (float_of_int st.program_bytes) ]
  in
  let by_name = op_self_by_name () in
  let react_metrics =
    List.concat_map
      (fun engine ->
        let cells = List.filter (fun c -> c.engine = engine) (Array.to_list st.cells) in
        let span c = Printf.sprintf "bytecode.%s.react.%s" engine c.variant in
        let per_reaction c =
          metric
            (Printf.sprintf "bytecode.%s.react_ms.%s" engine c.variant)
            "ms"
            (self_ms by_name (span c) /. float_of_int ops)
        in
        let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
        List.map per_reaction cells
        @ [ metric
              (Printf.sprintf "bytecode.%s.host_ns_per_cycle" engine)
              "ns"
              (sum (fun c -> 1e6 *. self_ms by_name (span c))
              /. sum (fun c -> float_of_int c.cycles)) ])
      [ "vm"; "jit" ]
  in
  let layers =
    react_metrics
    @ [ metric "bytecode.optimize.shrink_ratio" "ratio"
          (float_of_int st.instrs_after /. float_of_int st.instrs_before);
        metric "runtime.reactive_alloc_words" "words"
          (float_of_int (words1 - words0) /. reactions);
        metric "runtime.gc_count" "count" (float_of_int (gcs1 - gcs0) /. reactions) ]
  in
  { e2e = end_to_end ~setup_s loop; exact; layers; setup_layers; loop }
