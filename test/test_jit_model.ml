(* The bytecode engines' modeled behaviour is pinned: cycle totals,
   per-method profiles, per-line attribution, watchdog trip points and
   snapshot bytes were recorded from the engines before the closure
   backend stopped keeping an operand stack, and must not move. The
   host-side allocation of a reaction on either engine is gated against
   the engine before its frames had typed lanes. *)

open Util
module E = Javatime.Elaborate
module Cost = Mj_runtime.Cost
module Profile = Telemetry.Profile
module Lines = Telemetry.Lines

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let profile_digest p =
  Profile.rows p
  |> List.map (fun (r : Profile.row) ->
         Printf.sprintf "%s %d %d %d %d %d %d" r.r_label r.r_calls r.r_self
           r.r_cum r.r_allocs r.r_alloc_words r.r_gc_cycles)
  |> String.concat "\n" |> hex

let lines_digest lt =
  Lines.rows lt
  |> List.map (fun (e : Lines.entry) ->
         Printf.sprintf "%s:%d %d %d %d %d" e.e_file e.e_line e.e_cycles
           e.e_allocs e.e_alloc_words e.e_traps)
  |> String.concat "\n" |> hex

(* ---- programs run to completion ----------------------------------- *)

(* [cls].main() on a bytecode engine with a profile and a line table
   attached from creation, inside [within] (a thread scheduler, say):
   "cycles output profile lines". *)
let run_attributed ?(within = fun run -> run ()) engine ~file src cls =
  let p = Profile.create () in
  let lt = Lines.create () in
  let checked = check_src ~file src in
  let cycles, out =
    match engine with
    | `Vm ->
        let s =
          Mj_bytecode.Vm.create ~profile:p ~lines:lt
            (Mj_bytecode.Compile.compile checked)
        in
        within (fun () -> Mj_bytecode.Vm.run_main s cls);
        (Mj_bytecode.Vm.cycles s, Mj_bytecode.Vm.output s)
    | `Jit ->
        let s =
          Mj_bytecode.Jit.create ~profile:p ~lines:lt
            (Mj_bytecode.Compile.compile checked)
        in
        within (fun () -> Mj_bytecode.Jit.run_main s cls);
        (Mj_bytecode.Jit.cycles s, Mj_bytecode.Jit.output s)
  in
  Printf.sprintf "%d %s %s %s" cycles (hex out) (profile_digest p)
    (lines_digest lt)

let engine_name = function `Vm -> "vm" | `Jit -> "jit"

(* Fig. 8's racing threads under six seeded schedules, traces included. *)
let threaded_record engine =
  List.init 6 (fun seed ->
      let trace = ref [] in
      let within run =
        trace :=
          Mj_runtime.Threads.run ~policy:(Mj_runtime.Threads.Seeded seed) run
      in
      let r =
        run_attributed ~within engine ~file:"fig8.mj"
          Workloads.Fig8_mj.threaded_source "Fig8"
      in
      !trace
      |> List.map (fun e ->
             Printf.sprintf "%d %s" e.Mj_runtime.Threads.thread
               (Mj_runtime.Threads.description e))
      |> String.concat "\n" |> hex
      |> Printf.sprintf "%s %s" r)
  |> String.concat "|" |> hex

(* Forty generated programs whose values cross branches (the
   differential generator of [Test_bytecode]), from a fixed seed. *)
let generated_record engine =
  let rand = Random.State.make [| 0x5eed |] in
  List.init 40 (fun k ->
      run_attributed engine ~file:(Printf.sprintf "gen%d.mj" k)
        (QCheck.Gen.generate1 ~rand Test_bytecode.gen_branchy_program)
        "Main")
  |> String.concat "|" |> hex

(* ---- JPEG at 16x8 --------------------------------------------------- *)

let width = 16 and height = 8

let jpeg_variants =
  [ ("unrestricted", Workloads.Jpeg_mj.unrestricted_source ~width ~height ());
    ("restricted", Workloads.Jpeg_mj.restricted_source ~width ~height ()) ]

let jpeg_input =
  lazy [| Asr.Domain.int_array (Workloads.Images.synthetic ~width ~height) |]

let elab_jpeg ?profile ?cost_lines engine src =
  E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
    ~gc_threshold:16_384 ?profile ?cost_lines
    (check_src ~file:"jpeg.mj" src)
    ~cls:Workloads.Jpeg_mj.class_name

let outputs_digest outs =
  Array.to_list outs
  |> List.map (fun d -> Format.asprintf "%a" Asr.Domain.pp d)
  |> String.concat ";" |> hex

let jpeg_record src engine =
  let p = Profile.create () in
  let lt = Lines.create () in
  let elab = elab_jpeg ~profile:p ~cost_lines:lt engine src in
  let input = Lazy.force jpeg_input in
  let o1 = E.react elab input in
  let r1 = E.last_reaction_cycles elab in
  let o2 = E.react elab input in
  let r2 = E.last_reaction_cycles elab in
  Printf.sprintf "%d %d %d %s %s %s %s" (E.init_cycles elab) r1 r2
    (outputs_digest o1) (outputs_digest o2) (profile_digest p)
    (lines_digest lt)

(* The watchdog trips half-way through the second reaction; the meter
   reading carried by the exception is the first charge past the
   deadline. *)
let budget_record src engine =
  let elab = elab_jpeg engine src in
  let input = Lazy.force jpeg_input in
  ignore (E.react elab input);
  let half = E.last_reaction_cycles elab / 2 in
  match E.react_bounded elab ~budget_cycles:half input with
  | _ -> "no trip"
  | exception Cost.Budget_exceeded n -> string_of_int n

(* Captured after one reaction: every heap cell, static and port. *)
let snapshot_record src engine =
  let elab = elab_jpeg engine src in
  ignore (E.react elab (Lazy.force jpeg_input));
  hex (Telemetry.Json.to_string (E.machine_state_json elab))

let records () =
  let engines = [ (`Vm, E.Engine_vm); (`Jit, E.Engine_jit) ] in
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun (e, _) ->
          ( Printf.sprintf "corpus %s %s" name (engine_name e),
            run_attributed e ~file:(name ^ ".mj") src "Main" ))
        engines)
    (Test_bytecode.corpus @ [ ("stack-shapes", Test_bytecode.shapes_src) ])
  @ [ ("threaded fig8 vm", threaded_record `Vm);
      ("threaded fig8 jit", threaded_record `Jit);
      ("generated vm", generated_record `Vm);
      ("generated jit", generated_record `Jit) ]
  @ List.concat_map
      (fun (variant, src) ->
        List.concat_map
          (fun (e, engine) ->
            let key what =
              Printf.sprintf "jpeg %s %s %s" variant (engine_name e) what
            in
            [ (key "reactions", jpeg_record src engine);
              (key "budget trip", budget_record src engine);
              (key "snapshot", snapshot_record src engine) ])
          engines)
      jpeg_variants

(* Recorded from the stack-based engines. Each corpus entry reads
   "cycles output-digest profile-digest lines-digest"; each JPEG
   reactions entry reads "init r1 r2 out1 out2 profile lines"; the
   threaded and generated entries digest several runs' worth of those
   (plus the traces). *)
let expected =
  [ ("corpus arith vm",
     "1353 a45100c46f30 a1be80950a46 e119423380a8");
    ("corpus arith jit",
     "343 a45100c46f30 33b390b909dc bb9573b8ccac");
    ("corpus control vm",
     "5921 80f556e63952 673d80a3729e 633bbd8ef3b3");
    ("corpus control jit",
     "375 80f556e63952 3ac9f2af3d1c cb5f5a7edcfc");
    ("corpus objects vm",
     "1650 54aa96260b8c 2499a793fd85 8d064dbe33c7");
    ("corpus objects jit",
     "518 54aa96260b8c 22756a3501b5 3daa0c605c1b");
    ("corpus arrays vm",
     "7109 f5c12ddf813f c2814990a6db 8cca8acf9514");
    ("corpus arrays jit",
     "1242 f5c12ddf813f 5d73e156fc45 2d0808891080");
    ("corpus statics-and-strings vm",
     "1926 f390c4cdf6c9 e953380a4189 72ebd68672b2");
    ("corpus statics-and-strings jit",
     "275 f390c4cdf6c9 80d5c14b7bad 97fd3a271b7b");
    ("corpus incr-decr-matrix vm",
     "1326 74c889a75adb b0ebab9e2c06 eea245adf1dc");
    ("corpus incr-decr-matrix jit",
     "354 74c889a75adb 80eaad3d1574 274b39641eb8");
    ("corpus math-natives vm",
     "1346 388e2f61e978 c32fbcd9da02 be83bef42c73");
    ("corpus math-natives jit",
     "504 388e2f61e978 b061b51af83c c4c698e262f4");
    ("corpus fib vm",
     "330785 d00b05c9ec31 f20ba035fdde 271d1e49c470");
    ("corpus fib jit",
     "24825 d00b05c9ec31 e146691e9f72 af58c4f583b1");
    ("corpus null-and-casts vm",
     "1034 1a8809aac9df 2a877cb17fe1 e4bcb61113a3");
    ("corpus null-and-casts jit",
     "376 1a8809aac9df 4223f255ac08 a173aaf97238");
    ("corpus stack-shapes vm",
     "6573 3143ffe9bf74 cc05ede86bd0 7f688817524e");
    ("corpus stack-shapes jit",
     "831 3143ffe9bf74 8e18ab6841b3 535e97618875");
    ("threaded fig8 vm", "361a7463735a");
    ("threaded fig8 jit", "fb77c363c483");
    ("generated vm", "994cf34fe41a");
    ("generated jit", "3f7a1e370e41");
    ("jpeg unrestricted vm reactions",
     "117912 11714918 11714918 d30736b0b1f9 d30736b0b1f9 407a01ce2d4b 36d34e1ca779");
    ("jpeg unrestricted vm budget trip",
     "17690295");
    ("jpeg unrestricted vm snapshot",
     "581313439ade");
    ("jpeg unrestricted jit reactions",
     "6334 934399 934399 d30736b0b1f9 d30736b0b1f9 e2829d08745e f20b90a059a2");
    ("jpeg unrestricted jit budget trip",
     "1407934");
    ("jpeg unrestricted jit snapshot",
     "49fcb74da41e");
    ("jpeg restricted vm reactions",
     "163898 7084954 7084954 d30736b0b1f9 d30736b0b1f9 254d0643c497 43b82e8367b2");
    ("jpeg restricted vm budget trip",
     "10791339");
    ("jpeg restricted vm snapshot",
     "f470c9878bc3");
    ("jpeg restricted jit reactions",
     "14780 332784 332784 d30736b0b1f9 d30736b0b1f9 b70807b6b9e0 608b1aa01e5c");
    ("jpeg restricted jit budget trip",
     "513957");
    ("jpeg restricted jit snapshot",
     "46f7d9bd6945") ]

let modeled_unchanged () =
  let got = records () in
  let mismatches =
    List.filter_map
      (fun (key, v) ->
        match List.assoc_opt key expected with
        | Some e when String.equal e v -> None
        | e ->
            Some
              (Printf.sprintf "%S, %S (recorded %s)" key v
                 (Option.value e ~default:"nothing")))
      got
    @ List.filter_map
        (fun (key, _) ->
          if List.mem_assoc key got then None
          else Some (Printf.sprintf "%S no longer measured" key))
        expected
  in
  if mismatches <> [] then
    Alcotest.failf "modeled behaviour moved:\n%s"
      (String.concat "\n" mismatches)

let minor_words engine src =
  let elab = elab_jpeg engine src in
  let input = Lazy.force jpeg_input in
  ignore (E.react elab input);
  let before = Gc.minor_words () in
  ignore (E.react elab input);
  Gc.minor_words () -. before

(* Minor words per 16x8 reaction after a warm-up reaction, for each
   variant: the recording, and the share of it a reaction may allocate
   now. *)
let allocation_gate engine name bounds () =
  List.iter
    (fun (variant, recorded, share) ->
      let words = minor_words engine (List.assoc variant jpeg_variants) in
      if words > share *. recorded then
        Alcotest.failf
          "%s %s reaction allocates %.0f minor words, more than %.2f x %.0f"
          variant name words share recorded)
    bounds

(* The readings before frames had typed lanes (one [Value.t] array per
   call, every int and double boxed), under the dev profile that
   [dune runtest] uses; a reaction may allocate at most half of them.
   With unboxed lanes, pooled frames and the JIT's double accumulator
   the readings are 228,074 / 18,842 (JIT) and 228,166 / 19,557 (VM),
   most of them boxes where values leave the lanes: array and field
   stores, native arguments and call results. *)
let jit_allocation_bounds =
  [ ("unrestricted", 696_481., 0.5); ("restricted", 134_487., 0.5) ]

let vm_allocation_bounds =
  [ ("unrestricted", 891_104., 0.5); ("restricted", 291_972., 0.5) ]

(* ---- the VM's fused runs ---------------------------------------------- *)

(* With nothing observing the meter the VM runs some op sequences as one
   op with their charges summed; with a sink attached it runs them one
   by one. Both must end every program — and every failing one — on the
   same meter reading and output. *)
let failing_src =
  {|class Main { public static void main() {
      int s = 0;
      for (int i = 0; i < 5; i++) { s += i * 3; s = s - 1; }
      System.out.println(s);
      int z = 0;
      System.out.println(7 / z);
    } }|}

let fused_like_observed () =
  let run ~observed src =
    let vm =
      if observed then
        Mj_bytecode.Vm.create ~profile:(Profile.create ())
          (Mj_bytecode.Compile.compile (check_src src))
      else Mj_bytecode.Vm.create (Mj_bytecode.Compile.compile (check_src src))
    in
    let error =
      match Mj_bytecode.Vm.run_main vm "Main" with
      | () -> ""
      | exception Mj_runtime.Heap.Runtime_error m -> m
    in
    (Mj_bytecode.Vm.cycles vm, Mj_bytecode.Vm.output vm, error)
  in
  List.iter
    (fun (name, src) ->
      let c1, o1, e1 = run ~observed:false src and c2, o2, e2 = run ~observed:true src in
      Alcotest.(check int) (name ^ " cycles") c2 c1;
      Alcotest.(check string) (name ^ " output") o2 o1;
      Alcotest.(check string) (name ^ " error") e2 e1)
    (("failing", failing_src) :: ("stack-shapes", Test_bytecode.shapes_src)
     :: Test_bytecode.corpus);
  List.iter
    (fun (variant, src) ->
      let reaction ?profile () =
        let elab = elab_jpeg ?profile E.Engine_vm src in
        let out = E.react elab (Lazy.force jpeg_input) in
        (E.total_cycles elab, outputs_digest out)
      in
      let c1, o1 = reaction ()
      and c2, o2 = reaction ~profile:(Profile.create ()) () in
      Alcotest.(check int) (variant ^ " cycles") c2 c1;
      Alcotest.(check string) (variant ^ " outputs") o2 o1)
    jpeg_variants

(* ---- snapshot round trip on a JIT-elaborated design --------------- *)

(* Instance fields, an array and a static all change every reaction,
   so a restore that missed the static cells or left a cached field
   location pointing at a dropped object would show. *)
let stateful_src =
  {|class Tally extends ASR {
      static int total = 0;
      private int last;
      private int[] hist;
      Tally() { declarePorts(1, 1); hist = new int[4]; }
      public void run() {
        int x = readPort(0);
        total = total + x;
        last = x;
        hist[x & 3] = hist[x & 3] + 1;
        writePort(0, total * 100 + last * 10 + hist[x & 3]);
      }
    }|}

let snapshot_round_trip () =
  let elab () =
    E.elaborate ~engine:E.Engine_jit (check_src stateful_src) ~cls:"Tally"
  in
  let inputs = [ 3; 5; 7; 2; 9; 4 ] in
  let oracle = elab () in
  let expect = List.map (react_int oracle) inputs in
  let live = elab () in
  let got =
    List.map
      (fun x ->
        let snap = E.machine_state live in
        (* a stray reaction mutates statics, fields and the heap *)
        ignore (react_int live (x + 11));
        E.restore_machine_state live snap;
        react_int live x)
      inputs
  in
  Alcotest.(check (list int)) "outputs" expect got;
  Alcotest.(check int) "cycles" (E.total_cycles oracle) (E.total_cycles live);
  Alcotest.(check string) "state"
    (Telemetry.Json.to_string (E.machine_state_json oracle))
    (Telemetry.Json.to_string (E.machine_state_json live))

let jpeg_round_trip () =
  List.iter
    (fun (variant, src) ->
      let input = Lazy.force jpeg_input in
      let oracle = elab_jpeg E.Engine_jit src in
      let o1 = E.react oracle input in
      let o2 = E.react oracle input in
      let live = elab_jpeg E.Engine_jit src in
      ignore (E.react live input);
      let snap = E.machine_state_json live in
      ignore (E.react live input);
      E.restore_machine_json live snap;
      let r2 = E.react live input in
      Alcotest.(check string) (variant ^ " outputs") (outputs_digest o2)
        (outputs_digest r2);
      Alcotest.(check string) (variant ^ " first = second") (outputs_digest o1)
        (outputs_digest o2);
      Alcotest.(check int) (variant ^ " cycles") (E.total_cycles oracle)
        (E.total_cycles live))
    jpeg_variants

(* Object fields serialize sorted by name, whatever the slot layout. *)
let fields_sorted () =
  let elab =
    E.elaborate ~engine:E.Engine_jit (check_src stateful_src) ~cls:"Tally"
  in
  ignore (react_int elab 6);
  let module J = Telemetry.Json in
  let cells =
    match J.member "heap" (E.machine_state_json elab) with
    | Some h -> (
        match J.member "cells" h with Some (J.List l) -> l | _ -> [])
    | None -> []
  in
  let objects =
    List.filter_map
      (fun c ->
        match J.member "fields" c with
        | Some (J.List fs) ->
            Some
              (List.map
                 (function J.List (J.Str k :: _) -> k | _ -> "?")
                 fs)
        | _ -> None)
      cells
  in
  Alcotest.(check bool) "some object" true (objects <> []);
  List.iter
    (fun names ->
      Alcotest.(check (list string)) "sorted" (List.sort compare names) names)
    objects

let suite =
  [ case "modeled behaviour matches the recording" modeled_unchanged;
    case "allocation gate: JIT minor words per 16x8 JPEG reaction"
      (allocation_gate E.Engine_jit "JIT" jit_allocation_bounds);
    case "allocation gate: VM minor words per 16x8 JPEG reaction"
      (allocation_gate E.Engine_vm "VM" vm_allocation_bounds);
    case "VM fused runs end on the observed loop's meter and output"
      fused_like_observed;
    case "snapshot round trip restores statics and fields (JIT)"
      snapshot_round_trip;
    case "snapshot round trip mid-stream on JPEG (JIT)" jpeg_round_trip;
    case "snapshot fields serialize sorted by name" fields_sorted ]
