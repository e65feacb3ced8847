(* The host heap's collector ([Heap.collect], run by [Elaborate.react]
   when a reaction ends) against an oracle that computes reachability
   from the snapshot itself, on the interpreter, the VM and the JIT. *)

open Util
module E = Javatime.Elaborate
module Json = Telemetry.Json
module Heap = Mj_runtime.Heap
module T = Mj_runtime.Threads

let engines =
  [ ("interp", E.Engine_interp); ("vm", E.Engine_vm); ("jit", E.Engine_jit) ]

let elab ?profile ?cost_lines engine src ~cls =
  E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
    ~gc_threshold:16_384 ?profile ?cost_lines (check_src src) ~cls

let live elab =
  (Heap.stats (E.machine elab).Mj_runtime.Machine.heap).Heap.live_objects

let state elab = Json.to_string (E.machine_state_json elab)

(* A generated program (the bytecode differential's generator) run by an
   ASR reaction that also keeps and drops objects of its own: a
   two-dimensional array whose rows it replaces, an object array whose
   slots it overwrites or clears, and a static it sometimes rebinds. *)
let wrapped generated =
  generated
  ^ {|
class G extends ASR {
  static int[] keep;
  int[][] grid;
  P[] hold;
  int k;
  G() { declarePorts(1, 1); grid = new int[2][3]; hold = new P[2]; }
  public void run() {
    Main.main();
    int x = readPort(0);
    grid[k & 1] = new int[3];
    grid[k & 1][0] = x;
    P q = new P();
    q.f = x;
    hold[k & 1] = q;
    if ((x & 1) == 0) { hold[(k + 1) & 1] = null; }
    if ((x & 2) == 0) { G.keep = new int[2]; G.keep[0] = x; }
    k++;
    writePort(0, grid[0][0] + grid[1][0] + q.f);
  }
}
|}

let generated_programs =
  lazy
    (let rand = Random.State.make [| 0xc011ec7 |] in
     List.init 12 (fun _ ->
         wrapped
           (QCheck.Gen.generate1 ~rand Test_bytecode.gen_branchy_program)))

let jpeg_src =
  lazy (Workloads.Jpeg_mj.unrestricted_source ~width:16 ~height:8 ())

let jpeg_input =
  lazy
    [| Asr.Domain.int_array (Workloads.Images.synthetic ~width:16 ~height:8) |]

(* ---- the oracle ---------------------------------------------------- *)

let rec refs acc = function
  | Json.Obj [ ("ref", Json.Int r) ] -> r :: acc
  | Json.Obj kvs -> List.fold_left (fun acc (_, v) -> refs acc v) acc kvs
  | Json.List l -> List.fold_left refs acc l
  | _ -> acc

let member k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "no %s" k

let list = function Json.List l -> l | _ -> Alcotest.fail "not a list"

let replace k v = function
  | Json.Obj kvs ->
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then v else x)) kvs)
  | j -> j

(* [state] taken with no pass ever run, with every cell unreachable from
   the statics, the port owners and their port values nulled (the
   elaborated instance owns ports, so it is a root too). Every reference
   in a reachable cell counts, whatever its element type. The result is
   re-encoded, so reclaimed runs read as the codec writes them. *)
let expected_after_collection state =
  let heap = member "heap" state in
  let cells = Array.of_list (list (member "cells" heap)) in
  let reached = Array.make (Array.length cells) false in
  let ports = list (member "ports" state) in
  let owners =
    List.filter_map
      (fun p -> match member "id" p with Json.Int id -> Some id | _ -> None)
      ports
  in
  let roots = refs (refs owners (member "statics" state)) (Json.List ports) in
  let rec visit r =
    if not reached.(r) then begin
      reached.(r) <- true;
      List.iter visit (refs [] cells.(r))
    end
  in
  List.iter visit roots;
  let cells =
    Array.to_list
      (Array.mapi (fun i c -> if reached.(i) then c else Json.Null) cells)
  in
  replace "heap" (replace "cells" (Json.List cells) heap) state
  |> Mj_runtime.Snapshot.of_json
  |> Mj_runtime.Snapshot.to_json
  |> Json.to_string

(* Two elaborations of one program react to the same inputs; the second
   reacts inside [Threads.run], where no pass runs. After each reaction
   the collected machine state is the uncollected one with exactly the
   unreachable cells reclaimed, and outputs, cycles, profile and line
   table agree. *)
let oracle engine src ~cls inputs =
  let make () =
    let p = Telemetry.Profile.create () and lt = Telemetry.Lines.create () in
    (elab ~profile:p ~cost_lines:lt engine src ~cls, p, lt)
  in
  let a, pa, la = make () and b, pb, lb = make () in
  List.iteri
    (fun i input ->
      let oa = E.react a input in
      let ob = ref [||] in
      ignore (T.run ~policy:T.Round_robin (fun () -> ob := E.react b input));
      let what s = Printf.sprintf "reaction %d: %s" i s in
      Alcotest.(check bool) (what "outputs") true
        (Array.for_all2 Asr.Domain.equal oa !ob);
      Alcotest.(check int) (what "cycles") (E.total_cycles b)
        (E.total_cycles a);
      Alcotest.(check string) (what "collected state")
        (expected_after_collection (E.machine_state_json b))
        (state a))
    inputs;
  Alcotest.(check string) "profile" (Test_jit_model.profile_digest pb)
    (Test_jit_model.profile_digest pa);
  Alcotest.(check string) "lines" (Test_jit_model.lines_digest lb)
    (Test_jit_model.lines_digest la)

let ramp n = List.init n (fun i -> [| Asr.Domain.int (i * 7 - 3) |])

let oracle_cases =
  List.concat_map
    (fun (name, engine) ->
      [ case ("oracle: jpeg 16x8 unrestricted, " ^ name) (fun () ->
            let input = Lazy.force jpeg_input in
            oracle engine (Lazy.force jpeg_src)
              ~cls:Workloads.Jpeg_mj.class_name
              [ input; input; input ]);
        case ("oracle: generated programs, " ^ name) (fun () ->
            List.iter
              (fun src -> oracle engine src ~cls:"G" (ramp 4))
              (Lazy.force generated_programs)) ])
    engines

(* ---- bounded growth ------------------------------------------------ *)

(* Each reaction drops a list node, an array and an object and keeps a
   ring of three. *)
let churn_src =
  {|class Node { int v; Node next; }
class Churn extends ASR {
  Node[] ring;
  int k;
  Churn() { declarePorts(1, 1); ring = new Node[3]; }
  public void run() {
    int x = readPort(0);
    Node n = new Node();
    n.v = x;
    n.next = new Node();
    int[] scratch = new int[16];
    scratch[x & 15] = x;
    ring[k % 3] = n;
    k++;
    writePort(0, scratch[x & 15] + ring[0].v);
  }
}|}

let growth_cases =
  List.map
    (fun (name, engine) ->
      case
        ("live objects and the state's size stay flat over 200 reactions, "
        ^ name)
        (fun () ->
          let e = elab engine churn_src ~cls:"Churn" in
          let at = Hashtbl.create 4 in
          for i = 1 to 200 do
            ignore (E.react e [| Asr.Domain.int i |]);
            if i = 10 || i = 200 then
              Hashtbl.replace at i (live e, String.length (state e))
          done;
          let live10, size10 = Hashtbl.find at 10
          and live200, size200 = Hashtbl.find at 200 in
          Alcotest.(check int) "live objects" live10 live200;
          (* reference indices grow by a digit or two *)
          if size200 > size10 + (size10 / 20) then
            Alcotest.failf "state grew from %d to %d bytes" size10 size200))
    engines

(* ---- threads ------------------------------------------------------- *)

(* The worker is never joined: it runs after the reaction returns, on an
   array only it still references. *)
let worker_src =
  {|class W extends Thread {
  int[] a;
  W() {}
  public void run() { Thread.yield(); a[0] = a[0] + 1; a[1] = a.length; }
}
class U extends ASR {
  U() { declarePorts(1, 1); }
  public void run() {
    int[] a = new int[2];
    a[0] = readPort(0);
    W w = new W();
    w.a = a;
    w.start();
    writePort(0, a[0]);
  }
}|}

let thread_cases =
  List.map
    (fun (name, engine) ->
      case ("an unjoined worker keeps its array under Threads.run, " ^ name)
        (fun () ->
          let e = elab engine worker_src ~cls:"U" in
          List.iter
            (fun seed ->
              ignore
                (T.run ~policy:(T.Seeded seed) (fun () ->
                     for i = 1 to 3 do
                       ignore (E.react e [| Asr.Domain.int i |])
                     done)))
            [ 1; 2; 3 ];
          (* outside a scheduler the worker runs at start(), and the pass
             reclaims what the scheduled reactions left *)
          ignore (E.react e [| Asr.Domain.int 4 |]);
          let fresh = elab engine worker_src ~cls:"U" in
          ignore (E.react fresh [| Asr.Domain.int 4 |]);
          Alcotest.(check int) "live objects" (live fresh) (live e)))
    engines

(* ---- resume -------------------------------------------------------- *)

let resume engine src ~cls inputs ~at =
  let whole = elab engine src ~cls in
  let saved = ref "" in
  let outs =
    List.mapi
      (fun i input ->
        if i = at then saved := state whole;
        E.react whole input)
      inputs
  in
  (* restored over a machine that has run (and collected) further *)
  let resumed = elab engine src ~cls in
  List.iter (fun input -> ignore (E.react resumed input)) inputs;
  E.restore_machine_json resumed (Json.parse !saved);
  List.iteri
    (fun i input ->
      if i >= at then
        Alcotest.(check bool)
          (Printf.sprintf "reaction %d outputs" i)
          true
          (Array.for_all2 Asr.Domain.equal (List.nth outs i)
             (E.react resumed input)))
    inputs;
  Alcotest.(check int) "cycles" (E.total_cycles whole) (E.total_cycles resumed);
  Alcotest.(check int) "live objects" (live whole) (live resumed);
  Alcotest.(check string) "state" (state whole) (state resumed)

let resume_cases =
  List.map
    (fun (name, engine) ->
      case ("a run resumed from a mid-run machine state is identical, " ^ name)
        (fun () ->
          resume engine churn_src ~cls:"Churn" (ramp 8) ~at:4;
          let input = Lazy.force jpeg_input in
          resume engine (Lazy.force jpeg_src) ~cls:Workloads.Jpeg_mj.class_name
            [ input; input; input ] ~at:2))
    engines

let suite = oracle_cases @ growth_cases @ thread_cases @ resume_cases
