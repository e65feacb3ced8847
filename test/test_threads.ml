open Util
module T = Mj_runtime.Threads

let racer_src = Workloads.Fig8_mj.threaded_source

let run_seeded src cls seed =
  let session = Mj_runtime.Interp.create (check_src src) in
  let trace =
    Mj_runtime.Threads.run ~policy:(Mj_runtime.Threads.Seeded seed) (fun () ->
        Mj_runtime.Interp.run_main session cls)
  in
  (Mj_runtime.Interp.output session, trace)

let render_trace trace =
  List.map
    (fun e -> Printf.sprintf "%d %s" e.T.thread e.T.description)
    trace

(* Three instants of an ASR class's reaction on the input ramp, each
   under the seeded scheduler: the instants' outputs and traces, and
   whether any instant's scheduler had a choice. *)
let reactions src ~cls seed =
  let elab =
    Javatime.Elaborate.elaborate ~enforce_policy:false ~bounded_memory:false
      (check_src src) ~cls
  in
  let n_in, _ = Javatime.Elaborate.ports elab in
  let branched = ref false in
  let lines =
    List.concat
      (List.init 3 (fun t ->
           let outs = ref [||] in
           let trace =
             T.run ~policy:(T.Seeded seed) (fun () ->
                 outs :=
                   Javatime.Elaborate.react elab
                     (Array.init n_in (fun i ->
                          Asr.Domain.int (Javatime.Verify.ramp t i))))
           in
           if T.last_run_branched () then branched := true;
           Printf.sprintf "instant %d: %s" t
             (String.concat " " (Array.to_list (Array.map Asr.Domain.to_string !outs)))
           :: render_trace trace))
  in
  (lines, !branched)

(* One line per seed 1-20: the choice flag and the MD5 of the run's
   rendering. The pins were recorded before [maybe_yield] learned to skip
   the effect when no other thread is runnable; that shortcut must draw
   the scheduler's random stream exactly as the effect did. *)
let pin_schedules ~what ~md5 run =
  let rendered =
    List.init 20 (fun k ->
        let seed = k + 1 in
        let lines, branched = run seed in
        Printf.sprintf "seed %d branched %b %s" seed branched
          (Digest.to_hex (Digest.string (String.concat "\n" lines))))
  in
  let text = String.concat "\n" rendered in
  let got = Digest.to_hex (Digest.string text) in
  if not (String.equal got md5) then begin
    prerr_endline text;
    Alcotest.failf "%s schedules moved: md5 %s (pinned: %s)" what got md5
  end

let suite =
  [ case "same seed gives the same outcome" (fun () ->
        let a, _ = run_seeded racer_src "Fig8" 7 in
        let b, _ = run_seeded racer_src "Fig8" 7 in
        Alcotest.(check string) "deterministic per seed" a b);
    case "different seeds can give different outcomes" (fun () ->
        Alcotest.(check bool) "several outcomes" true
          (Workloads.Fig8_mj.distinct_outcomes ~seeds:30 > 1));
    case "round robin is one fixed interleaving" (fun () ->
        let run () =
          let session = Mj_runtime.Interp.create (check_src racer_src) in
          ignore
            (Mj_runtime.Threads.run ~policy:Mj_runtime.Threads.Round_robin
               (fun () -> Mj_runtime.Interp.run_main session "Fig8"));
          Mj_runtime.Interp.output session
        in
        Alcotest.(check string) "stable" (run ()) (run ()));
    case "join waits for completion" (fun () ->
        let src =
          {|class Worker extends Thread {
              public static int done = 0;
              Worker() {}
              public void run() {
                for (int i = 0; i < 10; i++) Thread.yield();
                done = 1;
              }
            }
            class Main { public static void main() {
              Worker w = new Worker();
              w.start();
              w.join();
              System.out.println("done=" + Worker.done);
            } }|}
        in
        for seed = 0 to 9 do
          let output, _ = run_seeded src "Main" seed in
          Alcotest.(check string)
            (Printf.sprintf "seed %d" seed)
            "done=1\n" output
        done);
    case "traces record shared-variable accesses" (fun () ->
        let _, trace = run_seeded racer_src "Fig8" 0 in
        let reads =
          List.filter
            (fun e -> contains ~substring:"read SharedX.x" e.Mj_runtime.Threads.description)
            trace
        in
        let writes =
          List.filter
            (fun e -> contains ~substring:"write SharedX.x" e.Mj_runtime.Threads.description)
            trace
        in
        Alcotest.(check bool) "has reads" true (List.length reads >= 2);
        Alcotest.(check bool) "has writes" true (List.length writes >= 2));
    case "per-thread program order is preserved in traces" (fun () ->
        (* each writer reads x before writing it, in every schedule *)
        for seed = 0 to 9 do
          let _, trace = run_seeded racer_src "Fig8" seed in
          let by_thread = Hashtbl.create 8 in
          List.iter
            (fun e ->
              let existing =
                Option.value ~default:[]
                  (Hashtbl.find_opt by_thread e.Mj_runtime.Threads.thread)
              in
              Hashtbl.replace by_thread e.Mj_runtime.Threads.thread
                (existing @ [ e.Mj_runtime.Threads.description ]))
            trace;
          Hashtbl.iter
            (fun _ events ->
              let rec check_order seen_write = function
                | [] -> ()
                | d :: rest ->
                    if contains ~substring:"read SharedX.x" d && seen_write then
                      Alcotest.fail "writer read after its own write"
                    else
                      check_order
                        (seen_write || contains ~substring:"write SharedX.x" d)
                        rest
              in
              check_order false events)
            by_thread
        done);
    case "deadlock is detected" (fun () ->
        (* Two threads joining each other can deadlock under schedules
           where both start before either finishes. *)
        let src =
          {|class A extends Thread {
              public static Thread other = null;
              A() {}
              public void run() { Thread.yield(); other.join(); }
            }
            class Main { public static void main() {
              A a = new A();
              A b = new A();
              A.other = b;
              a.start();
              Thread.yield();
              A.other = a;
              b.start();
              a.join();
              b.join();
            } }|}
        in
        let saw_deadlock = ref false in
        for seed = 0 to 19 do
          match run_seeded src "Main" seed with
          | (_ : string * Mj_runtime.Threads.event list) -> ()
          | exception Mj_runtime.Threads.Deadlock _ -> saw_deadlock := true
          | exception Mj_runtime.Heap.Runtime_error _ -> ()
        done;
        Alcotest.(check bool) "some schedule deadlocks" true !saw_deadlock);
    case "start without scheduler runs synchronously" (fun () ->
        let src =
          {|class T extends Thread {
              T() {}
              public void run() { System.out.println("ran"); }
            }
            class Main { public static void main() {
              T t = new T();
              t.start();
              System.out.println("after");
            } }|}
        in
        Alcotest.(check string) "sequential" "ran\nafter\n"
          (interp_output src "Main"));
    case "scheduler not reentrant" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Threads.run is not reentrant")
          (fun () ->
            ignore
              (Mj_runtime.Threads.run ~policy:Mj_runtime.Threads.Round_robin
                 (fun () ->
                   ignore
                     (Mj_runtime.Threads.run ~policy:Mj_runtime.Threads.Round_robin
                        (fun () -> ()))))));
    case "vm engine interleaves threads too" (fun () ->
        let outcomes = Hashtbl.create 8 in
        for seed = 0 to 19 do
          let session = Mj_bytecode.Vm.create (check_src racer_src) in
          ignore
            (Mj_runtime.Threads.run ~policy:(Mj_runtime.Threads.Seeded seed)
               (fun () -> Mj_bytecode.Vm.run_main session "Fig8"));
          Hashtbl.replace outcomes (Mj_bytecode.Vm.output session) ()
        done;
        Alcotest.(check bool) "several outcomes" true (Hashtbl.length outcomes > 1));
    case "choice flag: one thread yielding many times has no choice"
      (fun () ->
        ignore
          (T.run ~policy:(T.Seeded 3) (fun () ->
               for _ = 1 to 50 do
                 T.maybe_yield ()
               done));
        Alcotest.(check bool) "no choice" false (T.last_run_branched ()));
    case "choice flag: start then join with no yield point between"
      (fun () ->
        ignore
          (T.run ~policy:(T.Seeded 3) (fun () ->
               Effect.perform
                 (T.Spawn (1, fun () -> for _ = 1 to 5 do T.maybe_yield () done));
               Effect.perform (T.Join 1)));
        Alcotest.(check bool) "no choice" false (T.last_run_branched ()));
    case "choice flag: two workers started together make a choice"
      (fun () ->
        ignore
          (T.run ~policy:(T.Seeded 3) (fun () ->
               Effect.perform (T.Spawn (1, T.maybe_yield));
               Effect.perform (T.Spawn (2, T.maybe_yield));
               Effect.perform (T.Join 1);
               Effect.perform (T.Join 2)));
        Alcotest.(check bool) "choice" true (T.last_run_branched ()));
    case "choice flag: a raising run reports it, the next run starts clean"
      (fun () ->
        (* two workers joining each other always deadlock, after a
           choice at main's first join *)
        let mutual () =
          Effect.perform
            (T.Spawn (1, fun () -> T.maybe_yield (); Effect.perform (T.Join 2)));
          Effect.perform
            (T.Spawn (2, fun () -> T.maybe_yield (); Effect.perform (T.Join 1)));
          Effect.perform (T.Join 1)
        in
        (match T.run ~policy:(T.Seeded 5) mutual with
        | _ -> Alcotest.fail "expected a deadlock"
        | exception T.Deadlock _ -> ());
        Alcotest.(check bool) "choice survives the raise" true
          (T.last_run_branched ());
        (* joining a thread that never starts deadlocks without a choice *)
        (match T.run ~policy:(T.Seeded 5) (fun () -> Effect.perform (T.Join 9)) with
        | _ -> Alcotest.fail "expected a deadlock"
        | exception T.Deadlock _ -> ());
        Alcotest.(check bool) "cleared by the next run" false
          (T.last_run_branched ()));
    case "choice flag: the racy Fig. 8 program chooses, a sequential one not"
      (fun () ->
        ignore (run_seeded racer_src "Fig8" 0);
        Alcotest.(check bool) "racy" true (T.last_run_branched ());
        ignore
          (run_seeded
             {|class Main { public static void main() {
                 int s = 0;
                 for (int i = 0; i < 10; i++) s = s + i;
                 System.out.println(s);
               } }|}
             "Main" 0);
        Alcotest.(check bool) "sequential" false (T.last_run_branched ()));
    case "seeded schedules are pinned: traces and choice flags, seeds 1-20"
      (fun () ->
        pin_schedules ~what:"fig8" ~md5:"4840bbcdcff1bc93aa7508dd07a2ebf0" (fun seed ->
            let output, trace = run_seeded racer_src "Fig8" seed in
            (output :: render_trace trace, T.last_run_branched ()));
        pin_schedules ~what:"pipe" ~md5:"e5b0f4c5bf512398bce31c9ccdec80f7"
          (reactions Test_refinement.pipe_source ~cls:"Pipe");
        pin_schedules ~what:"race" ~md5:"d3e8c679a9f0ef196d8e637eeaa92368"
          (reactions Test_refinement.racy_source ~cls:"Race")) ]
