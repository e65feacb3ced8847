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
        Alcotest.(check bool) "sequential" false (T.last_run_branched ())) ]
