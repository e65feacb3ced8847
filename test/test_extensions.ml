open Util

(* ---- peephole optimizer ---- *)

let run_optimized src cls =
  let image =
    Mj_bytecode.Optimize.image (Mj_bytecode.Compile.compile (check_src src))
  in
  let session = Mj_bytecode.Vm.create image in
  Mj_bytecode.Vm.run_main session cls;
  Mj_bytecode.Vm.output session

let optimizer_corpus =
  [ ( "folding",
      {|class Main { public static void main() {
          System.out.println(2 + 3 * 4);
          System.out.println(1.5 * 2.0 + 0.5);
          double d = 3;
          System.out.println(d);
          if (1 < 2) System.out.println("taken");
          while (false) System.out.println("never");
          int x = 10 / 0 - 0;
          System.out.println(x);
        } }|} );
    ( "loops-and-calls",
      {|class Main {
          static int fact(int n) { int r = 1; for (int i = 2; i <= n; i++) r *= i; return r; }
          public static void main() {
            System.out.println(fact(6));
            int s = 0;
            int i = 0;
            while (i < 7) { s += i; i++; }
            System.out.println(s);
            do { s--; } while (s > 18);
            System.out.println(s);
          }
        }|} ) ]

let optimizer_tests =
  List.map
    (fun (name, src) ->
      case ("optimizer preserves: " ^ name) (fun () ->
          (match name with
          | "folding" ->
              (* the 10/0 must still raise after optimization *)
              expect_runtime_error ~substring:"division by zero" (fun () ->
                  run_optimized src "Main")
          | _ ->
              Alcotest.(check string) name (vm_output src "Main")
                (run_optimized src "Main"))))
    optimizer_corpus

(* ---- metrics ---- *)

let metrics_src =
  {|class A {
      private int n;
      A() { n = 0; }
      int busy(int k) {
        int s = 0;
        for (int i = 0; i < k; i++) {
          for (int j = 0; j < i; j++) {
            if (j % 2 == 0 && i > 1) s += helper(j);
          }
        }
        return s;
      }
      int helper(int j) { return j + 1; }
    }|}

(* ---- SDF policy ---- *)

let sdf_ids src =
  List.sort_uniq String.compare
    (List.map (fun v -> v.Policy.Rule.rule_id)
       (Policy.Sdf_policy.check (check_src src)))

let suite =
  optimizer_tests
  @ [ case "optimizer shrinks the jpeg image" (fun () ->
          let image =
            Mj_bytecode.Compile.compile
              (check_src (Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 ()))
          in
          let before, after = Mj_bytecode.Optimize.shrinkage image in
          Alcotest.(check bool)
            (Printf.sprintf "%d -> %d" before after)
            true (after < before));
      case "optimizer is idempotent" (fun () ->
          let image =
            Mj_bytecode.Compile.compile
              (check_src Workloads.Fir_mj.unrestricted_source)
          in
          let once = Mj_bytecode.Optimize.image image in
          let twice = Mj_bytecode.Optimize.image once in
          Hashtbl.iter
            (fun key mc ->
              let mc2 = Hashtbl.find twice.Mj_bytecode.Compile.im_methods key in
              if mc <> mc2 then Alcotest.fail "second pass changed code")
            once.Mj_bytecode.Compile.im_methods);
      case "optimized jpeg produces identical images" (fun () ->
          let src = Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 () in
          let image_data = Workloads.Images.synthetic ~width:16 ~height:8 in
          let react image =
            let session = Mj_bytecode.Vm.create image in
            let m = Mj_bytecode.Vm.machine session in
            Mj_runtime.Heap.set_phase m.Mj_runtime.Machine.heap
              Mj_runtime.Heap.Init;
            let obj = Mj_bytecode.Vm.new_instance session "JpegCodec" [] in
            Mj_runtime.Machine.set_input m obj 0
              (Some (Mj_runtime.Machine.make_int_array m image_data));
            ignore (Mj_bytecode.Vm.call session obj "run" []);
            ( Mj_runtime.Machine.output_port m obj 0
              |> Option.map (Mj_runtime.Machine.int_array m),
              Mj_runtime.Machine.output_port m obj 1 )
          in
          let plain = Mj_bytecode.Compile.compile (check_src src) in
          let optimized = Mj_bytecode.Optimize.image plain in
          Alcotest.(check bool) "identical" true (react plain = react optimized));
      qcase ~count:80 "optimizer preserves generated arithmetic"
        (QCheck.make ~print:(fun s -> s)
           (QCheck.Gen.map
              (fun seeds ->
                let body =
                  List.mapi
                    (fun i seed ->
                      Printf.sprintf
                        "int v%d = %d + %d * 3 - (%d / 2); s += v%d << (%d & 3);"
                        i seed (seed mod 7) seed i seed)
                    seeds
                in
                Printf.sprintf
                  {|class Main { public static void main() {
                      int s = 0;
                      %s
                      System.out.println(s);
                    } }|}
                  (String.concat "\n" body))
              QCheck.Gen.(list_size (int_range 1 8) (int_range (-40) 40))))
        (fun src -> vm_output src "Main" = run_optimized src "Main");
      (* metrics *)
      case "metrics count decisions and nesting" (fun () ->
          let program = parse metrics_src in
          let metrics = Mj.Metrics.of_program program in
          let busy =
            List.find (fun m -> m.Mj.Metrics.mm_member = "busy") metrics
          in
          Alcotest.(check int) "loop depth" 2 busy.Mj.Metrics.mm_max_loop_depth;
          (* 2 fors + 1 if + 1 && = 4 decisions -> cyclomatic 5 *)
          Alcotest.(check int) "cyclomatic" 5 busy.Mj.Metrics.mm_cyclomatic;
          Alcotest.(check int) "calls" 1 busy.Mj.Metrics.mm_calls;
          let helper =
            List.find (fun m -> m.Mj.Metrics.mm_member = "helper") metrics
          in
          Alcotest.(check int) "helper cyclomatic" 1 helper.Mj.Metrics.mm_cyclomatic);
      case "metrics totals" (fun () ->
          let totals = Mj.Metrics.totals (parse metrics_src) in
          Alcotest.(check int) "classes" 1 totals.Mj.Metrics.pt_classes;
          Alcotest.(check int) "fields" 1 totals.Mj.Metrics.pt_fields;
          Alcotest.(check int) "methods" 2 totals.Mj.Metrics.pt_methods;
          Alcotest.(check bool) "statements counted" true
            (totals.Mj.Metrics.pt_statements > 5));
      case "metrics table renders" (fun () ->
          let text =
            Format.asprintf "%a" Mj.Metrics.pp_table
              (Mj.Metrics.of_program (parse metrics_src))
          in
          Alcotest.(check bool) "has rows" true (contains ~substring:"A.busy" text));
      (* SDF policy *)
      case "sdf: traffic light is compliant" (fun () ->
          Alcotest.(check bool) "compliant" true
            (Policy.Sdf_policy.compliant (check_src Workloads.Traffic_mj.source)));
      case "sdf: refined FIR is compliant" (fun () ->
          let outcome =
            Javatime.Engine.refine (parse Workloads.Fir_mj.unrestricted_source)
          in
          Alcotest.(check bool) "compliant" true
            (Policy.Sdf_policy.compliant outcome.Javatime.Engine.checked));
      case "sdf: restricted jpeg is compliant" (fun () ->
          Alcotest.(check bool) "compliant" true
            (Policy.Sdf_policy.compliant
               (check_src (Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 ()))));
      case "sdf: portPresent violates D3" (fun () ->
          let src =
            {|class X extends ASR {
                X() { declarePorts(1, 1); }
                public void run() {
                  if (portPresent(0)) writePort(0, readPort(0));
                  else writePort(0, 0);
                }
              }|}
          in
          Alcotest.(check bool) "D3" true (List.mem "D3-no-presence-test" (sdf_ids src)));
      case "sdf: double read violates D1" (fun () ->
          let src =
            {|class X extends ASR {
                X() { declarePorts(1, 1); }
                public void run() { writePort(0, readPort(0) + readPort(0)); }
              }|}
          in
          Alcotest.(check bool) "D1" true
            (List.mem "D1-single-rate-reads" (sdf_ids src)));
      case "sdf: missing write violates D2" (fun () ->
          let src =
            {|class X extends ASR {
                X() { declarePorts(1, 2); }
                public void run() { writePort(0, readPort(0)); }
              }|}
          in
          Alcotest.(check bool) "D2" true
            (List.mem "D2-single-rate-writes" (sdf_ids src)));
      case "sdf: conditional write violates D2" (fun () ->
          let src =
            {|class X extends ASR {
                X() { declarePorts(1, 1); }
                public void run() {
                  int x = readPort(0);
                  if (x > 0) writePort(0, x);
                  else writePort(0, 0);
                }
              }|}
          in
          Alcotest.(check bool) "D2" true
            (List.mem "D2-single-rate-writes" (sdf_ids src)));
      case "sdf: read in loop violates D1" (fun () ->
          let src =
            {|class X extends ASR {
                X() { declarePorts(1, 1); }
                public void run() {
                  int s = 0;
                  for (int i = 0; i < 3; i++) s += readPort(0);
                  writePort(0, s);
                }
              }|}
          in
          Alcotest.(check bool) "D1" true
            (List.mem "D1-single-rate-reads" (sdf_ids src)));
      case "sdf: dynamic port signature violates D0" (fun () ->
          let src =
            {|class X extends ASR {
                X(int n) { declarePorts(n, 1); }
                public void run() { writePort(0, 1); }
              }|}
          in
          Alcotest.(check bool) "D0" true (List.mem "D0-static-ports" (sdf_ids src)));
      case "sdf: an inherited design is read through its superclass" (fun () ->
          (* Derived's port signature comes from Base's constructor and
             its firing is Base's run. *)
          Alcotest.(check (list string)) "compliant" [] (sdf_ids inherited_src);
          let src =
            {|class Base extends ASR {
                Base() { declarePorts(2, 1); }
                public void run() { writePort(0, readPort(0)); }
              }
              class Derived extends Base { Derived() { super(); } }|}
          in
          let unread =
            List.filter_map
              (fun v ->
                if String.equal v.Policy.Rule.rule_id "D1-single-rate-reads"
                then Some v.Policy.Rule.subject
                else None)
              (Policy.Sdf_policy.check (check_src src))
          in
          Alcotest.(check (list string)) "port 1 unread in both"
            [ "Base.run"; "Derived.run" ] (List.sort compare unread));
      (* GC model *)
      case "gc: disabled by default" (fun () ->
          let heap = Mj_runtime.Heap.create () in
          Mj_runtime.Heap.set_phase heap Mj_runtime.Heap.Reactive;
          for _ = 1 to 100 do
            ignore (Mj_runtime.Heap.alloc_array heap ~elem:Mj.Ast.TInt 100)
          done;
          Alcotest.(check int) "no collections" 0 (Mj_runtime.Heap.gc_count heap));
      case "gc: threshold triggers collections and charges cycles" (fun () ->
          let heap = Mj_runtime.Heap.create () in
          let charged = ref 0 in
          Mj_runtime.Heap.set_gc_hook heap (fun ~live_words ->
              charged := !charged + live_words);
          Mj_runtime.Heap.configure_gc heap ~threshold_words:(Some 500);
          Mj_runtime.Heap.set_phase heap Mj_runtime.Heap.Reactive;
          for _ = 1 to 20 do
            ignore (Mj_runtime.Heap.alloc_array heap ~elem:Mj.Ast.TInt 100)
          done;
          (* 20 x 102 words = 2040 words, threshold 500 -> 4 collections *)
          Alcotest.(check int) "four collections" 4
            (Mj_runtime.Heap.gc_count heap);
          Alcotest.(check bool) "live words reported" true (!charged > 0));
      case "gc: init-phase allocation never collects" (fun () ->
          let heap = Mj_runtime.Heap.create () in
          Mj_runtime.Heap.configure_gc heap ~threshold_words:(Some 100);
          for _ = 1 to 50 do
            ignore (Mj_runtime.Heap.alloc_array heap ~elem:Mj.Ast.TInt 100)
          done;
          Alcotest.(check int) "no collections" 0 (Mj_runtime.Heap.gc_count heap));
      case "gc: unrestricted jpeg pays pauses, restricted does not" (fun () ->
          let image = Workloads.Images.synthetic ~width:24 ~height:16 in
          let gc_of src =
            let elab =
              Javatime.Elaborate.elaborate ~enforce_policy:false
                ~bounded_memory:false ~gc_threshold:2048 (check_src src)
                ~cls:"JpegCodec"
            in
            ignore
              (Javatime.Elaborate.react elab [| Asr.Domain.int_array image |]);
            Mj_runtime.Heap.gc_count
              (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap
          in
          Alcotest.(check bool) "unrestricted collects" true
            (gc_of (Workloads.Jpeg_mj.unrestricted_source ~width:24 ~height:16 ()) > 0);
          Alcotest.(check int) "restricted never" 0
            (gc_of (Workloads.Jpeg_mj.restricted_source ~width:24 ~height:16 ())));
      case "sdf: shares the thread and loop rules" (fun () ->
          let ids = Policy.Sdf_policy.rule_ids in
          List.iter
            (fun id ->
              Alcotest.(check bool) id true (List.mem id ids))
            [ "R1-no-threads"; "R2-no-reactive-allocation"; "R5-no-recursion" ]) ]
