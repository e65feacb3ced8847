open Util

let violations src = Policy.Asr_policy.check (check_src src)

let rule_ids src =
  List.sort_uniq String.compare
    (List.map (fun v -> v.Policy.Rule.rule_id) (violations src))

let has_rule src id = List.mem id (rule_ids src)

let asr_wrap run_body ctor_body =
  Printf.sprintf
    {|class X extends ASR {
        X() { declarePorts(1, 1); %s }
        public void run() { %s }
      }|}
    ctor_body run_body

let flags name src rule =
  case name (fun () ->
      if not (has_rule src rule) then
        Alcotest.failf "expected %s; got %s" rule
          (String.concat ", " (rule_ids src)))

let clean name src =
  case name (fun () ->
      let vs = List.filter Policy.Rule.is_blocking (violations src) in
      if vs <> [] then
        Alcotest.failf "expected compliance, got: %s"
          (String.concat "; "
             (List.map (fun v -> v.Policy.Rule.message) vs)))

let bound_of src =
  Policy.Time_bound.reaction_bound (check_src src) ~cls:"X"

let for_bound_of checked_src loop_body =
  let src =
    Printf.sprintf "class A { static final int N = 10; void f(int[] arr) { %s } }"
      loop_body
  in
  ignore checked_src;
  let checked = check_src src in
  let cls = List.hd checked.Mj.Typecheck.program.Mj.Ast.classes in
  let m = Option.get (Mj.Ast.find_method cls "f") in
  let found = ref None in
  Mj.Visit.iter_stmts (Option.get m.Mj.Ast.m_body)
    ~expr:(fun _ -> ())
    ~stmt:(fun s ->
      match s.Mj.Ast.stmt with
      | Mj.Ast.For _ when !found = None ->
          found := Some (Policy.Loop_bounds.for_bound checked s)
      | _ -> ());
  Option.get !found

let suite =
  [ (* R1 threads *)
    flags "R1: extending Thread"
      "class T extends Thread { T() {} public void run() {} }" "R1-no-threads";
    flags "R1: calling start" (asr_wrap "Thread.yield();" "") "R1-no-threads";
    (* R2 allocation *)
    flags "R2: array alloc in run" (asr_wrap "int[] t = new int[4]; t[0] = 1;" "")
      "R2-no-reactive-allocation";
    flags "R2: object alloc in helper reached from run"
      {|class Helper { Helper() {} }
        class X extends ASR {
          X() { declarePorts(1, 1); }
          private void deep() { Helper h = new Helper(); }
          public void run() { deep(); }
        }|}
      "R2-no-reactive-allocation";
    clean "R2: allocation in ctor is fine"
      (asr_wrap "writePort(0, readPort(0));" "int[] b = new int[4]; b[0] = 1;");
    clean "R2: allocation in unreached method is fine"
      {|class X extends ASR {
          X() { declarePorts(1, 1); }
          private void unused() { int[] t = new int[4]; t[0] = 1; }
          public void run() { writePort(0, readPort(0)); }
        }|};
    (* R3 loops *)
    flags "R3: while loop" (asr_wrap "int i = 0; while (i < 3) { i = i + 1; }" "")
      "R3-no-while-loops";
    flags "R3: do-while loop" (asr_wrap "int i = 0; do { i = i + 1; } while (i < 3);" "")
      "R3-no-while-loops";
    case "R3: convertible while advertises the transform" (fun () ->
        let vs =
          violations (asr_wrap "int i = 0; while (i < 3) { i = i + 1; }" "")
        in
        let v =
          List.find (fun v -> v.Policy.Rule.rule_id = "R3-no-while-loops") vs
        in
        Alcotest.(check (list string)) "auto" [ "while-to-for" ]
          (Policy.Rule.automatic_fixes v));
    case "R3: unconvertible while is manual" (fun () ->
        let vs =
          violations
            (asr_wrap "int i = 0; while (portPresent(0)) { i = i + 1; }" "")
        in
        let v =
          List.find (fun v -> v.Policy.Rule.rule_id = "R3-no-while-loops") vs
        in
        Alcotest.(check (list string)) "manual only" []
          (Policy.Rule.automatic_fixes v));
    (* R4 bounds *)
    flags "R4: non-constant bound"
      (asr_wrap "int n = readPort(0); for (int i = 0; i < n; i++) { }" "")
      "R4-bounded-for-loops";
    flags "R4: index modified in body"
      (asr_wrap "for (int i = 0; i < 5; i++) { i = i + 1; }" "")
      "R4-bounded-for-loops";
    clean "R4: literal bound fine" (asr_wrap "for (int i = 0; i < 5; i++) { }" "");
    (* R5 recursion *)
    flags "R5: direct recursion"
      {|class X extends ASR {
          X() { declarePorts(1, 1); }
          private int f(int n) { if (n == 0) return 0; return f(n - 1); }
          public void run() { writePort(0, f(readPort(0))); }
        }|}
      "R5-no-recursion";
    flags "R5: mutual recursion"
      {|class A {
          int f(int n) { return g(n); }
          int g(int n) { return f(n); }
        }|}
      "R5-no-recursion";
    (* R6 encapsulation *)
    flags "R6: public instance field"
      "class A { public int n; }" "R6-private-state";
    flags "R6: package instance field" "class A { int n; }" "R6-private-state";
    clean "R6: private fields fine" "class A { private int n; }";
    case "R6: externally used field gets manual fix only" (fun () ->
        let vs =
          violations
            "class A { public int n; } class B { void f(A a) { a.n = 1; } }"
        in
        let v = List.find (fun v -> v.Policy.Rule.rule_id = "R6-private-state") vs in
        Alcotest.(check (list string)) "manual" [] (Policy.Rule.automatic_fixes v));
    (* R7 finalizers *)
    flags "R7: finalize declared" "class A { void finalize() {} }" "R7-no-finalizers";
    (* R8 linked structures *)
    flags "R8: self-referential class" "class Node { private Node next; }"
      "R8-linked-structures";
    flags "R8: mutually referential classes"
      "class A { private B b; } class B { private A a; }" "R8-linked-structures";
    case "R8 is a caution, not blocking" (fun () ->
        let src = "class Node { private Node next; }" in
        Alcotest.(check bool) "compliant despite caution" true
          (Policy.Asr_policy.compliant (check_src src)));
    clean "R8: plain aggregation fine"
      "class Leaf { private int v; } class Tree { private Leaf l; }";
    (* R9 bounds *)
    case "R9: bounded run gets a cycle count" (fun () ->
        match bound_of (asr_wrap "for (int i = 0; i < 8; i++) { writePort(0, i); }" "") with
        | Policy.Time_bound.Cycles n -> Alcotest.(check bool) "positive" true (n > 0)
        | Policy.Time_bound.Unbounded why -> Alcotest.failf "unbounded: %s" why);
    case "R9: while makes run unbounded" (fun () ->
        match bound_of (asr_wrap "int i = 0; while (i < 3) { i = i + 1; }" "") with
        | Policy.Time_bound.Cycles _ -> Alcotest.fail "expected unbounded"
        | Policy.Time_bound.Unbounded why ->
            Alcotest.(check bool) "mentions while" true (contains ~substring:"while" why));
    case "R9: recursion makes run unbounded" (fun () ->
        let src =
          {|class X extends ASR {
              X() { declarePorts(1, 1); }
              private int f(int n) { if (n == 0) return 0; return f(n - 1); }
              public void run() { writePort(0, f(3)); }
            }|}
        in
        match bound_of src with
        | Policy.Time_bound.Cycles _ -> Alcotest.fail "expected unbounded"
        | Policy.Time_bound.Unbounded why ->
            Alcotest.(check bool) "mentions recursion" true
              (contains ~substring:"recursive" why));
    case "R9: loop bound scales the cost" (fun () ->
        let body n =
          Printf.sprintf "for (int i = 0; i < %d; i++) { writePort(0, i); }" n
        in
        match (bound_of (asr_wrap (body 10) ""), bound_of (asr_wrap (body 100) "")) with
        | Policy.Time_bound.Cycles small, Policy.Time_bound.Cycles large ->
            Alcotest.(check bool) "roughly 10x" true
              (large > 5 * small && large < 15 * small)
        | _ -> Alcotest.fail "both bounded expected");
    case "R9: dynamic dispatch takes the worst override" (fun () ->
        let src =
          {|class B { public int f() { return 1; } }
            class C extends B {
              public int f() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }
            }
            class X extends ASR {
              private B b;
              X() { declarePorts(1, 1); b = new C(); }
              public void run() { writePort(0, b.f()); }
            }|}
        in
        match Policy.Time_bound.reaction_bound (check_src src) ~cls:"X" with
        | Policy.Time_bound.Cycles n ->
            (* must account for C.f's 50-iteration loop, not just B.f *)
            Alcotest.(check bool) "covers override" true (n > 1000)
        | Policy.Time_bound.Unbounded why -> Alcotest.failf "unbounded: %s" why);
    case "R9: a class is bounded by the run it enters, not its subclasses'"
      (fun () ->
        let checked =
          check_src
            {|class Base extends ASR {
                Base() { declarePorts(1, 1); }
                public void run() { writePort(0, readPort(0)); }
              }
              class Loops extends Base {
                Loops() { super(); }
                public void run() {
                  int x = readPort(0);
                  while (x > 0) { x = x - 1; }
                  writePort(0, x);
                }
              }
              class Inherits extends Base { Inherits() { super(); } }|}
        in
        let bound cls = Policy.Time_bound.reaction_bound checked ~cls in
        (match (bound "Base", bound "Inherits") with
        | Policy.Time_bound.Cycles b, Policy.Time_bound.Cycles i ->
            Alcotest.(check int) "Inherits runs Base.run" b i
        | _ -> Alcotest.fail "Base and Inherits are bounded");
        match bound "Loops" with
        | Policy.Time_bound.Cycles _ -> Alcotest.fail "Loops is unbounded"
        | Policy.Time_bound.Unbounded why ->
            Alcotest.(check string) "why" "while loop" why);
    (* loop bound analysis details *)
    case "bound: simple upward loop" (fun () ->
        match for_bound_of () "for (int i = 0; i < 10; i++) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "10" 10 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: inclusive test" (fun () ->
        match for_bound_of () "for (int i = 0; i <= 10; i++) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "11" 11 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: step two" (fun () ->
        match for_bound_of () "for (int i = 0; i < 10; i += 2) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "5" 5 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: downward loop" (fun () ->
        match for_bound_of () "for (int i = 9; i >= 0; i--) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "10" 10 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: static final limit" (fun () ->
        match for_bound_of () "for (int i = 0; i < N; i++) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "N=10" 10 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: mirrored test" (fun () ->
        match for_bound_of () "for (int i = 0; 10 > i; i++) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "10" 10 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: wrong direction is not bounded" (fun () ->
        match for_bound_of () "for (int i = 0; i < 10; i--) { }" with
        | Policy.Loop_bounds.Bounded _ -> Alcotest.fail "should not be bounded"
        | _ -> ());
    case "bound: assignment-style update" (fun () ->
        match for_bound_of () "for (int i = 0; i < 6; i = i + 3) { }" with
        | Policy.Loop_bounds.Bounded n -> Alcotest.(check int) "2" 2 n
        | _ -> Alcotest.fail "bounded expected");
    case "bound: parameter limit unrecognized" (fun () ->
        let src = "class A { void f(int n) { for (int i = 0; i < n; i++) { } } }" in
        let checked = check_src src in
        let cls = List.hd checked.Mj.Typecheck.program.Mj.Ast.classes in
        let m = Option.get (Mj.Ast.find_method cls "f") in
        let result = ref None in
        Mj.Visit.iter_stmts (Option.get m.Mj.Ast.m_body)
          ~expr:(fun _ -> ())
          ~stmt:(fun s ->
            match s.Mj.Ast.stmt with
            | Mj.Ast.For _ -> result := Some (Policy.Loop_bounds.for_bound checked s)
            | _ -> ());
        match Option.get !result with
        | Policy.Loop_bounds.Unrecognized _ -> ()
        | _ -> Alcotest.fail "expected unrecognized");
    (* const eval *)
    case "const: arithmetic over static finals" (fun () ->
        let src =
          "class A { static final int W = 12; static final int P = (W + 7) / 8 * 8; }"
        in
        let checked = check_src src in
        let cls = List.hd checked.Mj.Typecheck.program.Mj.Ast.classes in
        let f = Option.get (Mj.Ast.find_field cls "P") in
        Alcotest.(check (option int)) "16" (Some 16)
          (Analysis.Const_eval.const_int checked (Option.get f.Mj.Ast.f_init)));
    case "const: field array length from ctor" (fun () ->
        let src = "class A { private int[] buf; A() { buf = new int[32]; } }" in
        Alcotest.(check (option int)) "32" (Some 32)
          (Analysis.Const_eval.field_array_length (check_src src) ~cls:"A" ~field:"buf"));
    case "const: reassigned array length unknown" (fun () ->
        let src =
          {|class A {
              private int[] buf;
              A() { buf = new int[32]; }
              void f() { buf = new int[64]; }
            }|}
        in
        Alcotest.(check (option int)) "unknown" None
          (Analysis.Const_eval.field_array_length (check_src src) ~cls:"A" ~field:"buf"));
    clean "R4: field-length bound accepted"
      "class X extends ASR { private int[] buf; X() { declarePorts(1, 1); buf \
       = new int[16]; } public void run() { for (int i = 0; i < buf.length; \
       i++) { writePort(0, buf[i]); } } }";
    (* call graph *)
    case "call graph reachability" (fun () ->
        let src =
          {|class A {
              void a() { b(); }
              void b() {}
              void lonely() {}
            }|}
        in
        let checked = check_src src in
        let graph = Analysis.Call_graph.build checked in
        let reachable =
          Analysis.Call_graph.reachable graph
            ~roots:(Option.to_list (Analysis.Call_graph.method_node graph "A" "a"))
        in
        Alcotest.(check bool) "b reachable" true
          (List.mem ("A", "b") reachable);
        Alcotest.(check bool) "lonely not reachable" false
          (List.mem ("A", "lonely") reachable));
    case "call graph covers dynamic dispatch" (fun () ->
        let src =
          {|class B { public void m() {} }
            class C extends B { public void m() { helper(); } void helper() {} }
            class A { void f(B b) { b.m(); } }|}
        in
        let checked = check_src src in
        let graph = Analysis.Call_graph.build checked in
        let reachable =
          Analysis.Call_graph.reachable graph
            ~roots:(Option.to_list (Analysis.Call_graph.method_node graph "A" "f"))
        in
        Alcotest.(check bool) "override helper reachable" true
          (List.mem ("C", "helper") reachable));
    (* whole-workload verdicts *)
    clean "traffic light is compliant" Workloads.Traffic_mj.source;
    clean "restricted jpeg is compliant"
      (Workloads.Jpeg_mj.restricted_source ~width:24 ~height:16 ());
    clean "fig8 refined blocks are compliant" Workloads.Fig8_mj.refined_blocks_source;
    case "unrestricted jpeg violates R1?no R2/R3/R6/R8/R9" (fun () ->
        let ids =
          rule_ids (Workloads.Jpeg_mj.unrestricted_source ~width:24 ~height:16 ())
        in
        List.iter
          (fun id ->
            if not (List.mem id ids) then Alcotest.failf "missing %s" id)
          [ "R2-no-reactive-allocation"; "R3-no-while-loops"; "R6-private-state";
            "R8-linked-structures"; "R9-bounded-reaction" ];
        Alcotest.(check bool) "no threads flagged" false
          (List.mem "R1-no-threads" ids));
    case "fig8 threaded violates R1" (fun () ->
        Alcotest.(check bool) "R1" true
          (has_rule Workloads.Fig8_mj.threaded_source "R1-no-threads")) ]
