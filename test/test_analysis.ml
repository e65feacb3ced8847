open Util

(* PR 2: the abstract-interpretation dataflow engine — interval loop
   bounds, bounds-check elision, the static race detector — plus the
   Const_eval and Escape edge cases fixed alongside it. *)

(* ------------------------------------------------------------------ *)
(* Interval loop bounds                                                *)
(* ------------------------------------------------------------------ *)

(* All For loops of a method body, with the body as enclosing context. *)
let loops_of checked =
  let out = ref [] in
  List.iter
    (fun cls ->
      List.iter
        (fun body ->
          Mj.Visit.iter_stmts
            ~stmt:(fun s ->
              match s.Mj.Ast.stmt with
              | Mj.Ast.For _ -> out := (body, s) :: !out
              | _ -> ())
            ~expr:(fun _ -> ())
            body.Mj.Visit.b_stmts)
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.Mj.Ast.classes;
  List.rev !out

(* Bound of the first For loop in A.f, with the whole body as context. *)
let method_for_bound body_src =
  let src =
    Printf.sprintf
      "class A { static final int N = 10; int g() { return 42; } void f(int p, \
       int[] arr) { %s } }"
      body_src
  in
  let checked = check_src src in
  match
    List.find_opt
      (fun (body, _) -> body.Mj.Visit.b_class = "A")
      (loops_of checked)
  with
  | Some (body, s) ->
      Policy.Loop_bounds.for_bound ~enclosing:body.Mj.Visit.b_stmts
        (Analysis.Facts.of_checked checked) s
  | None -> Alcotest.fail "no for loop found"

let expect_bounded name body_src n =
  case name (fun () ->
      match method_for_bound body_src with
      | Policy.Loop_bounds.Bounded m ->
          Alcotest.(check int) "iterations" n m
      | Policy.Loop_bounds.Index_modified x ->
          Alcotest.failf "index modified: %s" x
      | Policy.Loop_bounds.Unrecognized why ->
          Alcotest.failf "unrecognized: %s" why)

let expect_unbounded name body_src =
  case name (fun () ->
      match method_for_bound body_src with
      | Policy.Loop_bounds.Bounded m -> Alcotest.failf "bounded to %d" m
      | Policy.Loop_bounds.Index_modified _ | Policy.Loop_bounds.Unrecognized _
        ->
          ())

let workload_sources =
  [ ("traffic", Workloads.Traffic_mj.source);
    ("elevator", Workloads.Elevator_mj.source);
    ("uart", Workloads.Uart_mj.source);
    ("fig8-blocks", Workloads.Fig8_mj.refined_blocks_source);
    ("jpeg-restricted", Workloads.Jpeg_mj.restricted_source ~width:32 ~height:24 ());
    ("jpeg-unrestricted",
     Workloads.Jpeg_mj.unrestricted_source ~width:32 ~height:24 ()) ]

let interval_suite =
  [ case "interval subsumes the syntactic recognizer on every workload"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let checked = check_src src in
            let facts = Analysis.Facts.of_checked checked in
            List.iter
              (fun (body, s) ->
                match Policy.Loop_bounds.syntactic_for_bound facts s with
                | Policy.Loop_bounds.Bounded n -> (
                    match
                      Policy.Loop_bounds.for_bound
                        ~enclosing:body.Mj.Visit.b_stmts facts s
                    with
                    | Policy.Loop_bounds.Bounded m when m = n -> ()
                    | Policy.Loop_bounds.Bounded m ->
                        Alcotest.failf "%s %s: syntactic %d but interval %d"
                          name (Mj.Visit.body_name body) n m
                    | _ ->
                        Alcotest.failf "%s %s: syntactic Bounded %d regressed"
                          name (Mj.Visit.body_name body) n)
                | _ -> ())
              (loops_of checked))
          workload_sources);
    (* shapes the syntactic recognizer rejects, now bounded *)
    expect_bounded "bound copied through a local"
      "int m = N * 2; for (int i = 0; i < m; i++) { p = p + i; }" 20;
    expect_bounded "bound computed through a chain of locals"
      "int n = 5; int m = n + 3; for (int i = 0; i < m; i++) { p = p + i; }" 8;
    expect_bounded "descending loop from a local start"
      "int m = N; for (int i = m - 1; i >= 0; i--) { p = p + i; }" 10;
    (* guardrails: runtime-governed bounds must stay flagged *)
    expect_unbounded "call result as bound stays unrecognized"
      "int n = g(); for (int i = 0; i < n; i++) { p = p + i; }";
    expect_unbounded "parameter as bound stays unrecognized"
      "for (int i = 0; i < p; i++) { p = p - 1; }";
    expect_unbounded "parameter-length array bound stays unrecognized"
      "for (int i = 0; i < arr.length; i++) { p = p + arr[i]; }";
    expect_unbounded "index modified in the body stays flagged"
      "for (int i = 0; i < N; i++) { i = i - 1; }";
    (* the step may flow through a local, but only a stable one *)
    expect_bounded "step through an unmodified local"
      "int k = 100; for (int i = 0; i < 1000; i += k) { p = p + i; }" 10;
    expect_unbounded "step local modified in the body is rejected"
      "int k = 100; for (int i = 0; i < 1000; i += k) { k = 1; }";
    (* the closed form must not claim loops whose index wraps at int32 *)
    expect_unbounded "stride that wraps past int32 is rejected"
      "for (int i = 0; i < 2147483646; i += 4) { p = p + 1; }";
    expect_bounded "unit stride to the int32 limit still bounds"
      "for (int i = 0; i < 2147483647; i++) { p = p + 1; }" 2147483647 ]

(* ------------------------------------------------------------------ *)
(* Static race detector                                                *)
(* ------------------------------------------------------------------ *)

let races src = Analysis.Races.detect (check_src src)

let race_suite =
  [ case "fig8 threaded: the shared x is a race, the private seen is not"
      (fun () ->
        match races Workloads.Fig8_mj.threaded_source with
        | [ r ] ->
            Alcotest.(check string) "class" "SharedX" r.Analysis.Races.r_class;
            Alcotest.(check string) "field" "x" r.Analysis.Races.r_field;
            Alcotest.(check (list string)) "roots"
              [ "ReaderC"; "WriterA"; "WriterB" ]
              (List.sort compare r.Analysis.Races.r_roots);
            Alcotest.(check (list string)) "writers" [ "WriterA"; "WriterB" ]
              (List.sort_uniq compare
                 (List.map fst r.Analysis.Races.r_writes))
        | rs -> Alcotest.failf "expected exactly 1 race, got %d" (List.length rs));
    case "refined blocks version has no races" (fun () ->
        Alcotest.(check int) "races" 0
          (List.length (races Workloads.Fig8_mj.refined_blocks_source)));
    case "restricted workloads have no races" (fun () ->
        List.iter
          (fun (name, src) ->
            let n = List.length (races src) in
            if n > 0 then Alcotest.failf "%s: %d spurious race(s)" name n)
          workload_sources);
    case "two readers without a write do not race" (fun () ->
        let src =
          {|class S { public static int v = 7; }
            class R1 extends Thread { R1() {} public void run() { int t = S.v; } }
            class R2 extends Thread { R2() {} public void run() { int t = S.v; } }|}
        in
        Alcotest.(check int) "races" 0 (List.length (races src)));
    case "write reached through a helper call is still found" (fun () ->
        let src =
          {|class S { public static int v = 0; }
            class H { H() {} void bump() { S.v = S.v + 1; } }
            class W extends Thread { W() {} public void run() { H h = new H(); h.bump(); } }
            class R extends Thread { R() {} public void run() { int t = S.v; } }|}
        in
        match races src with
        | [ r ] ->
            Alcotest.(check string) "field" "v" r.Analysis.Races.r_field
        | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs));
    case "one thread class instantiated twice races with itself" (fun () ->
        let src =
          {|class S { public static int v = 0; }
            class W extends Thread { W() {} public void run() { S.v = S.v + 1; } }
            class M { public static void main() { W a = new W(); W b = new W(); a.start(); b.start(); a.join(); b.join(); } }|}
        in
        match races src with
        | [ r ] ->
            Alcotest.(check (list string)) "roots" [ "W" ]
              r.Analysis.Races.r_roots
        | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs));
    case "one thread class instantiated once does not race with itself"
      (fun () ->
        let src =
          {|class S { public static int v = 0; }
            class W extends Thread { W() {} public void run() { S.v = S.v + 1; } }
            class M { public static void main() { W a = new W(); a.start(); a.join(); } }|}
        in
        Alcotest.(check int) "races" 0 (List.length (races src)));
    case "instantiation under a loop counts as multiple instances" (fun () ->
        let src =
          {|class S { public static int v = 0; }
            class W extends Thread { W() {} public void run() { S.v = S.v + 1; } }
            class M { public static void main() { for (int i = 0; i < 3; i++) { W w = new W(); w.start(); } } }|}
        in
        Alcotest.(check int) "races" 1 (List.length (races src)));
    case "main reading between start and join races with the writer"
      (fun () ->
        let src =
          {|class S { public static int v = 0; }
            class W extends Thread { W() {} public void run() { S.v = S.v + 1; } }
            class M { public static void main() { W a = new W(); a.start(); int t = S.v; a.join(); } }|}
        in
        match races src with
        | [ r ] ->
            Alcotest.(check (list string)) "roots" [ "W"; "main" ]
              (List.sort compare r.Analysis.Races.r_roots)
        | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs));
    case "main reading after all joins does not race" (fun () ->
        let src =
          {|class S { public static int v = 0; }
            class W extends Thread { W() {} public void run() { S.v = S.v + 1; } }
            class M { public static void main() { W a = new W(); a.start(); a.join(); int t = S.v; } }|}
        in
        Alcotest.(check int) "races" 0 (List.length (races src)));
    case "R10 flags the threaded fig8 and not the refined version" (fun () ->
        let ids src =
          List.filter_map
            (fun v ->
              if v.Policy.Rule.rule_id = "R10-no-shared-field-races" then
                Some v.Policy.Rule.severity
              else None)
            (Policy.Asr_policy.check (check_src src))
        in
        let threaded = ids Workloads.Fig8_mj.threaded_source in
        Alcotest.(check bool) "threaded flagged" true
          (List.mem Policy.Rule.Forbidden threaded);
        Alcotest.(check int) "refined clean" 0
          (List.length (ids Workloads.Fig8_mj.refined_blocks_source))) ]

let super_ctor_race =
  case "a write in a superclass constructor races, explicit or implicit super"
    (fun () ->
      let src child_ctor =
        Printf.sprintf
          {|class Counter { public static int n = 0; }
            class Base { Base() { Counter.n = Counter.n + 1; } }
            class Child extends Base { %s }
            class T1 extends Thread { T1() {} public void run() { Child c = new Child(); } }
            class T2 extends Thread { T2() {} public void run() { Child c = new Child(); } }|}
          child_ctor
      in
      let r10 src =
        List.length
          (List.filter
             (fun v -> v.Policy.Rule.rule_id = "R10-no-shared-field-races")
             (Policy.Asr_policy.check (check_src src)))
      in
      List.iter
        (fun ctor ->
          (match races (src ctor) with
          | [ r ] ->
              Alcotest.(check string) (ctor ^ ": field") "n"
                r.Analysis.Races.r_field;
              Alcotest.(check (list string)) (ctor ^ ": roots") [ "T1"; "T2" ]
                (List.sort compare r.Analysis.Races.r_roots)
          | rs ->
              Alcotest.failf "%s: expected 1 race, got %d" ctor
                (List.length rs));
          Alcotest.(check bool) (ctor ^ ": R10 flags it") true
            (r10 (src ctor) > 0))
        [ "Child() { super(); }"; "Child() {}"; "" ])

(* ------------------------------------------------------------------ *)
(* Call graph against execution                                        *)
(* ------------------------------------------------------------------ *)

(* Labels of the methods the reference interpreter enters during four
   ramp reactions of [cls] (not during its construction). *)
let entered_by_reactions checked ~cls =
  let module E = Javatime.Elaborate in
  let module V = Javatime.Verify in
  let profile = Telemetry.Profile.create () in
  let elab =
    E.elaborate ~engine:E.Engine_interp ~enforce_policy:false
      ~bounded_memory:false ~profile checked ~cls
  in
  let n_in, _ = E.ports elab in
  let kinds = V.input_kinds checked ~cls ~n_in in
  let array_size =
    if Array.exists Fun.id kinds then
      V.calibrate_array_size ~engine:E.Engine_interp ~kinds checked ~cls
    else 1
  in
  let calls () =
    List.map
      (fun r -> (r.Telemetry.Profile.r_label, r.Telemetry.Profile.r_calls))
      (Telemetry.Profile.rows profile)
  in
  let before = calls () in
  for t = 0 to 3 do
    ignore (E.react elab (Array.init n_in (V.make_inputs ~kinds ~array_size t)))
  done;
  List.filter_map
    (fun (label, n) ->
      if n > Option.value ~default:0 (List.assoc_opt label before) then
        Some label
      else None)
    (calls ())

(* Is the profile label ["Cls.member"] a node of [nodes]? A constructor
   is labelled ["Cls.<init>"], whatever its arity. *)
let covers nodes label =
  match String.index_opt label '.' with
  | None -> false
  | Some i -> (
      let cls = String.sub label 0 i in
      match String.sub label (i + 1) (String.length label - i - 1) with
      | "<init>" ->
          List.exists
            (fun (c, m) -> String.equal c cls && String.starts_with ~prefix:"<init>/" m)
            nodes
      | member -> List.mem (cls, member) nodes)

let call_graph_suite =
  [ case "every method a reaction enters is reachable from run" (fun () ->
        List.iter
          (fun (design, src) ->
            let checked = check_src src in
            let graph = Analysis.Call_graph.build checked in
            List.iter
              (fun cls ->
                let reachable =
                  Analysis.Call_graph.reachable graph
                    ~roots:
                      (Option.to_list
                         (Analysis.Call_graph.method_node graph cls "run"))
                in
                let entered = entered_by_reactions checked ~cls in
                if entered = [] then Alcotest.failf "%s.%s: no method entered" design cls;
                List.iter
                  (fun label ->
                    if not (covers reachable label) then
                      Alcotest.failf "%s: %s.run entered %s, which the call \
                                      graph does not reach"
                        design cls label)
                  entered)
              (Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "ASR"))
          [ ("fir", Workloads.Fir_mj.unrestricted_source);
            ("traffic", Workloads.Traffic_mj.source);
            ("elevator", Workloads.Elevator_mj.source);
            ("fig8-blocks", Workloads.Fig8_mj.refined_blocks_source);
            ("uart", Workloads.Uart_mj.source);
            (* The bundled JPEG codecs are 48x40; the classes are the
               same at 16x8, whose reactions the interpreter runs in a
               fraction of the time. *)
            ("jpeg-unrestricted",
             Workloads.Jpeg_mj.unrestricted_source ~width:16 ~height:8 ());
            ("jpeg-restricted",
             Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 ());
            ("inherited", inherited_src) ]);
    case "an inherited member resolves to the class that defines it" (fun () ->
        let checked = check_src inherited_src in
        let graph = Analysis.Call_graph.build checked in
        Alcotest.(check (option (pair string string))) "run" (Some ("Base", "run"))
          (Analysis.Call_graph.method_node graph "Derived" "run");
        Alcotest.(check (list (pair string string))) "constructor chain"
          [ ("Derived", "<init>/0"); ("Base", "<init>/0"); ("ASR", "<init>/0") ]
          (Analysis.Call_graph.constructors graph "Derived" 0));
    case "an inherited run's array ports are found in its superclass" (fun () ->
        let checked =
          check_src
            {|class Base extends ASR {
                Base() { declarePorts(2, 1); }
                public void run() {
                  int[] a = readPortArray(0);
                  writePort(0, a[0] + readPort(1));
                }
              }
              class Derived extends Base { Derived() { super(); } }|}
        in
        Alcotest.(check (array bool)) "port 0 carries arrays" [| true; false |]
          (Javatime.Verify.input_kinds checked ~cls:"Derived" ~n_in:2));
    case "a constructor runs its field initializers" (fun () ->
        let checked =
          check_src
            {|class Helper { Helper() {} int one() { return 1; } }
              class A { private int x = new Helper().one(); A() {} }|}
        in
        let graph = Analysis.Call_graph.build checked in
        let ctor = ("A", "<init>/0") in
        Alcotest.(check int) "field initializer and body" 2
          (List.length (Analysis.Call_graph.bodies graph ctor));
        Alcotest.(check bool) "initializer's call reached" true
          (List.mem ("Helper", "one")
             (Analysis.Call_graph.reachable graph ~roots:[ ctor ]))) ]

(* ------------------------------------------------------------------ *)
(* Const_eval edge cases                                               *)
(* ------------------------------------------------------------------ *)

(* Evaluate the initializer of static final field [r] in [decls]. *)
let const_of decls =
  let src = Printf.sprintf "class A { %s }" decls in
  let checked = check_src src in
  let cls = List.hd checked.Mj.Typecheck.program.Mj.Ast.classes in
  let f = List.find (fun f -> f.Mj.Ast.f_name = "r") cls.Mj.Ast.cl_fields in
  Analysis.Const_eval.const_int (Analysis.Facts.of_checked checked)
    (Option.get f.Mj.Ast.f_init)

let const_suite =
  [ case "addition wraps to 32 bits like the VM" (fun () ->
        Alcotest.(check (option int)) "wrap" (Some (-294967296))
          (const_of "static final int r = 2000000000 + 2000000000;"));
    case "multiplication wraps to 32 bits" (fun () ->
        Alcotest.(check (option int)) "wrap" (Some 1410065408)
          (const_of "static final int r = 100000 * 100000;"));
    case "shift distance is masked to 5 bits" (fun () ->
        Alcotest.(check (option int)) "1 << 33" (Some 2)
          (const_of "static final int r = 1 << 33;"));
    case "division by zero is not constant and does not raise" (fun () ->
        Alcotest.(check (option int)) "7 / 0" None
          (const_of "static final int r = 7 / 0;"));
    case "modulo by zero is not constant and does not raise" (fun () ->
        Alcotest.(check (option int)) "7 % 0" None
          (const_of "static final int r = 7 % 0;"));
    case "static finals computed from static finals" (fun () ->
        Alcotest.(check (option int)) "chain" (Some 40)
          (const_of
             "static final int A = 6; static final int B = A * 7; static \
              final int r = B - 2;")) ]

(* ------------------------------------------------------------------ *)
(* Escape analysis regressions                                         *)
(* ------------------------------------------------------------------ *)

(* Does local [x] escape from A.f's body? *)
let escapes methods =
  let src = Printf.sprintf "class A { int[] q; %s }" methods in
  let checked = check_src src in
  let cls = List.hd checked.Mj.Typecheck.program.Mj.Ast.classes in
  let m = Option.get (Mj.Ast.find_method cls "f") in
  Analysis.Escape.local_escapes "x" (Option.get m.Mj.Ast.m_body)

let escape_suite =
  [ case "indexing, length and rebinding do not escape" (fun () ->
        Alcotest.(check bool) "no escape" false
          (escapes
             "void f(int[] x) { x[0] = 1; int n = x.length; int y = x[0] + \
              x[1]; x = new int[3]; }"));
    case "plain call argument escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes "int g(int[] a) { return a[0]; } void f(int[] x) { int y = g(x); }"));
    case "cast-wrapped call argument escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes
             "int g(int[] a) { return a[0]; } void f(int[] x) { int y = \
              g((int[]) x); }"));
    case "cast-wrapped return escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes "int[] f(int[] x) { return (int[]) x; }"));
    case "cast-wrapped field store escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes "void f(int[] x) { q = (int[]) x; }"));
    case "aliasing into another local escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes "void f(int[] x) { int[] y; y = x; }"));
    case "aliasing at declaration escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes "void f(int[] x) { int[] y = x; }"));
    case "storing into an element of another array escapes" (fun () ->
        Alcotest.(check bool) "escape" true
          (escapes "void f(int x) { int[] a = new int[2]; a[0] = x; }")) ]

(* ------------------------------------------------------------------ *)
(* Bounds-check elision: differential property                         *)
(* ------------------------------------------------------------------ *)

type outcome = Finished of string | Trapped of string

let vm_run ~elide checked cls =
  let plan =
    if elide then Some (Analysis.Elide.plan (Analysis.Facts.of_checked checked))
    else None
  in
  let s =
    Mj_bytecode.Vm.create
      (Mj_bytecode.Compile.compile ?elide:plan checked)
  in
  let result =
    try
      Mj_bytecode.Vm.run_main s cls;
      Finished (Mj_bytecode.Vm.output s)
    with Mj_runtime.Heap.Runtime_error m -> Trapped m
  in
  (result,
   Mj_runtime.Cost.cycles (Mj_bytecode.Vm.machine s).Mj_runtime.Machine.cost)

let jit_run ~elide checked cls =
  let plan =
    if elide then Some (Analysis.Elide.plan (Analysis.Facts.of_checked checked))
    else None
  in
  let s =
    Mj_bytecode.Jit.create
      (Mj_bytecode.Compile.compile ?elide:plan checked)
  in
  let result =
    try
      Mj_bytecode.Jit.run_main s cls;
      Finished (Mj_bytecode.Jit.output s)
    with Mj_runtime.Heap.Runtime_error m -> Trapped m
  in
  (result,
   Mj_runtime.Cost.cycles (Mj_bytecode.Jit.machine s).Mj_runtime.Machine.cost)

let interp_run checked cls =
  let s = Mj_runtime.Interp.create checked in
  try
    Mj_runtime.Interp.run_main s cls;
    Finished (Mj_runtime.Interp.output s)
  with Mj_runtime.Heap.Runtime_error m -> Trapped m

(* One random straight-line program over a constant-sized local array:
   a constant-bounded fill loop (possibly overrunning) followed by a
   handful of literal-index reads (possibly out of range). The interval
   analysis elides exactly the in-range accesses; the property is that
   elision changes neither outputs nor traps and never adds cycles. *)
let random_program (n, l, idxs) =
  let reads =
    String.concat "\n    "
      (List.map (Printf.sprintf "s = s + a[%d];") idxs)
  in
  Printf.sprintf
    {|class P {
  static void main() {
    int[] a = new int[%d];
    for (int i = 0; i < %d; i++) { a[i] = i * 2; }
    int s = 0;
    %s
    System.out.println("s=" + s);
  }
}|}
    n l reads

let gen_program =
  QCheck.make
    ~print:(fun (n, l, idxs) ->
      Printf.sprintf "n=%d l=%d idxs=[%s]" n l
        (String.concat ";" (List.map string_of_int idxs)))
    QCheck.Gen.(
      triple (int_range 1 6) (int_range 0 8)
        (list_size (int_range 1 6) (int_range (-2) 8)))

let differential_case checked cls =
  let reference = interp_run checked cls in
  List.iter
    (fun (label, run) ->
      let base, base_cycles = run ~elide:false checked cls in
      let elided, elided_cycles = run ~elide:true checked cls in
      if base <> elided then
        Alcotest.failf "%s: elision changed the outcome" label;
      if base <> reference then
        Alcotest.failf "%s: disagrees with the interpreter" label;
      if elided_cycles > base_cycles then
        Alcotest.failf "%s: elision cost cycles (%d > %d)" label elided_cycles
          base_cycles)
    [ ("vm", vm_run); ("jit", jit_run) ]

let elision_suite =
  [ qcase ~count:60 "random array programs run identically with elision"
      gen_program
      (fun p ->
        let checked = check_src (random_program p) in
        differential_case checked "P";
        true);
    case "elision preserves a genuine out-of-range trap" (fun () ->
        let checked =
          check_src
            {|class P {
  static void main() {
    int[] a = new int[4];
    a[2] = 5;
    System.out.println("pre=" + a[2]);
    a[7] = 1;
    System.out.println("unreached");
  }
}|}
        in
        (match vm_run ~elide:true checked "P" with
        | Trapped _, _ -> ()
        | Finished out, _ -> Alcotest.failf "no trap; output %S" out);
        differential_case checked "P");
    case "side-effecting condition does not mislead narrowing" (fun () ->
        (* [i < ++i] compares the pre-increment value, so the true
           branch always runs and a[5] must trap; narrowing [i] with
           the post-increment binding used to mark it dead and elide
           the (failing) check. *)
        let checked =
          check_src
            {|class P {
  static void main() {
    int[] a = new int[1];
    int i = 3;
    if (i < ++i) { i = 5; } else { i = 0; }
    a[i] = 1;
    System.out.println("unreached");
  }
}|}
        in
        (match vm_run ~elide:true checked "P" with
        | Trapped _, _ -> ()
        | Finished out, _ -> Alcotest.failf "no trap; output %S" out);
        differential_case checked "P");
    case "workload reactions are unchanged under elision" (fun () ->
        List.iter
          (fun (name, src, cls, input) ->
            let drive elide =
              let checked = check_src src in
              let elab =
                Javatime.Elaborate.elaborate ~enforce_policy:false
                  ~bounded_memory:false ~elide_bounds_checks:elide checked ~cls
              in
              let outs =
                List.init 8 (fun i ->
                    Javatime.Elaborate.react elab [| input i |])
              in
              (outs, Javatime.Elaborate.total_cycles elab)
            in
            let base, base_cycles = drive false in
            let elided, elided_cycles = drive true in
            if base <> elided then
              Alcotest.failf "%s: outputs differ under elision" name;
            if elided_cycles > base_cycles then
              Alcotest.failf "%s: elision cost cycles" name)
          [ ("traffic", Workloads.Traffic_mj.source, "TrafficLight",
             fun i -> Asr.Domain.int (i mod 2));
            ("elevator", Workloads.Elevator_mj.source, "Elevator",
             fun i -> Asr.Domain.int (i mod 4));
            ("fir", Workloads.Fir_mj.unrestricted_source, "FirFilter",
             fun i -> Asr.Domain.int ((i * 13) mod 50)) ]) ]

let suite =
  interval_suite @ race_suite @ const_suite @ escape_suite @ elision_suite
  @ [ super_ctor_race ] @ call_graph_suite
