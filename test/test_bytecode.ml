open Util

(* Differential corpus: every program runs under the reference
   interpreter, the bytecode VM, and the closure backend; the console
   outputs must match exactly. *)
let corpus =
  [ ( "arith",
      {|class Main { public static void main() {
          System.out.println(2 + 3 * 4 - 7 / 2 % 3);
          System.out.println((1 << 8) - (300 >> 2) + (12 & 10) - (12 | 10) + (12 ^ 10));
          System.out.println(2147483647 + 1);
          System.out.println(1.5 / 0.25 + 0.125);
          System.out.println((int)(7.9) + (int)(-7.9));
          System.out.println((double)3 / 2);
        } }|} );
    ( "control",
      {|class Main { public static void main() {
          int s = 0;
          for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
          System.out.println(s);
          int j = 0;
          while (j < 100) { j += 7; if (j > 50) break; }
          System.out.println(j);
          int k = 0;
          do { k++; } while (k < 5);
          System.out.println(k);
          System.out.println(k > 3 ? "big" : "small");
          boolean b = k > 3 && j > 10 || false;
          System.out.println(!b);
        } }|} );
    ( "objects",
      {|class Shape { public int area() { return 0; } }
        class Square extends Shape {
          private int side;
          Square(int s) { side = s; }
          public int area() { return side * side; }
        }
        class Rect extends Square {
          private int h;
          Rect(int w, int h0) { super(w); h = h0; }
          public int area() { return super.area() / 1 * h / h * h; }
        }
        class Main { public static void main() {
          Shape a = new Square(3);
          Shape b = new Rect(2, 5);
          System.out.println(a.area() + "," + b.area());
        } }|} );
    ( "arrays",
      {|class Main { public static void main() {
          int[][] m = new int[3][4];
          for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          int s = 0;
          for (int i = 0; i < m.length; i++) s += m[i][m[i].length - 1];
          System.out.println(s);
          double[] d = new double[2];
          d[0] += 1.5; d[1] = d[0] * 2;
          System.out.println(d[1]);
          int[] a = new int[3];
          a[1] = 5; a[1] *= 3; a[1]--; ++a[1];
          System.out.println(a[1]);
        } }|} );
    ( "statics-and-strings",
      {|class Counter {
          static int count = 0;
          static int next() { count++; return count; }
        }
        class Main { public static void main() {
          System.out.println(Counter.next() + "," + Counter.next() + "," + Counter.count);
          String s = "";
          for (int i = 0; i < 4; i++) s += i;
          System.out.println(s);
          System.out.println("pi~" + 3.14);
        } }|} );
    ( "incr-decr-matrix",
      {|class Box { public int v; Box(int v0) { v = v0; } }
        class Main { public static void main() {
          Box b = new Box(10);
          System.out.println(b.v++ + " " + b.v-- + " " + --b.v + " " + ++b.v);
          int x = 3;
          x += x++ + ++x;
          System.out.println(x);
        } }|} );
    ( "math-natives",
      {|class Main { public static void main() {
          System.out.println(Math.round(Math.sqrt(2.0) * 1000.0));
          System.out.println(Math.floor(2.7) + Math.ceil(2.1));
          System.out.println(Math.iabs(-5) + Math.min(1, 2) + Math.max(1, 2));
          System.out.println(Math.abs(-2.5));
        } }|} );
    ("fib", "class Main { static int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } public static void main() { System.out.println(fib(15)); } }");
    ( "null-and-casts",
      {|class B { public int tag() { return 1; } }
        class C extends B { public int tag() { return 2; } }
        class Main { public static void main() {
          B x = null;
          System.out.println(x == null);
          x = new C();
          System.out.println(x != null);
          C c = (C)x;
          System.out.println(c.tag());
        } }|} ) ]

(* Double-to-int narrowing saturates (JLS 5.1.3): NaN becomes 0 and
   out-of-range values clamp to the int range, for casts, compound
   assignment and Math.round alike. *)
let saturation_src =
  {|class Main { public static void main() {
      System.out.println((int)(2147483648.0 * 5.0));
      System.out.println((int)(-2147483649.0 * 3.0));
      System.out.println((int)(0.0 / 0.0));
      System.out.println((int)(1.0 / 0.0));
      System.out.println((int)(-1.0 / 0.0));
      System.out.println((int)(2147483647.5) + "," + (int)(-2147483648.5));
      System.out.println((int)(-7.9) + "," + (int)(7.9));
      int x = 7; x += 1.0e10; System.out.println(x);
      int y = -7; y *= 1.0e12; System.out.println(y);
      int[] a = new int[1]; a[0] -= 1.0e300; System.out.println(a[0]);
      System.out.println(Math.round(3.0e10) + "," + Math.round(-3.0e10));
      System.out.println(Math.round(2.5) + "," + Math.round(-0.4));
    } }|}

let saturation_expected =
  "2147483647\n-2147483648\n0\n2147483647\n-2147483648\n\
   2147483647,-2147483648\n-7,7\n2147483647\n-2147483648\n-2147483648\n\
   2147483647,-2147483648\n3,0\n"

(* Operand-stack shapes the closure backend must carry across basic
   blocks or spill: values pending under a conditional, duplicated
   field and element updates in value position, assignments used as
   values, and calls whose arguments branch. *)
let shapes_src =
  {|class P { public int f; public int[] a; static int s = 5;
      P() { a = new int[4]; }
      public int get(int k) { return a[k & 3]; }
      public int sum(int x, int y, int z) { return x * 100 + y * 10 + z; } }
    class Main {
      static int calls = 0;
      static int tick() { calls++; return calls; }
      public static void main() {
        P p = new P();
        int i = 1;
        p.a[i > 0 ? i : 0] = i > 0 && p.f == 0 ? 7 : 8;
        System.out.println(p.a[1] + "," + p.sum(tick(), i < 2 || tick() > 9 ? 3 : 4, tick()));
        System.out.println(p.f++ + p.f++ + "," + (p.a[i]++ + ++p.a[i]) + "," + P.s++ + P.s);
        int x = 3; x = x++; int y = x = x + 1;
        System.out.println(x + "," + y + "," + (x = y = 9) + "," + x);
        p.a[p.get(1) & 3] += i > 0 ? 10 : 20;
        p.f += p.a[3] > 0 ? p.get(3) : -1;
        double d = i > 0 ? 1 : 2.5;
        System.out.println(p.a[3] + "," + p.f + "," + d + "," + calls);
        boolean b = p.f > 100 ? false : p.get(2) == 0 && !(i == 2);
        System.out.println(b + "," + p.sum(p.a[0]++, p.f--, b ? i++ : --i) + "," + i);
        int k = 0; int acc = 0;
        while (k < 5) { acc += k % 2 == 0 ? k++ : ++k; }
        System.out.println(acc + "," + k + "," + (k > 4 ? (acc > 3 ? "big" : "mid") : "small"));
      } }|}

let differential (name, src) =
  case ("differential: " ^ name) (fun () ->
      let a = interp_output src "Main" in
      let b = vm_output src "Main" in
      let c = jit_output src "Main" in
      Alcotest.(check string) "interp = vm" a b;
      Alcotest.(check string) "interp = jit" a c)

(* Generated straight-line arithmetic programs for wider differential
   coverage: integer expressions over a few locals, printed at the end. *)
let gen_arith_program =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  let rec expr n =
    if n = 0 then
      oneof [ map string_of_int (int_range (-50) 50); var ]
    else
      let sub = expr (n - 1) in
      oneof
        [ sub;
          map2 (Printf.sprintf "(%s + %s)") sub sub;
          map2 (Printf.sprintf "(%s - %s)") sub sub;
          map2 (Printf.sprintf "(%s * %s)") sub sub;
          map2 (Printf.sprintf "(%s / (1 + Math.iabs(%s)))") sub sub;
          map2 (Printf.sprintf "(%s %% (1 + Math.iabs(%s)))") sub sub;
          map2 (Printf.sprintf "(%s << (%s & 7))") sub sub;
          map (Printf.sprintf "(- %s)") sub ]
  in
  let assign = map2 (Printf.sprintf "%s = %s;") var (expr 2) in
  let stmt =
    oneof
      [ map2 (Printf.sprintf "%s = %s;") var (expr 3);
        map2 (Printf.sprintf "%s += %s;") var (expr 2);
        map3 (Printf.sprintf "if (%s < %s) { %s }") (expr 2) (expr 2) assign;
        (* bounded loops: constant trip counts keep generation terminating *)
        map3
          (fun n body v ->
            Printf.sprintf "for (int k%s = 0; k%s < %d; k%s++) { %s }" v v n v
              body)
          (int_range 0 6) assign (map string_of_int (int_range 0 999));
        map2
          (fun n v ->
            Printf.sprintf
              "{ int w%s = 0; while (w%s < %d) { %s += w%s; w%s = w%s + 1; } }"
              v v n "a" v v v)
          (int_range 0 5)
          (map string_of_int (int_range 0 999));
        map2 (Printf.sprintf "%s = Main.twist(%s);") var (expr 2) ]
  in
  map
    (fun stmts ->
      Printf.sprintf
        {|class Main {
            static int twist(int x) { return x * 2 - (x >> 1) + 1; }
            public static void main() {
            int a = 1; int b = 2; int c = 3;
            %s
            System.out.println(a + "," + b + "," + c);
          } }|}
        (String.concat "\n" stmts))
    (list_size (int_range 1 12) stmt)

let arbitrary_arith = QCheck.make ~print:(fun s -> s) gen_arith_program

(* Generated programs whose values pass through branches: conditional
   and short-circuit operands inside array indices, call arguments,
   field, static and element updates, and increments used as values. *)
let gen_branchy_program =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  let rec expr n =
    if n = 0 then
      oneof
        [ map string_of_int (int_range (-20) 20); var;
          map (Printf.sprintf "arr[%s & 3]") var; return "p.f"; return "Main.s" ]
    else
      let sub = expr (n - 1) and c = cond (n - 1) in
      oneof
        [ sub;
          map2 (Printf.sprintf "(%s + %s)") sub sub;
          map2 (Printf.sprintf "(%s * %s)") sub sub;
          map3 (Printf.sprintf "(%s ? %s : %s)") c sub sub;
          map3 (Printf.sprintf "Main.mix(%s, %s ? 1 : %s)") sub c sub;
          map2 (Printf.sprintf "arr[(%s ? %s : 1) & 3]") c sub;
          map (Printf.sprintf "(%s++ + p.f--)") var;
          map (Printf.sprintf "(arr[%s & 3]++)") var;
          map2 (Printf.sprintf "(%s = %s)") var sub ]
  and cond n =
    let e = expr n in
    if n = 0 then map2 (Printf.sprintf "(%s < %s)") e e
    else
      let c = cond (n - 1) in
      oneof
        [ map2 (Printf.sprintf "(%s < %s)") e e;
          map2 (Printf.sprintf "(%s == %s)") e e;
          map2 (Printf.sprintf "(%s && %s)") c c;
          map2 (Printf.sprintf "(%s || %s)") c c;
          map (Printf.sprintf "!%s") c ]
  in
  let stmt =
    oneof
      [ map2 (Printf.sprintf "%s = %s;") var (expr 3);
        map3 (Printf.sprintf "%s += %s ? %s : 5;") var (cond 1) (expr 1);
        map2 (Printf.sprintf "arr[%s & 3] = %s;") (expr 1) (expr 2);
        map2 (Printf.sprintf "arr[%s & 3] += %s;") (expr 1) (expr 2);
        map3 (Printf.sprintf "p.f = %s ? %s : %s;") (cond 1) (expr 1) (expr 1);
        map (Printf.sprintf "Main.s += %s;") (expr 2);
        map3 (Printf.sprintf "if (%s) { a = %s; } else { b = %s; }") (cond 2)
          (expr 1) (expr 1);
        map2
          (fun c e -> Printf.sprintf "{ int k = 0; while (k < 3 && %s) { c += %s; k++; } }" c e)
          (cond 1) (expr 1) ]
  in
  map
    (fun stmts ->
      Printf.sprintf
        {|class P { public int f; }
          class Main {
            static int s = 7;
            static int mix(int x, int y) { return x * 3 - y; }
            public static void main() {
            int a = 1; int b = 2; int c = 3;
            int[] arr = new int[4]; P p = new P();
            %s
            System.out.println(a + "," + b + "," + c + "," + p.f + "," + Main.s
              + "," + arr[0] + "," + arr[1] + "," + arr[2] + "," + arr[3]);
          } }|}
        (String.concat "\n" stmts))
    (list_size (int_range 1 10) stmt)

let classfile_roundtrip src =
  let image = Mj_bytecode.Compile.compile (check_src src) in
  Hashtbl.iter
    (fun _ mc ->
      let decoded = Mj_bytecode.Classfile.decode_method (Mj_bytecode.Classfile.encode_method mc) in
      if decoded <> mc then Alcotest.fail "classfile round-trip mismatch")
    image.Mj_bytecode.Compile.im_methods;
  Hashtbl.iter
    (fun _ mc ->
      let decoded = Mj_bytecode.Classfile.decode_method (Mj_bytecode.Classfile.encode_method mc) in
      if decoded <> mc then Alcotest.fail "ctor round-trip mismatch")
    image.Mj_bytecode.Compile.im_ctors

(* ---- negative array sizes ------------------------------------------ *)

module Profile = Telemetry.Profile
module Lines = Telemetry.Lines

let engines = [ `Interp; `Vm; `Jit ]

let engine_name = function `Interp -> "interp" | `Vm -> "vm" | `Jit -> "jit"

(* [Main.main] on an engine with a profile and a line table attached
   from creation; the meter before and after, the error it raised, and
   the heap's allocation count before and after. *)
let run_failing engine src =
  let p = Profile.create () in
  let lt = Lines.create () in
  let checked = check_src ~file:"neg.mj" src in
  let machine, cycles, run =
    match engine with
    | `Interp ->
        let s = Mj_runtime.Interp.create ~profile:p ~lines:lt checked in
        ( Mj_runtime.Interp.machine s,
          (fun () -> Mj_runtime.Interp.cycles s),
          fun () -> Mj_runtime.Interp.run_main s "Main" )
    | `Vm ->
        let s = Mj_bytecode.Vm.create ~profile:p ~lines:lt checked in
        ( Mj_bytecode.Vm.machine s,
          (fun () -> Mj_bytecode.Vm.cycles s),
          fun () -> Mj_bytecode.Vm.run_main s "Main" )
    | `Jit ->
        let s = Mj_bytecode.Jit.create ~profile:p ~lines:lt checked in
        ( Mj_bytecode.Jit.machine s,
          (fun () -> Mj_bytecode.Jit.cycles s),
          fun () -> Mj_bytecode.Jit.run_main s "Main" )
  in
  let allocations () =
    let st = Mj_runtime.Heap.stats machine.Mj_runtime.Machine.heap in
    st.Mj_runtime.Heap.init_allocations + st.Mj_runtime.Heap.reactive_allocations
  in
  let before = cycles () and allocs_before = allocations () in
  let error =
    match run () with
    | () -> "no error"
    | exception Mj_runtime.Heap.Runtime_error msg -> msg
  in
  (before, cycles (), error, allocs_before, allocations (), p, lt)

let negative_size_srcs =
  [ ( "new int[n]",
      {|class Main { public static void main() {
          int n = -1000;
          int[] a = new int[n];
          System.out.println(a.length);
        } }|} );
    ( "new int[3][n]",
      {|class Main { public static void main() {
          int n = -1;
          int[][] a = new int[3][n];
          System.out.println(a.length);
        } }|} ) ]

let negative_array_size () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun engine ->
          let label = Printf.sprintf "%s on %s" name (engine_name engine) in
          let before, after, error, allocs_before, allocs_after, p, lt =
            run_failing engine src
          in
          Alcotest.(check string) (label ^ ": error") "negative array size" error;
          Alcotest.(check bool) (label ^ ": meter not decreased") true
            (after >= before);
          Alcotest.(check int) (label ^ ": nothing allocated") allocs_before
            allocs_after;
          Alcotest.(check int) (label ^ ": profile reconciles") after
            (Profile.total p);
          Alcotest.(check int) (label ^ ": lines reconcile") after
            (Lines.total lt);
          List.iter
            (fun (r : Profile.row) ->
              Alcotest.(check bool) (label ^ ": profile words") true
                (r.Profile.r_alloc_words >= 0))
            (Profile.rows p);
          List.iter
            (fun (e : Lines.entry) ->
              Alcotest.(check bool) (label ^ ": line words") true
                (e.Lines.e_alloc_words >= 0))
            (Lines.rows lt))
        engines)
    negative_size_srcs

(* ---- the load-time verifier ------------------------------------------ *)

module I = Mj_bytecode.Instr

let host_src =
  {|class Main {
      static int f(int x) { return x; }
      public static void main() { System.out.println(f(1)); }
    }|}

(* The host program's image with [cls.mname]'s code replaced. *)
let patched ?(cls = "Main") ?nlocals mname code =
  let image = Mj_bytecode.Compile.compile (check_src host_src) in
  let tbl = image.Mj_bytecode.Compile.im_methods in
  let mc = Hashtbl.find tbl (cls, mname) in
  Hashtbl.replace tbl (cls, mname)
    { mc with
      I.mc_code = code;
      I.mc_lines = [||];
      I.mc_nlocals = Option.value nlocals ~default:mc.I.mc_nlocals };
  image

let int k = I.Const (Mj_runtime.Value.Int k)

let double x = I.Const (Mj_runtime.Value.Double x)

(* Code [Main.f] may not have, the locals it is given, and what the
   diagnostic must say. *)
let rejected_codes =
  [ ( "underflow",
      [| int 1; I.Iop Mj.Ast.Add; I.Ret_val |],
      1,
      [ "verify: operand stack underflow at pc 1 in Main.f" ] );
    ( "depths disagree at a join",
      (* the fall-through reaches pc 6 with one entry, the branch with two;
         run, it would only ever take the fall-through *)
      [| I.Const (Mj_runtime.Value.Bool true); I.Jump_if_false 4; int 1;
         I.Jump 6; int 2; int 3; I.Ret_val |],
      1,
      [ "verify: stack depths"; "meet at pc 6 in Main.f" ] );
    ("falls off its code", [| int 1; I.Pop |], 1, [ "verify: Main.f falls off its code" ]);
    ("jump out of range", [| I.Jump 9 |], 1, [ "verify: jump target 9 out of range at pc 0" ]);
    ("local out of range", [| I.Load 5; I.Ret_val |], 1, [ "verify: local slot 5 out of range" ]);
    ( "double operand of an int operator",
      [| double 1.5; int 2; I.Iop Mj.Ast.Add; I.Ret_val |],
      1,
      [ "verify: int operand expected at pc 2 in Main.f, found double" ] );
    ( "int operand of a branch",
      [| int 1; I.Jump_if_false 2; int 3; I.Ret_val |],
      1,
      [ "verify: boolean operand expected at pc 1 in Main.f, found int" ] );
    ( "local read before it is written",
      (* slot 1 is written on the fall-through path only *)
      [| I.Const (Mj_runtime.Value.Bool true); I.Jump_if_false 4; int 7;
         I.Store 1; I.Load 1; I.Ret_val |],
      2,
      [ "verify: local slot 1 may be read before it is written in Main.f" ] );
    ( "more locals than a class file can declare",
      (* as a flipped byte of the count would read *)
      [| int 1; I.Ret_val |],
      1 lsl 24,
      [ "verify: Main.f declares 16777216 locals, more than 65535" ] ) ]

(* Rejected when the call first resolves, with the verifier's error; an
   [Invalid_argument] from an unchecked index would fail the test. *)
let load_time_rejection engine () =
  List.iter
    (fun (name, code, nlocals, substrings) ->
      let image = patched ~nlocals "f" code in
      let run () =
        match engine with
        | `Vm -> Mj_bytecode.Vm.run_main (Mj_bytecode.Vm.of_image image) "Main"
        | `Jit -> Mj_bytecode.Jit.run_main (Mj_bytecode.Jit.of_image image) "Main"
      in
      match run () with
      | () -> Alcotest.failf "%s: accepted" name
      | exception Mj_runtime.Heap.Runtime_error msg ->
          List.iter
            (fun substring ->
              if not (contains ~substring msg) then
                Alcotest.failf "%s: %S does not mention %S" name msg substring)
            substrings)
    rejected_codes

(* A call with one argument too few fails inside the callee's bracket:
   the profile shows the callee entered, on the VM and the JIT alike. *)
let arity_in_callee_bracket () =
  let code = [| I.Invoke_static ("Main", "f", 0); I.Pop; I.Ret |] in
  List.iter
    (fun engine ->
      let p = Profile.create () in
      let image = patched "main" code in
      let run () =
        match engine with
        | `Vm ->
            Mj_bytecode.Vm.run_main
              (Mj_bytecode.Vm.of_image ~profile:p image)
              "Main"
        | `Jit ->
            Mj_bytecode.Jit.run_main
              (Mj_bytecode.Jit.of_image ~profile:p image)
              "Main"
      in
      expect_runtime_error ~substring:"arity mismatch calling Main.f" run;
      let calls label =
        List.fold_left
          (fun n (r : Profile.row) ->
            if String.equal r.Profile.r_label label then r.Profile.r_calls
            else n)
          0 (Profile.rows p)
      in
      Alcotest.(check int)
        (Printf.sprintf "callee entered (%s)"
           (match engine with `Vm -> "vm" | `Jit -> "jit"))
        1 (calls "Main.f"))
    [ `Vm; `Jit ]

(* Threads whose yields sit inside nested calls, with a partial sum
   waiting on each caller's operand stack across them: every seed must
   compute what the unscheduled run computes, so no frame is shared
   between fibers. *)
let nested_yield_src =
  {|class Worker extends Thread {
      private int scale;
      private int result;
      Worker(int s) { scale = s; }
      int leaf(int k) { Thread.yield(); return k * scale; }
      int mid(int k) { int a = leaf(k); Thread.yield(); return a + leaf(k + 1); }
      public void run() {
        int acc = 0;
        for (int k = 0; k < 4; k++) { acc = acc * 3 + mid(k); }
        result = acc;
      }
      int get() { return result; }
    }
    class Main {
      public static void main() {
        Worker a = new Worker(1);
        Worker b = new Worker(7);
        Worker c = new Worker(100);
        a.start(); b.start(); c.start();
        a.join(); b.join(); c.join();
        System.out.println(a.get() + "," + b.get() + "," + c.get());
      }
    }|}

let nested_yields_fiber_safe () =
  let expected = interp_output nested_yield_src "Main" in
  let branched = ref false in
  for seed = 0 to 5 do
    let vm = Mj_bytecode.Vm.create (check_src nested_yield_src) in
    ignore
      (Mj_runtime.Threads.run ~policy:(Mj_runtime.Threads.Seeded seed)
         (fun () -> Mj_bytecode.Vm.run_main vm "Main"));
    if Mj_runtime.Threads.last_run_branched () then branched := true;
    Alcotest.(check string)
      (Printf.sprintf "seed %d" seed)
      expected (Mj_bytecode.Vm.output vm)
  done;
  Alcotest.(check bool) "the scheduler interleaved the workers" true !branched

(* ---- the verifier against mutated code -------------------------------- *)

(* Methods of the differential corpus, mutated one edit at a time: an
   instruction inserted, deleted or swapped with its successor, a jump
   retargeted, a constant's type changed, a local slot renumbered. Each
   mutant runs on the VM and the JIT under a cycle budget and a heap
   limit; both must reject it with the same verifier message, or run it
   to the same output and the same error, and an engine that trips its
   budget must have printed a prefix of what the other printed. Any
   other exception fails the property. *)

let mutation_corpus =
  lazy
    (List.map
       (fun (name, src) ->
         (name, src, Mj_bytecode.Compile.compile (check_src src)))
       (corpus @ [ ("stack shapes", shapes_src) ]))

(* The methods and constructors of the classes [src] declares, in a fixed
   order. Library classes stay intact: the static initializer runs
   their code before a budget can be armed. *)
let bodies src image =
  let sorted tbl =
    Hashtbl.fold
      (fun ((cls, _) as k) mc acc ->
        if contains ~substring:("class " ^ cls ^ " ") src then (k, mc) :: acc
        else acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.map (fun ((c, m), mc) -> (`Method (c, m), mc)) (sorted image.Mj_bytecode.Compile.im_methods)
  @ List.map (fun ((c, k), mc) -> (`Ctor (c, k), mc)) (sorted image.Mj_bytecode.Compile.im_ctors)

let insertable a b : I.t array =
  [| int (a - 4); I.Const (Mj_runtime.Value.Double 0.5);
     I.Const (Mj_runtime.Value.Bool (a mod 2 = 0)); I.Const Mj_runtime.Value.Null;
     I.Load (a mod 6); I.Store (a mod 6); I.Pop; I.Dup; I.Dup_x1;
     I.Iop Mj.Ast.Add; I.Iop Mj.Ast.Lt; I.Dop Mj.Ast.Mul; I.I2d; I.D2i;
     I.Bnot; I.Jump b; I.Jump_if_false b; I.Ret; I.Ret_val; I.Yield_point;
     I.Array_len; I.Sconcat; I.Veq true |]

let retype : Mj_runtime.Value.t -> Mj_runtime.Value.t = function
  | Mj_runtime.Value.Int k -> Mj_runtime.Value.Double (float_of_int k)
  | Mj_runtime.Value.Double x -> Mj_runtime.Value.Bool (x > 0.)
  | Mj_runtime.Value.Bool b -> Mj_runtime.Value.Int (Bool.to_int b)
  | Mj_runtime.Value.Str _ -> Mj_runtime.Value.Int 1
  | Mj_runtime.Value.Null | Mj_runtime.Value.Ref _ -> Mj_runtime.Value.Str "s"

(* Targets after an edit at [p] that adds [delta] instructions there. *)
let shift p delta (i : I.t) =
  let move t = if t > p then t + delta else t in
  match i with
  | I.Jump t -> I.Jump (move t)
  | I.Jump_if_false t -> I.Jump_if_false (move t)
  | i -> i

(* The pcs of [code] holding instructions [pick] selects. *)
let where pick code =
  List.filter (fun pc -> pick code.(pc)) (List.init (Array.length code) Fun.id)

let mutate (kind, a, b) (mc : I.method_code) =
  let code = mc.I.mc_code in
  let n = Array.length code in
  let nth l = List.nth l (a mod List.length l) in
  let jumps = where (function I.Jump _ | I.Jump_if_false _ -> true | _ -> false) code in
  let consts = where (function I.Const _ -> true | _ -> false) code in
  let slots = where (function I.Load _ | I.Store _ -> true | _ -> false) code in
  let swap () =
    let c = Array.copy code in
    let p = a mod max 1 (n - 1) in
    if p + 1 < n then begin
      c.(p) <- code.(p + 1);
      c.(p + 1) <- code.(p)
    end;
    (Printf.sprintf "swap %d" p, c)
  in
  let what, code =
    match kind mod 6 with
    | 0 ->
        let p = a mod (n + 1) and ins = insertable a (b mod (n + 2)) in
        let i = ins.(b mod Array.length ins) in
        let c = Array.map (shift p 1) code in
        ( Format.asprintf "insert %a at %d" I.pp i p,
          Array.concat [ Array.sub c 0 p; [| i |]; Array.sub c p (n - p) ] )
    | 1 when n > 1 ->
        let p = a mod n in
        let c = Array.map (shift p (-1)) code in
        ( Printf.sprintf "delete %d" p,
          Array.append (Array.sub c 0 p) (Array.sub c (p + 1) (n - p - 1)) )
    | 3 when jumps <> [] ->
        let pc = nth jumps and t = b mod (n + 2) in
        let c = Array.copy code in
        c.(pc) <-
          (match code.(pc) with
          | I.Jump _ -> I.Jump t
          | _ -> I.Jump_if_false t);
        (Printf.sprintf "retarget %d to %d" pc t, c)
    | 4 when consts <> [] ->
        let pc = nth consts in
        let c = Array.copy code in
        c.(pc) <- (match code.(pc) with I.Const v -> I.Const (retype v) | i -> i);
        (Printf.sprintf "retype constant at %d" pc, c)
    | 5 when slots <> [] ->
        let pc = nth slots and k = b mod (mc.I.mc_nlocals + 1) in
        let c = Array.copy code in
        c.(pc) <- (match code.(pc) with I.Load _ -> I.Load k | _ -> I.Store k);
        (Printf.sprintf "slot %d at %d" k pc, c)
    | _ -> swap ()
  in
  (what, { mc with I.mc_code = code })

type outcome = Done of string | Failed of string * string | Tripped of string

let show = function
  | Done out -> Printf.sprintf "done %S" out
  | Failed (out, msg) -> Printf.sprintf "failed %S after %S" msg out
  | Tripped out -> Printf.sprintf "tripped after %S" out

(* [Main.main] on one engine, metered: the outcome and nothing else — an
   exception other than a runtime error or a budget trip escapes. *)
let run_metered engine image =
  let machine, output, run, budget =
    match engine with
    | `Vm ->
        let s = Mj_bytecode.Vm.of_image image in
        ( Mj_bytecode.Vm.machine s,
          (fun () -> Mj_bytecode.Vm.output s),
          (fun () -> Mj_bytecode.Vm.run_main s "Main"),
          1_000_000 )
    | `Jit ->
        let s = Mj_bytecode.Jit.of_image image in
        ( Mj_bytecode.Jit.machine s,
          (fun () -> Mj_bytecode.Jit.output s),
          (fun () -> Mj_bytecode.Jit.run_main s "Main"),
          100_000 )
  in
  let cost = machine.Mj_runtime.Machine.cost
  and heap = machine.Mj_runtime.Machine.heap in
  Mj_runtime.Cost.set_budget cost (Some (Mj_runtime.Cost.cycles cost + budget));
  let st = Mj_runtime.Heap.stats heap in
  Mj_runtime.Heap.set_limit_words heap
    (Some (st.Mj_runtime.Heap.init_words + st.Mj_runtime.Heap.reactive_words + 100_000));
  match run () with
  | () -> Done (output ())
  | exception Mj_runtime.Heap.Runtime_error msg -> Failed (output (), msg)
  | exception Mj_runtime.Cost.Budget_exceeded _ -> Tripped (output ())

let is_prefix a b = String.length a <= String.length b && String.sub b 0 (String.length a) = a

let agree vm jit =
  match (vm, jit) with
  | Done a, Done b -> a = b
  | Failed (a, m), Failed (b, n) -> a = b && m = n
  | Tripped a, Tripped b -> is_prefix a b || is_prefix b a
  | Tripped a, (Done b | Failed (b, _)) | (Done b | Failed (b, _)), Tripped a ->
      is_prefix a b
  | _ -> false

let mutation_gen =
  QCheck.Gen.(
    map
      (fun (prog, body, kind, a, b) -> (prog, body, (kind, a, b)))
      (tup5 (int_bound 1000) (int_bound 1000) (int_bound 5) (int_bound 1000)
         (int_bound 1000)))

let mutant (prog, body, edit) =
  let progs = Lazy.force mutation_corpus in
  let name, src, image = List.nth progs (prog mod List.length progs) in
  let all = bodies src image in
  let key, mc = List.nth all (body mod List.length all) in
  let what, mc' = mutate edit mc in
  let methods = Hashtbl.copy image.Mj_bytecode.Compile.im_methods
  and ctors = Hashtbl.copy image.Mj_bytecode.Compile.im_ctors in
  (match key with
  | `Method k -> Hashtbl.replace methods k mc'
  | `Ctor k -> Hashtbl.replace ctors k mc');
  ( Printf.sprintf "%s: %s.%s: %s" name mc.I.mc_class mc.I.mc_name what,
    { image with Mj_bytecode.Compile.im_methods = methods; im_ctors = ctors } )

let mutation_gate =
  qcase ~count:1500 "verifier: mutated methods run alike or fail alike"
    (QCheck.make
       ~print:(fun m -> fst (mutant m))
       mutation_gen)
    (fun m ->
      let what, image = mutant m in
      let vm = run_metered `Vm image and jit = run_metered `Jit image in
      agree vm jit
      || QCheck.Test.fail_reportf "%s\nvm:  %s\njit: %s" what (show vm) (show jit))

(* ---- damaged class files ----------------------------------------------- *)

let fir_image =
  lazy
    (let checked = check_src Workloads.Fir_mj.unrestricted_source in
     (checked, Mj_bytecode.Classfile.encode_image (Mj_bytecode.Compile.compile checked)))

(* FIR's image cut short or with one byte changed either decodes or fails
   with the decoder's own diagnostic, naming the offset; every method of
   an image that decodes then passes the load-time verifier or is
   rejected by it, with or without a receiver slot. *)
let damaged_image_gate =
  qcase ~count:1000 "classfile: truncated or flipped images fail with a diagnostic"
    (QCheck.make
       ~print:(fun (cut, at, x) -> Printf.sprintf "cut=%b at=%d xor=%d" cut at x)
       QCheck.Gen.(triple bool (int_bound 100_000) (int_range 1 255)))
    (fun (cut, at, x) ->
      let checked, blob = Lazy.force fir_image in
      let n = String.length blob in
      let damaged =
        if cut then String.sub blob 0 (at mod n)
        else
          String.mapi
            (fun i c -> if i = at mod n then Char.chr (Char.code c lxor x) else c)
            blob
      in
      match Mj_bytecode.Classfile.decode_image checked.Mj.Typecheck.symtab damaged with
      | image ->
          let verify mc =
            List.for_all
              (fun this ->
                match Mj_bytecode.Verify.verify ~this mc with
                | _ -> true
                | exception Mj_runtime.Heap.Runtime_error msg ->
                    contains ~substring:"verify: " msg
                    || QCheck.Test.fail_reportf "unverified rejection %S" msg)
              [ false; true ]
          in
          let im = image.Mj_bytecode.Compile.im_methods
          and ic = image.Mj_bytecode.Compile.im_ctors in
          verify image.Mj_bytecode.Compile.im_static_init
          && Hashtbl.fold (fun _ mc ok -> ok && verify mc) im true
          && Hashtbl.fold (fun _ mc ok -> ok && verify mc) ic true
      | exception Failure msg ->
          contains ~substring:"classfile: " msg
          && contains ~substring:" at offset " msg
          || QCheck.Test.fail_reportf "undiagnosed failure %S" msg)

let suite =
  List.map differential corpus
  @ [ case "differential: saturating double-to-int narrowing" (fun () ->
        Alcotest.(check string) "interp" saturation_expected
          (interp_output saturation_src "Main");
        Alcotest.(check string) "vm" saturation_expected
          (vm_output saturation_src "Main");
        Alcotest.(check string) "jit" saturation_expected
          (jit_output saturation_src "Main"));
      differential ("stack shapes", shapes_src);
      case "optimized images run alike on both bytecode engines" (fun () ->
          List.iter
            (fun (name, src) ->
              let checked = check_src src in
              let image =
                Mj_bytecode.Optimize.image (Mj_bytecode.Compile.compile checked)
              in
              let vm = Mj_bytecode.Vm.of_image image in
              Mj_bytecode.Vm.run_main vm "Main";
              let jit = Mj_bytecode.Jit.of_image image in
              Mj_bytecode.Jit.run_main jit "Main";
              Alcotest.(check string) name (interp_output src "Main")
                (Mj_bytecode.Jit.output jit);
              Alcotest.(check string) name (Mj_bytecode.Vm.output vm)
                (Mj_bytecode.Jit.output jit))
            (("stack shapes", shapes_src) :: corpus));
      qcase ~count:150 "differential: generated branchy expressions"
        (QCheck.make ~print:Fun.id gen_branchy_program)
        (fun src ->
          let a = interp_output src "Main" in
          a = vm_output src "Main" && a = jit_output src "Main");
      qcase ~count:150 "differential: generated arithmetic" arbitrary_arith
        (fun src ->
          let a = interp_output src "Main" in
          a = vm_output src "Main" && a = jit_output src "Main");
      case "vm cycles deterministic and jit-modeled cheaper" (fun () ->
          let src =
            "class Main { public static void main() { int s = 0; for (int i \
             = 0; i < 500; i++) s += i * i; System.out.println(s); } }"
          in
          let vm1 = Mj_bytecode.Vm.create (check_src src) in
          Mj_bytecode.Vm.run_main vm1 "Main";
          let vm2 = Mj_bytecode.Vm.create (check_src src) in
          Mj_bytecode.Vm.run_main vm2 "Main";
          Alcotest.(check int) "vm deterministic" (Mj_bytecode.Vm.cycles vm1)
            (Mj_bytecode.Vm.cycles vm2);
          let jit = Mj_bytecode.Jit.create (check_src src) in
          Mj_bytecode.Jit.run_main jit "Main";
          Alcotest.(check bool) "jit tariff is cheaper" true
            (Mj_bytecode.Jit.cycles jit * 2 < Mj_bytecode.Vm.cycles vm1));
      case "classfile round-trips every method (jpeg)" (fun () ->
          classfile_roundtrip
            (Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 ()));
      case "classfile round-trips every method (fig8)" (fun () ->
          classfile_roundtrip Workloads.Fig8_mj.threaded_source);
      case "program size positive and stable" (fun () ->
          let src = Workloads.Traffic_mj.source in
          let image = Mj_bytecode.Compile.compile (check_src src) in
          let s1 = Mj_bytecode.Classfile.program_size image ~classes:[ "TrafficLight" ] in
          let s2 = Mj_bytecode.Classfile.program_size image ~classes:[ "TrafficLight" ] in
          Alcotest.(check int) "stable" s1 s2;
          Alcotest.(check bool) "positive" true (s1 > 100));
      case "encode_image includes everything" (fun () ->
          let image = Mj_bytecode.Compile.compile (check_src Workloads.Traffic_mj.source) in
          let blob = Mj_bytecode.Classfile.encode_image image in
          Alcotest.(check bool) "nonempty" true (String.length blob > 500));
      case "vm reuses a precompiled image" (fun () ->
          let src = "class Main { public static void main() { System.out.println(11); } }" in
          let image = Mj_bytecode.Compile.compile (check_src src) in
          let s1 = Mj_bytecode.Vm.of_image image in
          let s2 = Mj_bytecode.Vm.of_image image in
          Mj_bytecode.Vm.run_main s1 "Main";
          Mj_bytecode.Vm.run_main s2 "Main";
          Alcotest.(check string) "same" (Mj_bytecode.Vm.output s1)
            (Mj_bytecode.Vm.output s2));
      case "differential: a negative array size fails before any charge"
        negative_array_size;
      case "vm load rejects bad stack shapes with its diagnostic"
        (load_time_rejection `Vm);
      case "jit load rejects the same code with the same diagnostic"
        (load_time_rejection `Jit);
      mutation_gate;
      damaged_image_gate;
      case "arity mismatch fails inside the callee's bracket (vm, jit)"
        arity_in_callee_bracket;
      case "vm frames stay per call under threads (nested yields)"
        nested_yields_fiber_safe;
      case "runtime errors agree across engines" (fun () ->
          let src =
            "class Main { public static void main() { int[] a = new int[1]; \
             a[3] = 1; } }"
          in
          let expect runner =
            expect_runtime_error ~substring:"out of bounds" (fun () ->
                runner src "Main")
          in
          expect interp_output;
          expect vm_output;
          expect jit_output);
      case "image decodes from bytes and runs" (fun () ->
          let src =
            {|class Main {
                static int triple(int x) { return 3 * x; }
                public static void main() { System.out.println(triple(14)); }
              }|}
          in
          let checked = check_src src in
          let image = Mj_bytecode.Compile.compile checked in
          let blob = Mj_bytecode.Classfile.encode_image image in
          let decoded =
            Mj_bytecode.Classfile.decode_image checked.Mj.Typecheck.symtab blob
          in
          let session = Mj_bytecode.Vm.of_image decoded in
          Mj_bytecode.Vm.run_main session "Main";
          Alcotest.(check string) "42" "42\n" (Mj_bytecode.Vm.output session));
      case "decoded jpeg image reproduces outputs" (fun () ->
          let src = Workloads.Jpeg_mj.restricted_source ~width:16 ~height:8 () in
          let checked = check_src src in
          let image = Mj_bytecode.Compile.compile checked in
          let decoded =
            Mj_bytecode.Classfile.decode_image checked.Mj.Typecheck.symtab
              (Mj_bytecode.Classfile.encode_image image)
          in
          let data = Workloads.Images.synthetic ~width:16 ~height:8 in
          let react img =
            let session = Mj_bytecode.Vm.of_image img in
            let m = Mj_bytecode.Vm.machine session in
            let obj = Mj_bytecode.Vm.new_instance session "JpegCodec" [] in
            Mj_runtime.Machine.set_input m obj 0
              (Some (Mj_runtime.Machine.make_int_array m data));
            ignore (Mj_bytecode.Vm.call session obj "run" []);
            Option.map (Mj_runtime.Machine.int_array m)
              (Mj_runtime.Machine.output_port m obj 0)
          in
          Alcotest.(check bool) "same" true (react image = react decoded));
      case "jit compiles methods lazily" (fun () ->
          let src =
            {|class Main {
                static void used() { System.out.println("u"); }
                static void unused() { System.out.println("x"); }
                public static void main() { used(); }
              }|}
          in
          let session = Mj_bytecode.Jit.create (check_src src) in
          Mj_bytecode.Jit.run_main session "Main";
          (* main + used, but never unused *)
          Alcotest.(check bool) "compiled few" true
            (Mj_bytecode.Jit.compiled_methods session <= 3)) ]
