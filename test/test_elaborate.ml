open Util
module E = Javatime.Elaborate

let echo_src =
  {|class Echo extends ASR {
      Echo() { declarePorts(2, 2); }
      public void run() {
        writePort(0, readPort(0) + readPort(1));
        if (portPresent(0)) writePort(1, 1);
      }
    }|}

let counter_src =
  {|class Counter extends ASR {
      private int total;
      Counter() { declarePorts(1, 1); total = 0; }
      public void run() { total = total + readPort(0); writePort(0, total); }
    }|}

let pure_src =
  {|class Doubler extends ASR {
      Doubler() { declarePorts(1, 1); }
      public void run() { writePort(0, readPort(0) * 2); }
    }|}

(* Int64 holds the exact sum of two 63-bit ints; clamp it to the int
   range for the saturating watchdog deadline. *)
let exact_deadline before budget =
  let s = Int64.add (Int64.of_int before) (Int64.of_int budget) in
  if Int64.compare s (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare s (Int64.of_int min_int) < 0 then min_int
  else Int64.to_int s

(* The whole int range, with its edges drawn often. *)
let any_int =
  QCheck.(
    oneof
      [ int;
        oneofl [ max_int; min_int; 0; 1; -1; max_int - 1; min_int + 1 ];
        map (fun k -> max_int - k) small_nat;
        map (fun k -> min_int + k) small_nat ])

let suite =
  [ case "ports reported from constructor" (fun () ->
        let elab = E.elaborate (check_src echo_src) ~cls:"Echo" in
        Alcotest.(check (pair int int)) "2x2" (2, 2) (E.ports elab));
    case "react marshals ints both ways" (fun () ->
        let elab = E.elaborate (check_src echo_src) ~cls:"Echo" in
        match E.react elab [| Asr.Domain.int 3; Asr.Domain.int 4 |] with
        | [| a; b |] ->
            Alcotest.(check (option int)) "sum" (Some 7) (Asr.Domain.to_int a);
            Alcotest.(check (option int)) "flag" (Some 1) (Asr.Domain.to_int b)
        | _ -> Alcotest.fail "two outputs expected");
    case "absent input reads as zero and portPresent false" (fun () ->
        let elab = E.elaborate (check_src echo_src) ~cls:"Echo" in
        match E.react elab [| Asr.Domain.Bottom; Asr.Domain.int 5 |] with
        | [| a; b |] ->
            Alcotest.(check (option int)) "sum" (Some 5) (Asr.Domain.to_int a);
            Alcotest.(check bool) "no flag" true (b = Asr.Domain.Bottom)
        | _ -> Alcotest.fail "two outputs expected");
    case "unwritten output port is bottom" (fun () ->
        let src =
          {|class Half extends ASR {
              Half() { declarePorts(1, 2); }
              public void run() { writePort(0, readPort(0)); }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Half" in
        match E.react elab [| Asr.Domain.int 9 |] with
        | [| _; b |] -> Alcotest.(check bool) "bottom" true (b = Asr.Domain.Bottom)
        | _ -> Alcotest.fail "two outputs expected");
    case "state persists across instants (Fig 7 protocol)" (fun () ->
        let elab = E.elaborate (check_src counter_src) ~cls:"Counter" in
        Alcotest.(check (list int)) "accumulates" [ 1; 3; 6 ]
          (List.map (react_int elab) [ 1; 2; 3 ]));
    case "ports are cleared between instants" (fun () ->
        let elab = E.elaborate (check_src echo_src) ~cls:"Echo" in
        ignore (E.react elab [| Asr.Domain.int 3; Asr.Domain.int 4 |]);
        match E.react elab [| Asr.Domain.Bottom; Asr.Domain.int 1 |] with
        | [| a; _ |] ->
            (* stale input from the previous instant must not leak *)
            Alcotest.(check (option int)) "1" (Some 1) (Asr.Domain.to_int a)
        | _ -> Alcotest.fail "two outputs expected");
    case "elaborate rejects non-compliant programs" (fun () ->
        let bad =
          {|class X extends ASR {
              public int leak;
              X() { declarePorts(1, 1); }
              public void run() { writePort(0, readPort(0)); }
            }|}
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.elaborate (check_src bad) ~cls:"X");
             false
           with Invalid_argument _ -> true));
    case "elaborate rejects non-ASR classes" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (E.elaborate ~enforce_policy:false
                  (check_src "class A { void f() {} }")
                  ~cls:"A");
             false
           with Invalid_argument _ -> true));
    case "bounded memory trips on a reactive allocator" (fun () ->
        let alloc_src =
          {|class X extends ASR {
              X() { declarePorts(1, 1); }
              public void run() {
                int[] t = new int[4];
                writePort(0, t.length + readPort(0));
              }
            }|}
        in
        let elab =
          E.elaborate ~enforce_policy:false ~bounded_memory:true
            (check_src alloc_src) ~cls:"X"
        in
        expect_runtime_error ~substring:"bounded-memory" (fun () ->
            E.react elab [| Asr.Domain.int 1 |]));
    case "same program runs under all three engines" (fun () ->
        let results =
          List.map
            (fun engine ->
              let elab =
                E.elaborate ~engine (check_src counter_src) ~cls:"Counter"
              in
              List.map (react_int elab) [ 5; 5; 5 ])
            [ E.Engine_interp; E.Engine_vm; E.Engine_jit ]
        in
        match results with
        | [ a; b; c ] ->
            Alcotest.(check (list int)) "interp=vm" a b;
            Alcotest.(check (list int)) "interp=jit" a c
        | _ -> Alcotest.fail "three engines");
    case "init and reaction cycles accounted" (fun () ->
        let elab = E.elaborate (check_src counter_src) ~cls:"Counter" in
        Alcotest.(check bool) "init > 0" true (E.init_cycles elab > 0);
        ignore (react_int elab 1);
        Alcotest.(check bool) "reaction > 0" true (E.last_reaction_cycles elab > 0);
        Alcotest.(check bool) "total >= init + reaction" true
          (E.total_cycles elab >= E.init_cycles elab + E.last_reaction_cycles elab));
    case "writes_state distinguishes pure from stateful" (fun () ->
        Alcotest.(check bool) "counter writes" true
          (E.writes_state (check_src counter_src) ~cls:"Counter");
        Alcotest.(check bool) "doubler pure" false
          (E.writes_state (check_src pure_src) ~cls:"Doubler"));
    case "to_block embeds a pure design into a graph" (fun () ->
        let elab = E.elaborate (check_src pure_src) ~cls:"Doubler" in
        let block = E.to_block elab in
        let g = Asr.Graph.create "mj_embed" in
        let i = Asr.Graph.add_input g "x" in
        let b = Asr.Graph.add_block g block in
        let gain = Asr.Graph.add_block g (Asr.Block.gain 10) in
        let o = Asr.Graph.add_output g "y" in
        Asr.Graph.connect g ~src:(Asr.Graph.out_port i 0) ~dst:(Asr.Graph.in_port b 0);
        Asr.Graph.connect g ~src:(Asr.Graph.out_port b 0) ~dst:(Asr.Graph.in_port gain 0);
        Asr.Graph.connect g ~src:(Asr.Graph.out_port gain 0) ~dst:(Asr.Graph.in_port o 0);
        let sim = Asr.Simulate.create g in
        match Asr.Simulate.step sim [ ("x", Asr.Domain.int 3) ] with
        | [ ("y", v) ] ->
            Alcotest.(check (option int)) "60" (Some 60) (Asr.Domain.to_int v)
        | _ -> Alcotest.fail "one output");
    case "to_block refuses stateful designs" (fun () ->
        let elab = E.elaborate (check_src counter_src) ~cls:"Counter" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.to_block elab);
             false
           with Invalid_argument _ -> true));
    case "to_block refuses a design that inherits a stateful run" (fun () ->
        let checked = check_src inherited_src in
        Alcotest.(check bool) "Derived writes Base's state" true
          (E.writes_state checked ~cls:"Derived");
        let elab = E.elaborate checked ~cls:"Derived" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.to_block elab);
             false
           with Invalid_argument _ -> true));
    case "int arrays cross ports" (fun () ->
        let src =
          {|class Rev extends ASR {
              private int[] out;
              Rev() { declarePorts(1, 1); out = new int[4]; }
              public void run() {
                int[] in = readPortArray(0);
                for (int i = 0; i < out.length; i++) out[i] = in[out.length - 1 - i];
                writePortArray(0, out);
              }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Rev" in
        match E.react elab [| Asr.Domain.int_array [| 1; 2; 3; 4 |] |] with
        | [| Asr.Domain.Def (Asr.Data.Int_array a) |] ->
            Alcotest.(check (array int)) "reversed" [| 4; 3; 2; 1 |] a
        | _ -> Alcotest.fail "array output expected");
    case "console output is observable" (fun () ->
        let src =
          {|class Chatty extends ASR {
              Chatty() { declarePorts(1, 1); }
              public void run() { System.out.println("tick " + readPort(0)); writePort(0, 0); }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Chatty" in
        ignore (react_int elab 7);
        Alcotest.(check string) "printed" "tick 7\n" (E.console elab));
    qcase ~count:1000 "watchdog deadline saturates over the full int range"
      QCheck.(pair any_int any_int)
      (fun (before, budget) ->
        E.deadline ~before ~budget = exact_deadline before budget);
    qcase ~count:500 "a budget of max_int or max_int - before never wraps"
      QCheck.(map (fun n -> n land max_int) any_int)
      (fun before ->
        E.deadline ~before ~budget:max_int = max_int
        && E.deadline ~before ~budget:(max_int - before) = max_int
        && E.deadline ~before ~budget:0 = before);
    case "react_bounded with a max_int budget does not trip" (fun () ->
        let elab = E.elaborate (check_src counter_src) ~cls:"Counter" in
        Alcotest.(check bool) "meter already running" true
          (Mj_runtime.Cost.cycles (E.machine elab).Mj_runtime.Machine.cost > 0);
        List.iter
          (fun x ->
            ignore
              (E.react_bounded elab ~budget_cycles:max_int
                 [| Asr.Domain.int x |]))
          [ 1; 2; 3 ];
        Alcotest.(check int) "state advanced" 10 (react_int elab 4)) ]
