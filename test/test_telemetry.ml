open Util
module R = Telemetry.Registry
module J = Telemetry.Json
module P = Telemetry.Profile
module D = Asr.Domain
module G = Asr.Graph
module B = Asr.Block

(* ------------------------------------------------------------------ *)
(* Spans: nesting, ordering, lifecycle                                  *)
(* ------------------------------------------------------------------ *)

let span_tests =
  [ case "span nesting records depth and parent" (fun () ->
        let reg = R.create () in
        R.enter reg "outer";
        R.enter reg "inner";
        R.exit reg ();
        R.enter reg "sibling";
        R.exit reg ();
        R.exit reg ();
        match R.spans reg with
        | [ outer; inner; sibling ] ->
            Alcotest.(check string) "outer name" "outer" outer.R.sp_name;
            Alcotest.(check int) "outer depth" 0 outer.R.sp_depth;
            Alcotest.(check int) "outer parent" (-1) outer.R.sp_parent;
            Alcotest.(check int) "inner depth" 1 inner.R.sp_depth;
            Alcotest.(check int)
              "inner parent is outer" outer.R.sp_id inner.R.sp_parent;
            Alcotest.(check int)
              "sibling parent is outer" outer.R.sp_id sibling.R.sp_parent;
            Alcotest.(check bool) "all closed" true
              (outer.R.sp_closed && inner.R.sp_closed && sibling.R.sp_closed)
        | spans ->
            Alcotest.failf "expected 3 spans, got %d" (List.length spans));
    case "spans listed in start order with monotone timestamps" (fun () ->
        let reg = R.create () in
        R.enter reg "a";
        R.enter reg "b";
        R.exit reg ();
        R.exit reg ();
        R.enter reg "c";
        R.exit reg ();
        let names = List.map (fun s -> s.R.sp_name) (R.spans reg) in
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names;
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.R.sp_name ^ " stop after start")
              true
              (s.R.sp_stop >= s.R.sp_start))
          (R.spans reg));
    case "with_span closes on exception" (fun () ->
        let reg = R.create () in
        (try R.with_span reg "doomed" (fun () -> failwith "boom")
         with Failure _ -> ());
        match R.spans reg with
        | [ s ] -> Alcotest.(check bool) "closed" true s.R.sp_closed
        | _ -> Alcotest.fail "one span expected");
    case "unbalanced exit is ignored" (fun () ->
        let reg = R.create () in
        R.exit reg ();
        R.enter reg "a";
        R.exit reg ();
        R.exit reg ();
        Alcotest.(check int) "one span" 1 (List.length (R.spans reg)));
    case "max_spans caps retention but keeps pairing" (fun () ->
        let reg = R.create ~max_spans:2 () in
        for _ = 1 to 5 do
          R.enter reg "s";
          R.exit reg ()
        done;
        Alcotest.(check int) "retained" 2 (List.length (R.spans reg));
        Alcotest.(check int) "dropped" 3 (R.dropped_spans reg);
        List.iter
          (fun s -> Alcotest.(check bool) "closed" true s.R.sp_closed)
          (R.spans reg)) ]

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                              *)
(* ------------------------------------------------------------------ *)

let counter_tests =
  [ case "counter saturates at max_int" (fun () ->
        let reg = R.create () in
        let c = R.counter reg "big" in
        R.add c (max_int - 10);
        R.add c 100;
        Alcotest.(check int) "saturated" max_int c.R.c_value;
        R.add c 1;
        Alcotest.(check int) "stays saturated" max_int c.R.c_value);
    case "counter ignores negative increments" (fun () ->
        let reg = R.create () in
        let c = R.counter reg "n" in
        R.add c 7;
        R.add c (-3);
        Alcotest.(check int) "monotone" 7 c.R.c_value);
    case "counter handles are find-or-create" (fun () ->
        let reg = R.create () in
        R.add (R.counter reg "x") 1;
        R.add (R.counter reg "x") 2;
        Alcotest.(check int) "one counter" 1 (List.length (R.counters reg));
        Alcotest.(check int) "summed" 3 (R.counter reg "x").R.c_value);
    case "histogram buckets powers of two" (fun () ->
        let reg = R.create () in
        let h = R.histogram reg "h" in
        List.iter (R.observe h) [ 0; 1; 2; 3; 4; 1000 ];
        Alcotest.(check int) "count" 6 h.R.h_count;
        Alcotest.(check int) "sum" 1010 h.R.h_sum;
        Alcotest.(check int) "min" 0 h.R.h_min;
        Alcotest.(check int) "max" 1000 h.R.h_max;
        (* 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3 *)
        Alcotest.(check int) "bucket 0" 1 h.R.h_buckets.(0);
        Alcotest.(check int) "bucket 1" 1 h.R.h_buckets.(1);
        Alcotest.(check int) "bucket 2" 2 h.R.h_buckets.(2);
        Alcotest.(check int) "bucket 3" 1 h.R.h_buckets.(3);
        Alcotest.(check (float 1e-9)) "mean" (1010.0 /. 6.0) (R.mean h)) ]

(* ------------------------------------------------------------------ *)
(* JSON: parser round-trips its own printer                             *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [ case "round-trip of a nested value" (fun () ->
        let v =
          J.Obj
            [ ("s", J.Str "he said \"hi\"\n\ttab");
              ("n", J.Int (-42));
              ("f", J.Float 1.5);
              ("b", J.Bool true);
              ("z", J.Null);
              ("l", J.List [ J.Int 1; J.Str "two"; J.List [] ]) ]
        in
        Alcotest.(check bool)
          "parse (to_string v) = v" true
          (J.parse (J.to_string v) = v));
    case "parses whitespace and unicode escapes" (fun () ->
        match J.parse "  { \"a\" : [ 1 , \"\\u0041\" ] }  " with
        | J.Obj [ ("a", J.List [ J.Int 1; J.Str "A" ]) ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    case "rejects malformed input" (fun () ->
        List.iter
          (fun src ->
            match J.parse src with
            | exception J.Parse_error _ -> ()
            | _ -> Alcotest.failf "accepted %S" src)
          [ "{"; "[1,]"; "\"unterminated"; "tru"; "1 2"; "" ]);
    case "member lookup" (fun () ->
        let v = J.parse "{\"a\": 1, \"b\": null}" in
        Alcotest.(check bool) "a" true (J.member "a" v = Some (J.Int 1));
        Alcotest.(check bool) "b" true (J.member "b" v = Some J.Null);
        Alcotest.(check bool) "missing" true (J.member "c" v = None)) ]

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                  *)
(* ------------------------------------------------------------------ *)

let chrome_tests =
  [ case "chrome trace parses back and is well-formed" (fun () ->
        let reg = R.create () in
        R.with_span reg ~cat:"outer" "parent" (fun () ->
            R.with_span reg "child" (fun () -> ());
            R.count reg "events" 3);
        let parsed = J.parse (Telemetry.Export.chrome_trace reg) in
        let events =
          match J.member "traceEvents" parsed with
          | Some (J.List evs) -> evs
          | _ -> Alcotest.fail "traceEvents missing"
        in
        Alcotest.(check int) "two events" 2 (List.length events);
        List.iter
          (fun ev ->
            List.iter
              (fun k ->
                if J.member k ev = None then Alcotest.failf "missing %s" k)
              [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
            Alcotest.(check bool)
              "complete event" true
              (J.member "ph" ev = Some (J.Str "X")))
          events;
        (* the child must nest inside the parent on the timeline *)
        let field ev k =
          match J.member k ev with
          | Some (J.Float f) -> f
          | Some (J.Int n) -> float_of_int n
          | _ -> Alcotest.failf "no %s" k
        in
        let by_name name =
          List.find (fun ev -> J.member "name" ev = Some (J.Str name)) events
        in
        let p = by_name "parent" and c = by_name "child" in
        Alcotest.(check bool) "child starts after parent" true
          (field c "ts" >= field p "ts");
        Alcotest.(check bool) "child ends before parent" true
          (field c "ts" +. field c "dur" <= field p "ts" +. field p "dur"));
    case "open spans are excluded from the trace" (fun () ->
        let reg = R.create () in
        R.enter reg "never-closed";
        let parsed = J.parse (Telemetry.Export.chrome_trace reg) in
        match J.member "traceEvents" parsed with
        | Some (J.List []) -> ()
        | _ -> Alcotest.fail "expected no events") ]

(* ------------------------------------------------------------------ *)
(* Profile: exact attribution, recursion, reconciliation                *)
(* ------------------------------------------------------------------ *)

let profile_tests =
  [ case "self cycles sum to total" (fun () ->
        let p = P.create () in
        P.charge p 5;
        P.enter p "A.f";
        P.charge p 10;
        P.enter p "A.g";
        P.charge p 20;
        P.leave p;
        P.charge p 1;
        P.leave p;
        Alcotest.(check int) "total" 36 (P.total p);
        let sum =
          List.fold_left (fun acc r -> acc + r.P.r_self) 0 (P.rows p)
        in
        Alcotest.(check int) "self sum" 36 sum;
        Alcotest.(check int) "depth balanced" 0 (P.depth p);
        let f = List.find (fun r -> r.P.r_label = "A.f") (P.rows p) in
        Alcotest.(check int) "f self" 11 f.P.r_self;
        Alcotest.(check int) "f cum includes g" 31 f.P.r_cum);
    case "recursion does not double-count cumulative" (fun () ->
        let p = P.create () in
        P.enter p "A.rec";
        P.charge p 10;
        P.enter p "A.rec";
        P.charge p 10;
        P.leave p;
        P.leave p;
        let r = List.find (fun r -> r.P.r_label = "A.rec") (P.rows p) in
        Alcotest.(check int) "calls" 2 r.P.r_calls;
        Alcotest.(check int) "self" 20 r.P.r_self;
        Alcotest.(check int) "cum counted once" 20 r.P.r_cum);
    case "profile reconciles with Cost.cycles on FIR (all engines)" (fun () ->
        let outcome =
          Javatime.Engine.refine_source ~file:"fir.mj"
            Workloads.Fir_mj.unrestricted_source
        in
        Alcotest.(check bool) "refined to compliance" true outcome.compliant;
        let src = Mj.Pretty.program_to_string outcome.Javatime.Engine.final in
        let checked = check_src ~file:"fir-refined.mj" src in
        List.iter
          (fun (name, engine) ->
            let profile = P.create () in
            let elab =
              Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
                ~bounded_memory:false
                ~profile
                checked ~cls:Workloads.Fir_mj.class_name
            in
            for i = 1 to 12 do
              ignore (Javatime.Elaborate.react elab [| D.int (i * 7) |])
            done;
            Alcotest.(check int)
              (name ^ " profile total = Cost.cycles")
              (Javatime.Elaborate.total_cycles elab)
              (P.total profile);
            Alcotest.(check bool)
              (name ^ " attributes the work to run")
              true
              (List.exists
                 (fun r -> r.P.r_label = "FirFilter.run" && r.P.r_self > 0)
                 (P.rows profile)))
          [ ("interp", Javatime.Elaborate.Engine_interp);
            ("vm", Javatime.Elaborate.Engine_vm);
            ("jit", Javatime.Elaborate.Engine_jit) ]) ]

(* ------------------------------------------------------------------ *)
(* VCD export                                                           *)
(* ------------------------------------------------------------------ *)

(* The accumulator from test_asr: x -> (+) with a unit delay -> sum. *)
let accumulator () =
  let g = G.create "acc" in
  let input = G.add_input g "x" in
  let adder = G.add_block g B.add in
  let fork = G.add_block g (B.fork 2) in
  let delay = G.add_delay g ~init:(D.int 0) in
  let output = G.add_output g "sum" in
  G.connect g ~src:(G.out_port input 0) ~dst:(G.in_port adder 0);
  G.connect g ~src:(G.out_port delay 0) ~dst:(G.in_port adder 1);
  G.connect g ~src:(G.out_port adder 0) ~dst:(G.in_port fork 0);
  G.connect g ~src:(G.out_port fork 0) ~dst:(G.in_port output 0);
  G.connect g ~src:(G.out_port fork 1) ~dst:(G.in_port delay 0);
  g

let vcd_tests =
  [ case "vcd golden for the accumulator" (fun () ->
        let sim = Asr.Simulate.create (accumulator ()) in
        let trace =
          Asr.Simulate.run sim
            [ [ ("x", D.int 3) ]; [ ("x", D.int 1) ]; [ ("x", D.int 4) ] ]
        in
        let expected =
          "$timescale 1 us $end\n\
           $scope module asr $end\n\
           $var wire 32 ! in:x $end\n\
           $var wire 32 \" out:sum $end\n\
           $upscope $end\n\
           $enddefinitions $end\n\
           #0\n\
           $dumpvars\n\
           b11 !\n\
           b11 \"\n\
           $end\n\
           #1\n\
           b1 !\n\
           b100 \"\n\
           #2\n\
           b100 !\n\
           b1000 \"\n\
           #3\n"
        in
        Alcotest.(check string) "golden" expected (Asr.Waves.to_vcd trace));
    case "vcd kinds: bool wires, reals, negative ints, bottom" (fun () ->
        let vcd =
          Asr.Waves.signals_to_vcd
            [ ("flag", [ D.bool true; D.Bottom; D.bool false ]);
              ("level", [ D.real 0.5; D.real 1.25; D.real 1.25 ]);
              ("neg", [ D.int (-1); D.int (-1); D.int 2 ]) ]
        in
        Alcotest.(check bool) "1-bit wire" true
          (contains ~substring:"$var wire 1 ! flag $end" vcd);
        Alcotest.(check bool) "real var" true
          (contains ~substring:"$var real 64 \" level $end" vcd);
        Alcotest.(check bool) "bool bottom is x" true
          (contains ~substring:"x!" vcd);
        Alcotest.(check bool) "two's complement -1" true
          (contains
             ~substring:"b11111111111111111111111111111111 #" vcd);
        Alcotest.(check bool) "real value" true
          (contains ~substring:"r1.25 \"" vcd);
        (* a real-valued signal with a ⊥ instant has no VCD real
           encoding for absence; it degrades to a string variable *)
        let mixed =
          Asr.Waves.signals_to_vcd [ ("m", [ D.real 0.5; D.Bottom ]) ]
        in
        Alcotest.(check bool) "bottom real becomes string var" true
          (contains ~substring:"$var string 1 ! m $end" mixed);
        Alcotest.(check bool) "bottom renders as sbottom" true
          (contains ~substring:"sbottom !" mixed));
    case "vcd only emits changed values" (fun () ->
        let vcd =
          Asr.Waves.signals_to_vcd [ ("k", [ D.int 5; D.int 5; D.int 5 ]) ]
        in
        (* initial dump plus no further emissions for a constant signal *)
        let occurrences =
          List.length
            (String.split_on_char '\n' vcd
            |> List.filter (fun l -> l = "b101 !"))
        in
        Alcotest.(check int) "emitted once" 1 occurrences) ]

(* ------------------------------------------------------------------ *)
(* Instrumented subsystems: simulator, refinement engine, dedup         *)
(* ------------------------------------------------------------------ *)

let subsystem_tests =
  [ case "simulate emits instant spans with fixpoint stats" (fun () ->
        let reg = R.create () in
        let sim = Asr.Simulate.create ~telemetry:reg (accumulator ()) in
        ignore (Asr.Simulate.run sim [ [ ("x", D.int 3) ]; [ ("x", D.int 1) ] ]);
        let instants =
          List.filter (fun s -> s.R.sp_name = "instant") (R.spans reg)
        in
        Alcotest.(check int) "two instant spans" 2 (List.length instants);
        List.iter
          (fun s ->
            Alcotest.(check string) "cat" "asr" s.R.sp_cat;
            List.iter
              (fun k ->
                if not (List.mem_assoc k s.R.sp_args) then
                  Alcotest.failf "missing span arg %s" k)
              [ "instant"; "iterations"; "block_evaluations"; "net_churn" ])
          instants;
        Alcotest.(check bool) "instants counter" true
          (List.exists
             (fun c -> c.R.c_name = "asr.instants" && c.R.c_value = 2)
             (R.counters reg));
        Alcotest.(check bool) "per-block eval counters" true
          (List.exists
             (fun c ->
               String.length c.R.c_name > 10
               && String.sub c.R.c_name 0 10 = "asr.block."
               && c.R.c_value > 0)
             (R.counters reg));
        Alcotest.(check bool) "fixpoint iteration histogram" true
          (List.exists
             (fun h -> h.R.h_name = "asr.fixpoint_iterations" && h.R.h_count = 2)
             (R.histograms reg)));
    case "refine emits iteration, check and apply spans" (fun () ->
        let reg = R.create () in
        let outcome =
          Javatime.Engine.refine_source ~file:"fir.mj" ~telemetry:reg
            Workloads.Fir_mj.unrestricted_source
        in
        Alcotest.(check bool) "compliant" true outcome.compliant;
        let spans = R.spans reg in
        let named n = List.filter (fun s -> s.R.sp_name = n) spans in
        let iterations = named "iteration" in
        Alcotest.(check int)
          "iteration spans match the trace"
          (List.length outcome.Javatime.Engine.steps + 1)
          (List.length iterations);
        Alcotest.(check bool) "check spans nested under iterations" true
          (List.exists
             (fun s ->
               s.R.sp_cat = "rule"
               && List.exists (fun i -> i.R.sp_id = s.R.sp_parent) iterations)
             spans);
        Alcotest.(check bool) "apply spans carry site counts" true
          (List.exists
             (fun s ->
               s.R.sp_cat = "transform"
               && List.exists
                    (fun (k, v) ->
                      k = "sites"
                      && match v with R.Int n -> n > 0 | _ -> false)
                    s.R.sp_args)
             spans);
        Alcotest.(check bool) "iterations counter" true
          (List.exists
             (fun c ->
               c.R.c_name = "refine.iterations"
               && c.R.c_value = List.length iterations)
             (R.counters reg)));
    case "dedup preserves first-occurrence order" (fun () ->
        Alcotest.(check (list string))
          "order kept"
          [ "b"; "a"; "c" ]
          (Javatime.Engine.dedup [ "b"; "a"; "b"; "c"; "a"; "b" ]);
        Alcotest.(check (list string)) "empty" [] (Javatime.Engine.dedup []));
    case "dedup is linear in practice (large input)" (fun () ->
        let ids = List.init 20_000 (fun i -> string_of_int (i mod 500)) in
        Alcotest.(check int)
          "500 distinct survive" 500
          (List.length (Javatime.Engine.dedup ids))) ]

let suite =
  span_tests @ counter_tests @ json_tests @ chrome_tests @ profile_tests
  @ vcd_tests @ subsystem_tests
