(* The benchmark's own tests: the tail rule, self time on nested spans,
   metric-name validation, and a smoke pass of every workload, untraced
   and traced. *)

open Perfbench

let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got

let tail_rule () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  (match Stats.tail (samples 1000) with
  | Some t ->
      check_float "p99 of 1..1000" 99.0 t.Stats.t_pct;
      check_float "value" 990.0 t.Stats.t_value;
      Alcotest.(check int) "ten beyond" 10 t.Stats.t_beyond;
      Alcotest.(check int) "sample count" 1000 t.Stats.t_samples
  | None -> Alcotest.fail "no tail for 1000 samples");
  (match Stats.tail (samples 999) with
  | Some t -> check_float "999 samples fall back to p95" 95.0 t.Stats.t_pct
  | None -> Alcotest.fail "no tail for 999 samples");
  (match Stats.tail (samples 20010) with
  | Some t -> check_float "p99.9 once 10 samples lie beyond" 99.9 t.Stats.t_pct
  | None -> Alcotest.fail "no tail for 20010 samples");
  (match Stats.tail (samples 20) with
  | Some t ->
      check_float "20 samples: only the median qualifies" 50.0 t.Stats.t_pct;
      check_float "median value" 10.0 t.Stats.t_value
  | None -> Alcotest.fail "no tail for 20 samples");
  Alcotest.(check bool) "19 samples have no tail" true (Stats.tail (samples 19) = None);
  check_float "median, even count" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let span ~id ?(parent = -1) a b =
  { Spans.id; name = Printf.sprintf "s%d" id; op = 0; parent;
    start_ns = Int64.of_int a; stop_ns = Int64.of_int b }

let self_time () =
  (* root [0,100] with children [10,40] and [30,60] (overlapping) and
     [90,120] (running past its parent); [10,40] has a child [15,20]. *)
  let spans =
    [ span ~id:0 0 100; span ~id:1 ~parent:0 10 40; span ~id:2 ~parent:0 30 60;
      span ~id:3 ~parent:0 90 120; span ~id:4 ~parent:1 15 20 ]
  in
  let self = Spans.self_times spans in
  let of_id id =
    snd (List.find (fun (s, _) -> s.Spans.id = id) self)
  in
  check_float "root: 100 minus [10,60] and [90,100]" 40.0 (of_id 0);
  check_float "child minus grandchild" 25.0 (of_id 1);
  check_float "overlapping sibling keeps its own self time" 30.0 (of_id 2);
  check_float "leaf" 5.0 (of_id 4);
  let by_name = Spans.self_by_name spans in
  check_float "by name" 40.0 (fst (Hashtbl.find by_name "s0"))

let with_spans () =
  Spans.clear ();
  Spans.enable true;
  Spans.set_op 3;
  let v =
    Spans.with_span "outer" (fun () -> Spans.with_span "inner" (fun () -> 42))
  in
  Spans.enable false;
  Alcotest.(check int) "value passes through" 42 v;
  match Spans.recorded () with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first to close" "inner" inner.Spans.name;
      Alcotest.(check int) "parent link" outer.Spans.id inner.Spans.parent;
      Alcotest.(check int) "op id" 3 inner.Spans.op;
      Spans.clear ()
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Names.valid n))
    [ "setup_s"; "asr.fused.instant_us"; "op_tail_ms.netgen-fused"; "9lives";
      String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Names.valid n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a:b"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Names.valid_unit u))
    [ "ms"; "s"; "1/s"; "count"; "%"; "MB" ];
  Alcotest.(check bool) "unit with a space" false (Names.valid_unit "per s")

let () = Common.work_dir := "perfbench-test-work"

let smoke w () =
  let o = Common.outcome () in
  let r = w.Census.run Common.Smoke ~seed:1 ~seconds:0.05 o in
  Alcotest.(check (list string)) "no failed checks" [] o.Common.reasons;
  Alcotest.(check bool) "ops ran" true (Array.length r.Common.loop.Common.latencies > 0);
  List.iter
    (fun m ->
      Alcotest.(check bool) m.Common.m_name true
        (Float.is_finite m.Common.m_value && m.Common.m_value > 0.0))
    r.Common.e2e;
  Alcotest.(check (list string)) "end-to-end metrics"
    [ "setup_s"; "ops_per_s"; "op_p50_ms"; "peak_heap_mb" ]
    (List.map (fun m -> m.Common.m_name) r.Common.e2e)

(* The traced run emits exactly the per-layer metrics BENCHMARK.json
   declares, each with its declared unit, all finite. *)
let traced () =
  let declared =
    let ic = open_in_bin "../BENCHMARK.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Telemetry.Json.member "per_layer" (Telemetry.Json.parse text) with
    | Some (Telemetry.Json.List l) ->
        List.filter_map
          (fun m ->
            match (Telemetry.Json.member "name" m, Telemetry.Json.member "unit" m) with
            | Some (Telemetry.Json.Str n), Some (Telemetry.Json.Str u) -> Some (n, u)
            | _ -> None)
          l
    | _ -> Alcotest.fail "BENCHMARK.json has no per_layer list"
  in
  let o = Common.outcome () in
  let metrics = Census.traced Common.Smoke ~seed:1 ~seconds:0.2 o in
  Alcotest.(check (list string)) "no failed checks" [] o.Common.reasons;
  let emitted = List.map (fun m -> (m.Common.m_name, m.Common.m_unit)) metrics in
  Alcotest.(check (list (pair string string))) "declared per-layer metrics"
    (List.sort compare declared) (List.sort compare emitted);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Common.m_name ^ " finite") true
        (Float.is_finite m.Common.m_value))
    metrics

let () =
  Alcotest.run "perfbench"
    [ ("stats", [ Alcotest.test_case "tail rule" `Quick tail_rule ]);
      ("spans",
       [ Alcotest.test_case "self time on nested spans" `Quick self_time;
         Alcotest.test_case "recorder" `Quick with_spans ]);
      ("names", [ Alcotest.test_case "metric-name validation" `Quick names ]);
      ("smoke",
       List.map
         (fun w -> Alcotest.test_case w.Census.name `Quick (smoke w))
         Census.workloads
       @ [ Alcotest.test_case "traced run" `Quick traced ]) ]
