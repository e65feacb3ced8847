(* The comparator is the evidence that the recorded baselines gate
   anything: each case records a run, perturbs the recording or the
   fresh run, and checks the verdict of [Row.check]. *)

let target = "demo"

let fresh =
  List.map
    (fun r -> { r with Row.target })
    Row.
      [ cycles ~w:"fir" ~layer:"vm" "cycles" 1200;
        str ~w:"fir" ~layer:"vm" "top_line_1" "fir.mj:12";
        wall ~w:"fir" ~layer:"vm" "wall_s" 0.25;
        gate ~w:"fir" "reconciles" true ]

let check_text ?(fresh = fresh) text =
  let path = Filename.temp_file "baseline" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Row.check ~target ~baseline:path fresh)

let check ?fresh ?(recorded_as = target) recorded =
  check_text ?fresh (Row.to_json_string ~target:recorded_as recorded)

let set metric value rows =
  List.map
    (fun r -> if r.Row.metric = metric then { r with Row.value } else r)
    rows

let without metric = List.filter (fun r -> r.Row.metric <> metric)

let case expected name f =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected (f ()))

let () =
  Alcotest.run "row"
    [ ( "comparator",
        [ case true "identical run" (fun () -> check fresh);
          case true "changed wall value" (fun () ->
              check (set "wall_s" (Row.Float 9.5) fresh));
          case true "extra fresh row" (fun () ->
              check (without "top_line_1" fresh));
          case false "changed exact int" (fun () ->
              check (set "cycles" (Row.Int 1201) fresh));
          case false "changed exact string" (fun () ->
              check (set "top_line_1" (Row.Str "fir.mj:13") fresh));
          case false "recorded row missing from the fresh run" (fun () ->
              check ~fresh:(without "cycles" fresh) fresh);
          case false "recorded gate missing from the fresh run" (fun () ->
              check ~fresh:(without "reconciles" fresh) fresh);
          case false "false gate" (fun () ->
              check ~fresh:(set "reconciles" (Row.Bool false) fresh) fresh);
          case false "baseline with no rows" (fun () -> check []);
          case false "baseline with wall rows only" (fun () ->
              check (List.filter (fun r -> r.Row.kind = Row.Wall) fresh));
          case false "baseline of another target" (fun () ->
              check ~recorded_as:"other" fresh);
          case false "empty JSON object" (fun () -> check_text "{}");
          case false "rows key renamed" (fun () ->
              check_text
                {|{"target": "demo", "rowz": [{"workload": "fir", "layer": "vm",
                   "metric": "cycles", "unit": "cycles", "value": 1200,
                   "kind": "exact"}]}|});
          case false "malformed row" (fun () ->
              check_text {|{"target": "demo", "rows": [{"workload": "fir"}]}|});
          case false "unparseable file" (fun () -> check_text "{\"rows\": [");
          case false "unreadable file" (fun () ->
              Row.check ~target ~baseline:"/nonexistent/baseline.json" fresh)
        ] ) ]
