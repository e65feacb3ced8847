(* Static analysis: shared-field races and interval loop bounds per
   bundled design. Gates: the race detector flags the paper's Fig. 8
   threaded program and nothing else; the interval analysis subsumes
   the syntactic loop recognizer everywhere and strictly extends it on
   the local-copied-bound shape; the unrestricted JPEG flags while the
   restricted one stays clean. *)

(* The local-copied-bound shape the syntactic recognizer rejects but the
   interval analysis bounds (shows the subsumption is strict). *)
let interval_only_source =
  {|class IntervalOnly extends ASR {
  IntervalOnly() { declarePorts(1, 1); }
  public void run() {
    int n = 10;
    int m = n * 2;
    int acc = readPort(0);
    for (int i = 0; i < m; i++) { acc = acc + i; }
    writePort(0, acc);
  }
}|}

(* (loops the syntactic recognizer bounds, loops the full analysis
   bounds, syntactically bounded loops the fallback loses) *)
let loop_counts checked =
  let facts = Analysis.Facts.of_checked checked in
  let bounded = function Policy.Loop_bounds.Bounded _ -> true | _ -> false in
  let syntactic = ref 0 and interval = ref 0 and regressed = ref 0 in
  List.iter
    (fun cls ->
      List.iter
        (fun body ->
          Mj.Visit.iter_stmts
            ~stmt:(fun s ->
              match s.Mj.Ast.stmt with
              | Mj.Ast.For _ ->
                  let syn =
                    bounded (Policy.Loop_bounds.syntactic_for_bound facts s)
                  in
                  let full =
                    bounded
                      (Policy.Loop_bounds.for_bound
                         ~enclosing:body.Mj.Visit.b_stmts facts s)
                  in
                  if syn then incr syntactic;
                  if full then incr interval
                  else if syn then incr regressed
              | _ -> ())
            ~expr:(fun _ -> ())
            body.Mj.Visit.b_stmts)
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.Mj.Ast.classes;
  (!syntactic, !interval, !regressed)

let survey w source =
  let checked = Mj.Typecheck.check_source ~file:(w ^ ".mj") source in
  let races = List.length (Analysis.Races.detect checked) in
  let compliant =
    not (List.exists Policy.Rule.is_blocking (Policy.Asr_policy.check checked))
  in
  let syntactic, interval, regressed = loop_counts checked in
  Row.
    [ count ~w "races" races;
      exact ~w "compliant" (Bool compliant);
      count ~w "loops_syntactic" syntactic;
      count ~w "loops_interval" interval;
      count ~w "loops_regressed" regressed;
      gate ~w "no_loop_regressed" (regressed = 0);
      (if w = "fig8-threaded" then gate ~w "race_detected" (races > 0)
       else gate ~w "no_spurious_race" (races = 0)) ]
  @
  match w with
  | "jpeg-unrestricted" -> [ Row.gate ~w "flags_violation" (not compliant) ]
  | "jpeg-restricted" -> [ Row.gate ~w "clean" compliant ]
  | "interval-only" ->
      Row.
        [ gate ~w "clean" compliant;
          gate ~w "interval_extends_syntactic" (interval > syntactic) ]
  | _ -> []

let rows ~smoke =
  let width, height = if smoke then (32, 24) else (48, 40) in
  List.concat
    [ survey "fig8-threaded" Workloads.Fig8_mj.threaded_source;
      survey "fig8-refined-blocks" Workloads.Fig8_mj.refined_blocks_source;
      survey "traffic" Workloads.Traffic_mj.source;
      survey "elevator" Workloads.Elevator_mj.source;
      survey "uart" Workloads.Uart_mj.source;
      survey "jpeg-restricted"
        (Workloads.Jpeg_mj.restricted_source ~width ~height ());
      survey "jpeg-unrestricted"
        (Workloads.Jpeg_mj.unrestricted_source ~width ~height ());
      survey "interval-only" interval_only_source ]
