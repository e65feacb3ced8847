(* JavaTime command-line interface.

   javatime check <file.mj>     — parse, type-check, report policy violations
   javatime refine <file.mj>    — run SFR; print the trace and the refined program
   javatime run <file.mj> <cls> — execute the static main() of a class
   javatime profile <file.mj> <cls> — per-method cycle profile of main()
   javatime simulate <file.mj> <cls> — drive an ASR class instant by instant
   javatime size <file.mj>      — per-class and total bytecode size
   javatime bound <file.mj> <cls> — worst-case reaction bound of an ASR class
   javatime disasm <file.mj>    — dump compiled bytecode
   javatime why <file.mj> <cls> — causal slice behind one net at one instant
   javatime trace-diff A B      — first divergence between two recorded runs *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Wall clock in µs (the unit the Chrome trace format assumes). *)
let wall_us () = Sys.time () *. 1e6

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE.json"
         ~doc:"Write a Chrome trace_event file (chrome://tracing, Perfetto)")

(* Structured error handling for every subcommand: each toolchain
   exception maps to a one-line diagnostic and a documented exit code
   (table in README.md) instead of an OCaml backtrace.

     0  success
     1  diagnostic: compile error, runtime error, bad usage, I/O
     2  policy/bound verdict: blocking violations, unbounded reaction
     3  telemetry reconciliation drift
     4  runtime fault: blown cycle budget, fatal contained fault,
        non-monotone block
     5  internal error (a toolchain bug — please report)             *)
let handle f =
  try f () with
  | Mj.Diag.Compile_error d ->
      Format.eprintf "%a@." Mj.Diag.pp d;
      exit 1
  | Mj_runtime.Heap.Runtime_error msg ->
      Format.eprintf "runtime error: %s@." msg;
      exit 1
  | Mj_runtime.Cost.Budget_exceeded cycles ->
      Format.eprintf
        "runtime fault: cycle budget exceeded at meter reading %d@." cycles;
      exit 4
  | Asr.Supervisor.Fatal fault ->
      Format.eprintf "runtime fault (fail-fast): %s@."
        (Asr.Supervisor.fault_to_string fault);
      exit 4
  | Asr.Fixpoint.Nonmonotonic msg ->
      Format.eprintf "runtime fault: non-monotone block: %s@." msg;
      exit 4
  | Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      exit 1
  | Sys_error msg ->
      Format.eprintf "i/o error: %s@." msg;
      exit 1
  | Telemetry.Json.Parse_error msg ->
      Format.eprintf "malformed JSON: %s@." msg;
      exit 1
  | Out_of_memory | Stack_overflow ->
      Format.eprintf "internal error: host resources exhausted@.";
      exit 5
  | e ->
      Format.eprintf "internal error: %s@." (Printexc.to_string e);
      exit 5

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mj")

(* The deterministic stimulus of simulate and why, as verify-refinement
   builds it: scalar port i at instant t carries (t + 1) * (i + 2) mod
   17, and a port the class reads with readPortArray a pixel-like array
   of the smallest power-of-two length a probe reaction accepts. *)
let stimulus ~engine checked ~cls ~n_in ~instants ~start =
  let kinds = Javatime.Verify.input_kinds checked ~cls ~n_in in
  let array_size =
    if Array.exists Fun.id kinds then
      Javatime.Verify.calibrate_array_size ~engine ~kinds checked ~cls
    else 1
  in
  List.init
    (max 0 (instants - start))
    (fun k ->
      List.init n_in (fun i ->
          ( string_of_int i,
            Javatime.Verify.make_inputs ~kinds ~array_size (start + k) i )))

(* --strategy of simulate and why; an unknown name exits 1. *)
let strategy_of_arg s =
  match Asr.Fixpoint.strategy_of_string s with
  | Some st -> st
  | None ->
      Format.eprintf "unknown strategy '%s' (chaotic|scheduled|worklist|fused)@."
        s;
      exit 1

let class_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS")

let check_cmd =
  let run file policy json =
    handle (fun () ->
        let checked = Mj.Typecheck.check_source ~file (read_file file) in
        let violations =
          match policy with
          | "asr" ->
              (* The policy report plus the refinement checker's
                 verification conditions (blocking when a recorded
                 transform cannot be justified). *)
              Policy.Rule.order_violations
                (Policy.Asr_policy.check checked
                @ Javatime.Verify.refinement_rule.Policy.Rule.check checked)
          | "sdf" -> Policy.Sdf_policy.check checked
          | other ->
              Format.eprintf "unknown policy '%s' (asr|sdf)@." other;
              exit 1
        in
        if json then print_endline (Policy.Rule.report_to_json violations)
        else begin
          Policy.Rule.pp_report Format.std_formatter violations;
          List.iter
            (fun f ->
              Format.printf "note: %a@." Mj.Definite_assignment.pp_finding f)
            (Mj.Definite_assignment.check checked.Mj.Typecheck.program)
        end;
        if List.exists Policy.Rule.is_blocking violations then exit 2)
  in
  let policy_arg =
    Arg.(value & opt string "asr" & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Policy of use: asr (synchronous reactive) or sdf (dataflow)")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the report as JSON (rule id, severity, span, fixes)")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Type-check and verify a policy of use")
    Term.(const run $ file_arg $ policy_arg $ json_flag)

let refine_cmd =
  let run file print_program policy audit audit_out trace_out =
    handle (fun () ->
        let program = Mj.Parser.parse_program ~file (read_file file) in
        let policy =
          match policy with
          | "asr" -> Policy.Asr_policy.rules
          | "sdf" -> Policy.Sdf_policy.rules
          | other ->
              Format.eprintf "unknown policy '%s' (asr|sdf)@." other;
              exit 1
        in
        let telemetry =
          match trace_out with
          | Some _ -> Some (Telemetry.Registry.create ~clock:wall_us ())
          | None -> None
        in
        let provenance = audit || audit_out <> None in
        let outcome =
          Javatime.Engine.refine ~policy ?telemetry ~provenance program
        in
        Javatime.Engine.pp_trace Format.std_formatter outcome;
        (match (outcome.Javatime.Engine.provenance, audit_out) with
        | Some p, Some path ->
            write_file path
              (Telemetry.Json.to_string (Javatime.Provenance.to_json p))
        | _ -> ());
        (match outcome.Javatime.Engine.provenance with
        | Some p when audit ->
            print_newline ();
            print_string (Javatime.Provenance.to_string p)
        | _ -> ());
        (match (trace_out, telemetry) with
        | Some path, Some reg ->
            write_file path (Telemetry.Export.chrome_trace reg)
        | _ -> ());
        if print_program then begin
          print_newline ();
          print_string (Mj.Pretty.program_to_string outcome.Javatime.Engine.final)
        end)
  in
  let print_flag =
    Arg.(value & flag & info [ "p"; "print" ] ~doc:"Print the refined program")
  in
  let policy_arg =
    Arg.(value & opt string "asr" & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Target policy of use: asr or sdf")
  in
  let audit_flag =
    Arg.(value & flag & info [ "audit" ]
           ~doc:"Print the provenance audit: per-iteration violations and \
                 source-level diffs of every applied transformation")
  in
  let audit_out_arg =
    Arg.(value & opt (some string) None & info [ "audit-out" ]
           ~docv:"FILE.json" ~doc:"Write the provenance audit as JSON")
  in
  Cmd.v
    (Cmd.info "refine" ~doc:"Apply successive formal refinement")
    Term.(const run $ file_arg $ print_flag $ policy_arg $ audit_flag
          $ audit_out_arg $ trace_out_arg)

let engine_arg =
  Arg.(value & opt string "vm" & info [ "e"; "engine" ] ~docv:"ENGINE"
         ~doc:"Execution engine: interp, vm or jit")

(* Run main() under [engine], optionally feeding a profile and a
   per-line attribution table. Returns (console output, Cost.cycles). *)
let run_main_with ?profile ?lines engine checked cls =
  match engine with
  | "interp" ->
      let s = Mj_runtime.Interp.create ?profile ?lines checked in
      Mj_runtime.Interp.run_main s cls;
      (Mj_runtime.Interp.output s, Mj_runtime.Interp.cycles s)
  | "vm" ->
      let s =
        Mj_bytecode.Vm.create ?profile ?lines
          (Mj_bytecode.Compile.compile checked)
      in
      Mj_bytecode.Vm.run_main s cls;
      (Mj_bytecode.Vm.output s, Mj_bytecode.Vm.cycles s)
  | "jit" ->
      let s =
        Mj_bytecode.Jit.create ?profile ?lines
          (Mj_bytecode.Compile.compile checked)
      in
      Mj_bytecode.Jit.run_main s cls;
      (Mj_bytecode.Jit.output s, Mj_bytecode.Jit.cycles s)
  | other ->
      Format.eprintf "unknown engine '%s' (interp|vm|jit)@." other;
      exit 1

let run_cmd =
  let run file cls engine trace_out =
    handle (fun () ->
        let checked = Mj.Typecheck.check_source ~file (read_file file) in
        match trace_out with
        | None ->
            let output, _ = run_main_with engine checked cls in
            print_string output
        | Some path ->
            (* A method-level call tree on the cycle timeline. *)
            let reg = Telemetry.Registry.create () in
            let profile = Telemetry.Profile.create ~spans:reg () in
            let output, _ = run_main_with ~profile engine checked cls in
            write_file path (Telemetry.Export.chrome_trace reg);
            print_string output)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute the static main() of a class")
    Term.(const run $ file_arg $ class_arg $ engine_arg $ trace_out_arg)

(* Annotated source listing: the program's own lines with cycle and
   allocation counts in the margin; the hottest lines are flagged. *)
let annotate_source ~file ~src lt =
  let open Telemetry.Lines in
  let rows = rows lt in
  let here = List.filter (fun r -> r.e_file = file) rows in
  let elsewhere = List.filter (fun r -> r.e_file <> file) rows in
  let by_line = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_line r.e_line r) here;
  let hot =
    (* flag the top three lines by cycles (only genuinely hot ones) *)
    List.filter (fun r -> r.e_cycles > 0) here
    |> List.sort (fun a b -> compare b.e_cycles a.e_cycles)
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun r -> r.e_line)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%12s %8s %6s  %s\n" "cycles" "allocs" "" file);
  let src_lines = String.split_on_char '\n' src in
  List.iteri
    (fun i text ->
      let n = i + 1 in
      match Hashtbl.find_opt by_line n with
      | Some r ->
          Buffer.add_string buf
            (Printf.sprintf "%12d %8d %c%5d| %s\n" r.e_cycles r.e_allocs
               (if List.mem n hot then '*' else ' ')
               n text)
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "%12s %8s  %5d| %s\n" "" "" n text))
    src_lines;
  if elsewhere <> [] then begin
    Buffer.add_string buf "attributed outside this file:\n";
    List.iter
      (fun r ->
        let name =
          if r.e_file = "" then "<unattributed>"
          else Printf.sprintf "%s:%d" r.e_file r.e_line
        in
        Buffer.add_string buf
          (Printf.sprintf "%12d %8d  %s\n" r.e_cycles r.e_allocs name))
      elsewhere
  end;
  Buffer.add_string buf
    (Printf.sprintf "%12d %8s  total\n" (total lt) "");
  Buffer.contents buf

let profile_cmd =
  let run file cls engine json limit lines_flag flame_out trace_out =
    handle (fun () ->
        let src = read_file file in
        let checked = Mj.Typecheck.check_source ~file src in
        let span_reg =
          match (trace_out, flame_out) with
          | None, None -> None
          | _ -> Some (Telemetry.Registry.create ())
        in
        let profile = Telemetry.Profile.create ?spans:span_reg () in
        let lines =
          if lines_flag then Some (Telemetry.Lines.create ()) else None
        in
        let _, cycles = run_main_with ~profile ?lines engine checked cls in
        (match (json, lines) with
        | true, None ->
            print_endline
              (Telemetry.Json.to_string (Telemetry.Export.profile_json profile))
        | true, Some lt ->
            print_endline
              (Telemetry.Json.to_string
                 (Telemetry.Json.Obj
                    [ ("profile", Telemetry.Export.profile_json profile);
                      ("lines", Telemetry.Export.lines_json lt) ]))
        | false, None ->
            print_string (Telemetry.Export.profile_table ?limit profile)
        | false, Some lt ->
            print_string (Telemetry.Export.profile_table ?limit profile);
            print_newline ();
            print_string (annotate_source ~file ~src lt));
        (match (flame_out, span_reg) with
        | Some path, Some reg ->
            write_file path
              (Telemetry.Flame.to_string (Telemetry.Flame.collapse reg))
        | _ -> ());
        (match (trace_out, span_reg) with
        | Some path, Some reg ->
            write_file path (Telemetry.Export.chrome_trace reg)
        | _ -> ());
        if Telemetry.Profile.total profile <> cycles then begin
          Format.eprintf
            "profile does not reconcile: %d profiled vs %d metered cycles@."
            (Telemetry.Profile.total profile)
            cycles;
          exit 3
        end;
        (match lines with
        | Some lt when Telemetry.Lines.total lt <> cycles ->
            Format.eprintf
              "line profile does not reconcile: %d attributed vs %d metered \
               cycles@."
              (Telemetry.Lines.total lt) cycles;
            exit 3
        | _ -> ());
        if not json then
          Printf.printf "reconciled: %d cycles (profile total = Cost.cycles)\n"
            cycles)
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON")
  in
  let limit_arg =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
           ~doc:"Show only the top N methods by self cycles")
  in
  let lines_arg =
    Arg.(value & flag & info [ "lines" ]
           ~doc:"Also profile per source line and print an annotated listing")
  in
  let flame_arg =
    Arg.(value & opt (some string) None & info [ "flame-out" ]
           ~docv:"FILE.folded"
           ~doc:"Write a collapsed-stack file (flamegraph.pl, speedscope)")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Execute main() and print a per-method cycle profile")
    Term.(const run $ file_arg $ class_arg $ engine_arg $ json_flag $ limit_arg
          $ lines_arg $ flame_arg $ trace_out_arg)

let simulate_cmd =
  let run file cls engine instants strategy supervise on_fault fault_log
      budget heap_limit escalate_after monitor snapshot_every snapshot_out
      flight_out causal_trace causal_capacity checkpoint_every checkpoint_out
      resume vcd_out trace_out =
    handle (fun () ->
        let checked = Mj.Typecheck.check_source ~file (read_file file) in
        let engine =
          match engine with
          | "interp" -> Javatime.Elaborate.Engine_interp
          | "vm" -> Javatime.Elaborate.Engine_vm
          | "jit" -> Javatime.Elaborate.Engine_jit
          | other ->
              Format.eprintf "unknown engine '%s' (interp|vm|jit)@." other;
              exit 1
        in
        let strategy = strategy_of_arg strategy in
        let supervise = supervise || fault_log <> None in
        let snapshot_every = max 0 snapshot_every in
        let monitor =
          monitor || snapshot_every > 0 || snapshot_out <> None
          || flight_out <> None
        in
        let policy =
          match Asr.Supervisor.policy_of_string on_fault with
          | Some p -> p
          | None ->
              Format.eprintf
                "unknown fault policy '%s' (fail|hold|absent|retry:N)@."
                on_fault;
              exit 1
        in
        let elab =
          Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
            ~bounded_memory:false ?heap_limit_words:heap_limit checked ~cls
        in
        let n_in, _ = Javatime.Elaborate.ports elab in
        (* Per-reaction cycle budget: explicit --budget wins; under
           --supervise an 8x-slack budget is derived from the static
           reaction bound when one exists (the static bound is exact for
           the interpreter tariffs only, so the slack keeps the watchdog
           a containment backstop rather than a false-positive source). *)
        let budget =
          match budget with
          | Some n -> Some n
          | None when supervise -> (
              match Policy.Time_bound.reaction_bound checked ~cls with
              | Policy.Time_bound.Cycles n -> Some (8 * n)
              | Policy.Time_bound.Unbounded _ -> None)
          | None -> None
        in
        let reg =
          match trace_out with
          | Some _ -> Some (Telemetry.Registry.create ~clock:wall_us ())
          | None -> None
        in
        let snapshot_buf = Buffer.create 256 in
        let checkpoint_every = max 0 checkpoint_every in
        (* Resume first: the artifact decides which attachments the run
           had, so the flags below inherit from it. *)
        let resumed_ck = Option.map Asr.Checkpoint.load resume in
        let supervise =
          supervise
          || (match resumed_ck with
             | Some ck -> Asr.Checkpoint.has_supervisor ck
             | None -> false)
        in
        let monitor =
          monitor
          || (match resumed_ck with
             | Some ck -> Asr.Checkpoint.has_monitor ck
             | None -> false)
        in
        let policy =
          match resumed_ck with
          | Some ck -> Option.value (Asr.Checkpoint.policy ck) ~default:policy
          | None -> policy
        in
        let escalate_after =
          match resumed_ck with
          | Some ck when Asr.Checkpoint.has_supervisor ck ->
              Asr.Checkpoint.escalation_threshold ck
          | _ -> escalate_after
        in
        let ckpt_dir =
          match checkpoint_out with
          | Some dir -> Some dir
          | None -> if checkpoint_every > 0 then Some "." else None
        in
        let g, new_instant =
          Javatime.Elaborate.system ?budget_cycles:budget elab
        in
        let supervisor =
          if supervise then
            Some
              (Asr.Supervisor.create ~policy ~escalate_after
                 ~classify:Javatime.Elaborate.fault_classifier ?telemetry:reg
                 ())
          else None
        in
        let mon =
          if monitor then
            Some
              (Telemetry.Monitor.create ~snapshot_every
                 ~snapshot_sink:(fun line ->
                   Buffer.add_string snapshot_buf line;
                   Buffer.add_char snapshot_buf '\n')
                 ~clock:wall_us
                 ~cycles_source:(fun () ->
                   Javatime.Elaborate.last_reaction_cycles elab)
                 ())
          else None
        in
        let causal =
          match (causal_trace, resumed_ck) with
          | Some _, None ->
              Some
                (Telemetry.Causal.create ~capacity:causal_capacity
                   ~n_nets:(Asr.Graph.compile g).Asr.Graph.n_nets ())
          | _ ->
              (* on resume the artifact's causal state (if any) continues
                 the original ring *)
              None
        in
        let sim =
          match resumed_ck with
          | Some ck ->
              let r =
                Asr.Checkpoint.resume ?telemetry:reg ?monitor:mon ?supervisor
                  ck g
              in
              (match Asr.Checkpoint.machine ck with
              | Some mj -> Javatime.Elaborate.restore_machine_json elab mj
              | None -> ());
              r.Asr.Checkpoint.r_sim
          | None ->
              Asr.Simulate.create ~strategy ?telemetry:reg ?supervisor
                ?monitor:mon ?causal g
        in
        let start = Asr.Simulate.instant_count sim in
        let stream = stimulus ~engine checked ~cls ~n_in ~instants ~start in
        let write_ck ?ck ~tag dir =
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let ck =
            match ck with
            | Some ck -> ck
            | None ->
                Asr.Checkpoint.capture ~system:(Asr.Graph.name g)
                  ~machine:(Javatime.Elaborate.machine_state_json elab)
                  sim
          in
          let path =
            Filename.concat dir (Printf.sprintf "checkpoint-%s.json" tag)
          in
          Asr.Checkpoint.save ?monitor:mon ck path;
          path
        in
        (* Step-wise drive: periodic checkpoints land on instant
           boundaries, and a fail-fast abort still writes both
           artifacts — the recording and a resumable checkpoint of the
           last completed instant — before the exit-4 diagnostic. *)
        let recorder =
          match causal_trace with
          | Some _ when start = 0 -> Some (Asr.Checkpoint.recorder sim stream)
          | _ -> None
        in
        let entries = ref [] and fatal = ref None in
        (* pre-instant capture: the abort checkpoint must describe the
           boundary before the killing instant, and the supervisor is
           unreadable mid-instant *)
        let last_boundary = ref None in
        (try
           List.iter
             (fun inputs ->
               if ckpt_dir <> None then
                 last_boundary :=
                   Some
                     (Asr.Checkpoint.capture ~system:(Asr.Graph.name g)
                        ~machine:(Javatime.Elaborate.machine_state_json elab)
                        sim);
               new_instant ();
               entries :=
                 (match recorder with
                 | Some r -> Asr.Checkpoint.record_step r
                 | None -> List.hd (Asr.Simulate.run sim [ inputs ]))
                 :: !entries;
               match ckpt_dir with
               | Some dir
                 when checkpoint_every > 0
                      && Asr.Simulate.instant_count sim mod checkpoint_every = 0
                 ->
                   ignore
                     (write_ck
                        ~tag:(string_of_int (Asr.Simulate.instant_count sim))
                        dir)
               | _ -> ())
             stream
         with Asr.Supervisor.Fatal f ->
           fatal := Some (Asr.Supervisor.fault_to_string f));
        let trace = List.rev !entries in
        (match (causal_trace, recorder) with
        | Some path, Some r ->
            Asr.Checkpoint.save
              (Asr.Checkpoint.recorded ~system:(Asr.Graph.name g)
                 ~machine:(Javatime.Elaborate.machine_state_json elab)
                 r)
              path;
            if !fatal <> None then
              Format.eprintf "causal trace written to %s@." path
        | Some _, None ->
            Format.eprintf
              "warning: --causal-trace ignored (a recording starts at \
               instant 0; this run resumes at instant %d)@."
              start
        | None, _ -> ());
        (match !fatal with
        | Some msg ->
            (match (ckpt_dir, !last_boundary) with
            | Some dir, Some ck ->
                let path = write_ck ~ck ~tag:"abort" dir in
                Format.eprintf "abort checkpoint written to %s@." path
            | _ -> ());
            Format.eprintf "runtime fault (fail-fast): %s@." msg;
            exit 4
        | None -> ());
        (match ckpt_dir with
        | Some dir -> ignore (write_ck ~tag:"final" dir)
        | None -> ());
        print_string (Asr.Waves.render trace);
        Printf.printf "%d instant(s), %d cycles total\n" instants
          (Javatime.Elaborate.total_cycles elab);
        (match supervisor with
        | Some sup ->
            let faults = Asr.Supervisor.fault_count sup in
            let quarantined = Asr.Supervisor.quarantined_blocks sup in
            Printf.printf
              "supervisor: policy %s, %d fault(s) contained, %d recovered, \
               %d block(s) quarantined\n"
              (Asr.Supervisor.policy_name policy)
              faults
              (Asr.Supervisor.recovered_count sup)
              (List.length quarantined);
            List.iter
              (fun f ->
                Printf.printf "  %s\n" (Asr.Supervisor.fault_to_string f))
              (Asr.Supervisor.faults sup)
        | None -> ());
        (match (fault_log, supervisor) with
        | Some path, Some sup ->
            write_file path
              (Telemetry.Json.to_string (Asr.Supervisor.faults_json sup))
        | _ -> ());
        (match mon with
        | Some m ->
            let p q sk = Telemetry.Sketch.quantile sk q in
            Printf.printf
              "monitor: %d instant(s), latency p50/p95/p99 %.0f/%.0f/%.0f us, \
               %d spike(s), %d snapshot(s)\n"
              (Telemetry.Monitor.instants m)
              (p 0.5 (Telemetry.Monitor.latency m))
              (p 0.95 (Telemetry.Monitor.latency m))
              (p 0.99 (Telemetry.Monitor.latency m))
              (Telemetry.Monitor.spike_count m)
              (Telemetry.Monitor.snapshots_emitted m);
            (match snapshot_out with
            | Some path -> write_file path (Buffer.contents snapshot_buf)
            | None ->
                if snapshot_every > 0 then
                  print_string (Buffer.contents snapshot_buf));
            (match flight_out with
            | Some path ->
                let d =
                  match Telemetry.Monitor.last_dump m with
                  | Some d -> d
                  | None -> Telemetry.Monitor.dump ~reason:"end-of-run" m
                in
                write_file path (Telemetry.Json.to_string d)
            | None -> ())
        | None -> ());
        (match vcd_out with
        | Some path -> write_file path (Asr.Waves.to_vcd trace)
        | None -> ());
        match (trace_out, reg) with
        | Some path, Some r ->
            let causal_loss =
              Option.map Telemetry.Causal.data_loss (Asr.Simulate.causal sim)
            in
            write_file path (Telemetry.Export.chrome_trace ?causal_loss r)
        | _ -> ())
  in
  let instants_arg =
    Arg.(value & opt int 8 & info [ "n"; "instants" ] ~docv:"N"
           ~doc:"Number of instants to simulate")
  in
  let strategy_arg =
    Arg.(value & opt string "worklist" & info [ "strategy" ] ~docv:"STRATEGY"
           ~doc:"Fixed-point strategy for the reaction (chaotic|scheduled|\
                 worklist|fused); fused compiles the net ahead of time into \
                 fused slot operations. Every strategy runs the reaction \
                 once per instant")
  in
  let supervise_flag =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Run each reaction under the fault supervisor: traps, blown \
                 budgets and heap exhaustion are contained per --on-fault \
                 instead of aborting the simulation")
  in
  let on_fault_arg =
    Arg.(value & opt string "hold" & info [ "on-fault" ] ~docv:"POLICY"
           ~doc:"Containment policy: fail (abort, exit 4), hold (outputs \
                 keep their previous value), absent (outputs go absent), \
                 retry:N (re-run up to N times, then hold)")
  in
  let fault_log_arg =
    Arg.(value & opt (some string) None & info [ "fault-log" ]
           ~docv:"FILE.json"
           ~doc:"Write the supervisor's fault log as JSON (implies \
                 --supervise)")
  in
  let budget_arg =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"CYCLES"
           ~doc:"Per-reaction cycle budget; default under --supervise is 8x \
                 the static reaction bound when one exists")
  in
  let heap_limit_arg =
    Arg.(value & opt (some int) None & info [ "heap-limit" ] ~docv:"WORDS"
           ~doc:"Fixed heap capacity in words; exhausting it is a \
                 containable fault")
  in
  let escalate_arg =
    Arg.(value & opt int 3 & info [ "escalate-after" ] ~docv:"K"
           ~doc:"Permanently quarantine a block after K consecutive faulty \
                 instants")
  in
  let monitor_flag =
    Arg.(value & flag & info [ "monitor" ]
           ~doc:"Attach the always-on streaming monitor: a per-instant \
                 flight recorder, bounded-memory latency/eval quantile \
                 sketches, sliding-window rates and per-block health \
                 (implied by the other --snapshot-*/--flight-out flags)")
  in
  let snapshot_every_arg =
    Arg.(value & opt int 0 & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Emit one NDJSON monitor snapshot every N instants, to \
                 stdout or --snapshot-out (implies --monitor)")
  in
  let snapshot_out_arg =
    Arg.(value & opt (some string) None & info [ "snapshot-out" ]
           ~docv:"FILE.ndjson"
           ~doc:"Write the NDJSON snapshot stream to FILE instead of stdout \
                 (implies --monitor)")
  in
  let flight_out_arg =
    Arg.(value & opt (some string) None & info [ "flight-out" ]
           ~docv:"FILE.json"
           ~doc:"Write the flight-recorder dump as JSON: the quarantine \
                 dump if a block escalated, else an end-of-run dump \
                 (implies --monitor)")
  in
  let causal_trace_arg =
    Arg.(value & opt (some string) None & info [ "causal-trace" ]
           ~docv:"FILE.json"
           ~doc:"Record the run into a run artifact: the final checkpoint \
                 (resumable with --resume) plus the input stream, every \
                 instant's net fixed point and the bounded causal event \
                 ring, for 'javatime trace-diff' (ignored on a resumed run)")
  in
  let causal_capacity_arg =
    Arg.(value & opt int 65536 & info [ "causal-capacity" ] ~docv:"N"
           ~doc:"Causal event ring capacity; older events are overwritten \
                 and the loss is reported in the trace and in monitor \
                 data_loss objects")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Write a durable checkpoint (simulator registers, \
                 supervisor and injector state, monitor cumulatives, \
                 causal ring, telemetry counters, elaborated machine \
                 state) every N instants, as \
                 checkpoint-<instant>.json under --checkpoint-out \
                 (default .). A resumed run is bit-identical to the \
                 uninterrupted one")
  in
  let checkpoint_out_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint-out" ]
           ~docv:"DIR"
           ~doc:"Directory for checkpoint artifacts; also arms \
                 end-of-run (checkpoint-final.json) and fail-fast abort \
                 (checkpoint-abort.json) checkpoints, so an exit-4 run \
                 is resumable post-mortem")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ]
           ~docv:"FILE.json"
           ~doc:"Resume from a run artifact (a checkpoint, or the \
                 --causal-trace file of a completed run): restore the \
                 simulator, supervisor, monitor, causal ring and \
                 machine state, then run the remaining instants (up to \
                 --instants total). Supervision, policy and monitoring \
                 are inherited from the artifact")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE.vcd"
           ~doc:"Write the signal trace as a VCD waveform (GTKWave)")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Drive an ASR class with a deterministic input ramp")
    Term.(const run $ file_arg $ class_arg $ engine_arg $ instants_arg
          $ strategy_arg $ supervise_flag $ on_fault_arg $ fault_log_arg
          $ budget_arg $ heap_limit_arg $ escalate_arg $ monitor_flag
          $ snapshot_every_arg $ snapshot_out_arg $ flight_out_arg
          $ causal_trace_arg $ causal_capacity_arg $ checkpoint_every_arg
          $ checkpoint_out_arg $ resume_arg $ vcd_arg
          $ trace_out_arg)

let why_cmd =
  let run file cls net instant instants strategy json =
    handle (fun () ->
        let checked = Mj.Typecheck.check_source ~file (read_file file) in
        let strategy = strategy_of_arg strategy in
        let elab =
          Javatime.Elaborate.elaborate ~engine:Javatime.Elaborate.Engine_vm
            ~enforce_policy:false ~bounded_memory:false checked ~cls
        in
        let n_in, _ = Javatime.Elaborate.ports elab in
        let g, new_instant = Javatime.Elaborate.system elab in
        let stream =
          stimulus ~engine:Javatime.Elaborate.Engine_vm checked ~cls ~n_in
            ~instants ~start:0
        in
        let sim =
          Asr.Simulate.create ~strategy
            ~causal:
              (Telemetry.Causal.create
                 ~n_nets:(Asr.Graph.compile g).Asr.Graph.n_nets ())
            g
        in
        let r = Asr.Checkpoint.recorder sim stream in
        List.iter
          (fun _ ->
            new_instant ();
            ignore (Asr.Checkpoint.record_step r))
          stream;
        let t = Asr.Checkpoint.recorded ~system:(Asr.Graph.name g) r in
        if net < 0 || net >= Asr.Checkpoint.n_nets t then begin
          Format.eprintf "net %d out of range (system has %d nets)@." net
            (Asr.Checkpoint.n_nets t);
          exit 1
        end;
        if instant < 0 || instant >= Asr.Checkpoint.instant t then begin
          Format.eprintf "instant %d out of range (run has %d instants)@."
            instant (Asr.Checkpoint.instant t);
          exit 1
        end;
        let sl = Asr.Checkpoint.why t ~net ~instant in
        if json then
          print_endline (Telemetry.Json.to_string (Asr.Checkpoint.slice_json t sl))
        else print_string (Asr.Checkpoint.slice_to_string t sl))
  in
  let net_arg =
    Arg.(required & opt (some int) None & info [ "net" ] ~docv:"N"
           ~doc:"Net to explain, by compiled net index")
  in
  let instant_arg =
    Arg.(required & opt (some int) None & info [ "instant" ] ~docv:"T"
           ~doc:"Instant to explain (0-based)")
  in
  let instants_arg =
    Arg.(value & opt int 8 & info [ "n"; "instants" ] ~docv:"N"
           ~doc:"Number of instants to simulate before querying")
  in
  let strategy_arg =
    Arg.(value & opt string "worklist" & info [ "strategy" ] ~docv:"STRATEGY"
           ~doc:"Fixed-point strategy (chaotic|scheduled|worklist|fused)")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the slice as JSON")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Why-provenance: trace a class under the deterministic ramp and \
             print the minimal causal slice behind one net's value at one \
             instant")
    Term.(const run $ file_arg $ class_arg $ net_arg $ instant_arg
          $ instants_arg $ strategy_arg $ json_flag)

let trace_diff_cmd =
  let run a b json =
    handle (fun () ->
        let ta = Asr.Checkpoint.load a and tb = Asr.Checkpoint.load b in
        match Asr.Checkpoint.first_divergence ta tb with
        | exception Asr.Checkpoint.Incomparable msg ->
            Format.eprintf "traces are not comparable: %s@." msg;
            exit 1
        | None ->
            if json then
              print_endline
                (Telemetry.Json.to_string
                   (Telemetry.Json.Obj
                      [ ("identical", Telemetry.Json.Bool true);
                        ("instants", Telemetry.Json.Int (Asr.Checkpoint.instant ta));
                        ("nets", Telemetry.Json.Int (Asr.Checkpoint.n_nets ta)) ]))
            else
              Printf.printf "traces agree: %d instant(s), %d net(s)\n"
                (Asr.Checkpoint.instant ta) (Asr.Checkpoint.n_nets ta)
        | Some d ->
            if json then
              print_endline
                (Telemetry.Json.to_string
                   (Telemetry.Json.Obj
                      [ ("identical", Telemetry.Json.Bool false);
                        ("divergence", Asr.Checkpoint.divergence_json d) ]))
            else begin
              print_endline (Asr.Checkpoint.divergence_to_string d);
              (match d.Asr.Checkpoint.d_slice_a with
              | Some sl ->
                  print_string ("--- A ---\n" ^ Asr.Checkpoint.slice_to_string ta sl)
              | None -> ());
              (match d.Asr.Checkpoint.d_slice_b with
              | Some sl ->
                  print_string ("--- B ---\n" ^ Asr.Checkpoint.slice_to_string tb sl)
              | None -> ())
            end;
            exit 2)
  in
  let a_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A.json")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B.json")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as JSON")
  in
  Cmd.v
    (Cmd.info "trace-diff"
       ~doc:"Localize the first divergence between two recorded runs \
             (--causal-trace artifacts): the earliest (instant, block, net) where the runs \
             disagree, with both causal slices (exit 0 identical, 2 \
             diverged, 1 incomparable)")
    Term.(const run $ a_arg $ b_arg $ json_flag)

let size_cmd =
  let run file =
    handle (fun () ->
        let checked = Mj.Typecheck.check_source ~file (read_file file) in
        let image = Mj_bytecode.Compile.compile checked in
        let classes =
          List.map (fun c -> c.Mj.Ast.cl_name) checked.Mj.Typecheck.program.classes
        in
        List.iter
          (fun cls ->
            Printf.printf "%8d  %s\n"
              (Mj_bytecode.Classfile.class_size image cls)
              cls)
          classes;
        Printf.printf "%8d  total\n"
          (Mj_bytecode.Classfile.program_size image ~classes))
  in
  Cmd.v
    (Cmd.info "size" ~doc:"Serialized bytecode size per class")
    Term.(const run $ file_arg)

let bound_cmd =
  let run file cls trace_out =
    handle (fun () ->
        let reg =
          match trace_out with
          | Some _ -> Some (Telemetry.Registry.create ~clock:wall_us ())
          | None -> None
        in
        let phase name f =
          match reg with
          | Some r -> Telemetry.Registry.with_span r ~cat:"bound" name f
          | None -> f ()
        in
        let result =
          phase "bound" (fun () ->
              let checked =
                phase "typecheck" (fun () ->
                    Mj.Typecheck.check_source ~file (read_file file))
              in
              phase "reaction_bound" (fun () ->
                  Policy.Time_bound.reaction_bound checked ~cls))
        in
        (match (trace_out, reg) with
        | Some path, Some r -> write_file path (Telemetry.Export.chrome_trace r)
        | _ -> ());
        match result with
        | Policy.Time_bound.Cycles n ->
            Printf.printf "%s.run: bounded, %d cycles worst case\n" cls n
        | Policy.Time_bound.Unbounded why ->
            Printf.printf "%s.run: unbounded (%s)\n" cls why;
            exit 2)
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Worst-case reaction bound of an ASR class")
    Term.(const run $ file_arg $ class_arg $ trace_out_arg)

let metrics_cmd =
  let run file =
    handle (fun () ->
        let program = Mj.Parser.parse_program ~file (read_file file) in
        Mj.Metrics.pp_table Format.std_formatter (Mj.Metrics.of_program program);
        let totals = Mj.Metrics.totals program in
        Printf.printf
          "totals: %d class(es), %d field(s), %d method(s), %d statement(s), %d expression(s)\n"
          totals.Mj.Metrics.pt_classes totals.Mj.Metrics.pt_fields
          totals.Mj.Metrics.pt_methods totals.Mj.Metrics.pt_statements
          totals.Mj.Metrics.pt_expressions)
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Program metrics (size, decisions, nesting)")
    Term.(const run $ file_arg)

let disasm_cmd =
  let run file optimize =
    handle (fun () ->
        let checked = Mj.Typecheck.check_source ~file (read_file file) in
        let image = Mj_bytecode.Compile.compile checked in
        let image =
          if optimize then Mj_bytecode.Optimize.image image else image
        in
        List.iter
          (fun mc -> Format.printf "%a@." Mj_bytecode.Instr.pp_method mc)
          (Mj_bytecode.Compile.sorted_methods image))
  in
  let optimize_arg =
    Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the peephole optimizer")
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Dump compiled bytecode")
    Term.(const run $ file_arg $ optimize_arg)

let verify_refinement_cmd =
  let run file cls schedules instants array_size json =
    handle (fun () ->
        let program = Mj.Parser.parse_program ~file (read_file file) in
        let report, outcome = Javatime.Verify.check_program program in
        let corr =
          Javatime.Verify.trace_correspondence ~schedules ~instants ?array_size
            program ~cls
        in
        let vcs = Javatime.Verify.all_vcs report in
        let n_corr_failures = List.length corr.Javatime.Verify.c_failures in
        let ok = report.Javatime.Verify.v_failed = 0 && n_corr_failures = 0 in
        if json then begin
          let vc_json (v : Analysis.Refinement.vc) =
            Telemetry.Json.Obj
              [ ("transform", Telemetry.Json.Str v.Analysis.Refinement.vc_transform);
                ("class", Telemetry.Json.Str v.Analysis.Refinement.vc_class);
                ("site", Telemetry.Json.Str v.Analysis.Refinement.vc_site);
                ("ok", Telemetry.Json.Bool v.Analysis.Refinement.vc_ok);
                ("detail", Telemetry.Json.Str v.Analysis.Refinement.vc_detail) ]
          in
          print_endline
            (Telemetry.Json.to_string
               (Telemetry.Json.Obj
                  [ ("refined", Telemetry.Json.Bool outcome.Javatime.Engine.compliant);
                    ("transform_steps",
                     Telemetry.Json.Int (List.length report.Javatime.Verify.v_steps));
                    ("vcs_discharged",
                     Telemetry.Json.Int report.Javatime.Verify.v_discharged);
                    ("vcs_failed", Telemetry.Json.Int report.Javatime.Verify.v_failed);
                    ("vcs", Telemetry.Json.List (List.map vc_json vcs));
                    ("strategies",
                     Telemetry.Json.List
                       (List.map
                          (fun s -> Telemetry.Json.Str s)
                          corr.Javatime.Verify.c_strategies));
                    ("schedules_explored",
                     Telemetry.Json.Int corr.Javatime.Verify.c_schedules);
                    ("schedules_executed",
                     Telemetry.Json.Int corr.Javatime.Verify.c_executed);
                    ("coverage",
                     Telemetry.Json.Str (Javatime.Verify.coverage corr));
                    ("instants", Telemetry.Json.Int corr.Javatime.Verify.c_instants);
                    ("correspondences_checked",
                     Telemetry.Json.Int corr.Javatime.Verify.c_checked);
                    ("correspondence_failures",
                     Telemetry.Json.List
                       (List.map
                          (fun s -> Telemetry.Json.Str s)
                          corr.Javatime.Verify.c_failures)) ]))
        end
        else begin
          List.iter
            (fun (s : Javatime.Verify.vc_step) ->
              Printf.printf "iteration %d: %s\n" s.Javatime.Verify.s_iteration
                s.Javatime.Verify.s_transform;
              List.iter
                (fun (v : Analysis.Refinement.vc) ->
                  Printf.printf "  [%s] %s: %s — %s\n"
                    (if v.Analysis.Refinement.vc_ok then "ok" else "FAIL")
                    v.Analysis.Refinement.vc_class
                    v.Analysis.Refinement.vc_site
                    v.Analysis.Refinement.vc_detail)
                s.Javatime.Verify.s_vcs)
            report.Javatime.Verify.v_steps;
          let races = report.Javatime.Verify.v_races in
          Printf.printf "thread elimination: [%s] %s\n"
            (if races.Analysis.Refinement.vc_ok then "ok" else "FAIL")
            races.Analysis.Refinement.vc_detail;
          Printf.printf
            "verification conditions: %d discharged, %d failed\n"
            report.Javatime.Verify.v_discharged report.Javatime.Verify.v_failed;
          Printf.printf
            "trace correspondence: %d schedule(s) x %d instant(s), \
             strategies [%s]: %d checked, %d failure(s)\n"
            corr.Javatime.Verify.c_schedules corr.Javatime.Verify.c_instants
            (String.concat " " corr.Javatime.Verify.c_strategies)
            corr.Javatime.Verify.c_checked n_corr_failures;
          Printf.printf "coverage: %s, %d of %d schedule(s) executed\n"
            (Javatime.Verify.coverage corr) corr.Javatime.Verify.c_executed
            corr.Javatime.Verify.c_schedules;
          List.iter
            (fun f -> Printf.printf "  FAIL %s\n" f)
            corr.Javatime.Verify.c_failures
        end;
        if not ok then exit 2)
  in
  let schedules_arg =
    Arg.(value & opt int 100 & info [ "schedules" ] ~docv:"N"
           ~doc:"Seeded thread schedules to cover per program")
  in
  let instants_arg =
    Arg.(value & opt int 8 & info [ "instants" ] ~docv:"N"
           ~doc:"Reaction instants per schedule")
  in
  let array_size_arg =
    Arg.(value & opt (some int) None & info [ "array-size" ] ~docv:"N"
           ~doc:"Element count for array-carrying input ports (default: \
                 probed)")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON")
  in
  Cmd.v
    (Cmd.info "verify-refinement"
       ~doc:
         "Check that the refinement of a design is meaning-preserving: \
          discharge per-transform verification conditions and check trace \
          correspondence under seeded thread schedules")
    Term.(const run $ file_arg $ class_arg $ schedules_arg $ instants_arg
          $ array_size_arg $ json_flag)

let bundled_designs =
  [ ("fir", lazy Workloads.Fir_mj.unrestricted_source);
    ("traffic", lazy Workloads.Traffic_mj.source);
    ("elevator", lazy Workloads.Elevator_mj.source);
    ("fig8", lazy Workloads.Fig8_mj.threaded_source);
    ("fig8-blocks", lazy Workloads.Fig8_mj.refined_blocks_source);
    ("uart", lazy Workloads.Uart_mj.source);
    ("jpeg-unrestricted",
     lazy (Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ()));
    ("jpeg-restricted",
     lazy (Workloads.Jpeg_mj.restricted_source ~width:48 ~height:40 ())) ]

let demo_cmd =
  let run name =
    match name with
    | None ->
        List.iter (fun (n, _) -> print_endline n) bundled_designs;
        print_endline "\nuse 'javatime demo <name> > design.mj' to export one"
    | Some name -> (
        match List.assoc_opt name bundled_designs with
        | Some src -> print_string (Lazy.force src)
        | None ->
            Format.eprintf "unknown design '%s'@." name;
            exit 1)
  in
  let name_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "demo" ~doc:"List or print the bundled MJ design examples")
    Term.(const run $ name_arg)

let () =
  let doc = "design and specification of embedded systems by successive formal refinement" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "javatime" ~version:"1.0.0" ~doc)
          [ check_cmd; refine_cmd; run_cmd; profile_cmd; simulate_cmd; size_cmd;
            bound_cmd; metrics_cmd; disasm_cmd; verify_refinement_cmd;
            why_cmd; trace_diff_cmd; demo_cmd ]))
