let () =
  Alcotest.run "javatime"
    [ ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("syntax-properties", Test_qcheck_syntax.suite);
      ("typecheck", Test_typecheck.suite);
      ("interp", Test_interp.suite);
      ("threads", Test_threads.suite);
      ("bytecode", Test_bytecode.suite);
      ("jit-model", Test_jit_model.suite);
      ("asr", Test_asr.suite);
      ("policy", Test_policy.suite);
      ("transforms", Test_transforms.suite);
      ("elaborate", Test_elaborate.suite);
      ("workloads", Test_workloads.suite);
      ("extensions", Test_extensions.suite);
      ("cells", Test_cells.suite);
      ("elevator", Test_elevator.suite);
      ("analysis", Test_analysis.suite);
      ("analysis-extras", Test_analysis_extras.suite);
      ("misc", Test_misc.suite);
      ("random-graphs", Test_random_graphs.suite);
      ("schedule", Test_schedule.suite);
      ("fuse", Test_fuse.suite);
      ("uart", Test_uart.suite);
      ("telemetry", Test_telemetry.suite);
      ("observability", Test_observability.suite);
      ("monitor", Test_monitor.suite);
      ("supervisor", Test_supervisor.suite);
      ("refinement", Test_refinement.suite);
      ("vc-pins", Test_vc_pins.suite);
      ("facts", Test_facts.suite);
      ("causal", Test_causal.suite);
      ("causal-ring", Test_causal_ring.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("collector", Test_collector.suite) ]
