let () =
  Alcotest.run "eds-rewriter"
    [
      ("value", Test_value.suite);
      ("collection", Test_collection.suite);
      ("vtype", Test_vtype.suite);
      ("adt", Test_adt.suite);
      ("term", Test_term.suite);
      ("lera", Test_lera.suite);
      ("engine", Test_engine.suite);
      ("physical", Test_physical.suite);
      ("esql", Test_esql.suite);
      ("rule-parser", Test_rule_parser.suite);
      ("rule-analysis", Test_rule_analysis.suite);
      ("rulelab", Test_rulelab.suite);
      ("rewriter", Test_rewriter.suite);
      ("engine-fast", Test_engine_fast.suite);
      ("magic", Test_magic.suite);
      ("session", Test_session.suite);
      ("repl", Test_repl.suite);
      ("soundness", Test_soundness.suite);
      ("cost", Test_cost.suite);
      ("storage", Test_storage.suite);
      ("wal", Test_wal.suite);
      ("materializer", Test_materializer.suite);
      ("robustness", Test_robustness.suite);
      ("conformance", Test_conformance.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("analyze", Test_analyze.suite);
      ("server", Test_server.suite);
      ("template", Test_template.suite);
    ]
