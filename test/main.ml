(* Aggregated test runner: `dune runtest`. *)

let () =
  Alcotest.run "spf"
    [
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("verifier", Test_verifier.suite);
      ("parser", Test_parser.suite);
      ("simplify", Test_simplify.suite);
      ("split", Test_split.suite);
      ("attrib", Test_attrib.suite);
      ("timing", Test_timing.suite);
      ("loop-edges", Test_loop_edges.suite);
      ("interp", Test_interp.suite);
      ("cache", Test_cache.suite);
      ("memsys", Test_memsys.suite);
      ("pass", Test_pass.suite);
      ("schedule", Test_schedule.suite);
      ("distance", Test_distance.suite);
      ("icc", Test_icc.suite);
      ("hoist", Test_hoist.suite);
      ("workloads", Test_workloads.suite);
      ("multicore", Test_multicore.suite);
      ("properties", Test_props.suite);
      ("safety-edges", Test_safety_edges.suite);
      ("term", Test_term.suite);
      ("validate", Test_validate.suite);
      ("fuzz", Test_fuzz.suite);
      ("pool", Test_pool.suite);
      ("supervisor", Test_supervisor.suite);
      ("checkpoint", Test_checkpoint.suite @ Test_journal.checkpoint_damage);
      ("engine", Test_engine.suite);
      ("tape", Test_tape.suite);
      ("golden", Test_golden.suite);
      ("serve", Test_serve.suite);
      ("ioline", Test_ioline.suite);
      ("proto-fuzz", Test_proto_fuzz.suite);
      ("cache-journal", Test_journal.suite);
    ]
