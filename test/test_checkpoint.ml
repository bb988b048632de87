module Sup = Spf_harness.Supervisor
module Journal = Spf_harness.Journal
module Bundle = Spf_harness.Bundle
module Figures = Spf_harness.Figures
module Driver = Spf_fuzz.Driver
module Replay = Spf_fuzz.Replay
module Gen = Spf_fuzz.Gen
module Rng = Spf_workloads.Rng

(* Durable campaign state: checkpoint journals (append-only, versioned,
   strictly validated) and self-contained crash bundles.  See
   docs/ROBUSTNESS.md for the on-disk formats. *)

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spf-ckpt-test-%d-%d" (Unix.getpid ()) !counter)
  in
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists d then rm d;
  d

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"test seed=1 count=3" in
  Alcotest.(check int) "fresh journal is empty" 0 (Journal.completed j);
  Journal.record j ~key:"cell/0" ~payload:"alpha";
  Journal.record j ~key:"cell/1" ~payload:"\x00binary\xffbytes\n";
  (* Reopen — as a resumed process would — and read everything back. *)
  let j2 = Journal.start ~dir ~campaign:"test seed=1 count=3" in
  Alcotest.(check int) "both cells survive reopen" 2 (Journal.completed j2);
  Alcotest.(check (option string))
    "text payload" (Some "alpha")
    (Journal.find j2 "cell/0");
  Alcotest.(check (option string))
    "binary payload round-trips exactly"
    (Some "\x00binary\xffbytes\n")
    (Journal.find j2 "cell/1");
  Alcotest.(check (option string))
    "unknown key" None (Journal.find j2 "cell/9")

let build = Digest.to_hex (Digest.file Sys.executable_name)

let test_journal_campaign_mismatch () =
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"campaign A" in
  Journal.record j ~key:"cell/0" ~payload:"x";
  Alcotest.check_raises "different campaign is rejected, not merged"
    (Failure
       (Printf.sprintf
          "checkpoint journal %s belongs to a different campaign:\n\
          \  journal: campaign A build=%s\n  requested: campaign B build=%s"
          (Journal.file j) build build))
    (fun () -> ignore (Journal.start ~dir ~campaign:"campaign B"))

(* A journal whose identity names the campaign but no build (or another
   build) holds payloads this build may decode into the wrong shape: it
   is refused, not resumed. *)
let test_journal_other_build () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "journal" in
  let oc = open_out_bin path in
  let campaign = "fig distance-smoke engine=tape provider=static" in
  output_string oc ("spf-checkpoint 2\ncampaign " ^ campaign ^ "\n");
  close_out oc;
  Alcotest.check_raises "a journal from another build is refused"
    (Failure
       (Printf.sprintf
          "checkpoint journal %s belongs to a different campaign:\n\
          \  journal: %s\n  requested: %s build=%s"
          path campaign campaign build))
    (fun () -> ignore (Journal.start ~dir ~campaign))

let expect_rejected what dir =
  match Journal.start ~dir ~campaign:"c" with
  | _ -> Alcotest.failf "%s journal was accepted" what
  | exception Failure _ -> ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_back path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_journal_truncations () =
  (* A cut final record is exactly what a SIGKILL mid-append leaves: the
     record is dropped, the file compacted at once, and the next start
     is clean. *)
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"c" in
  Journal.record j ~key:"cell/0" ~payload:"a long enough payload";
  let contents = read_back (Journal.file j) in
  write_file (Journal.file j)
    (String.sub contents 0 (String.length contents - 7));
  let j = Journal.start ~dir ~campaign:"c" in
  Alcotest.(check int) "torn record dropped" 0 (Journal.completed j);
  let healed = "spf-checkpoint 2\ncampaign c build=" ^ build ^ "\n" in
  Alcotest.(check string) "compacted to a whole file" healed
    (read_back (Journal.file j));
  let j = Journal.start ~dir ~campaign:"c" in
  Alcotest.(check int) "next start is clean" 0 (Journal.completed j);
  Alcotest.(check string) "and leaves the file alone" healed
    (read_back (Journal.file j));
  (* A cut inside the file — every line still newline-terminated, so
     there is no torn tail to excuse it — is damage, refused. *)
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"c" in
  List.iter
    (fun i ->
      Journal.record j ~key:(Printf.sprintf "cell/%d" i)
        ~payload:"a long enough payload")
    [ 0; 1; 2 ];
  let contents = read_back (Journal.file j) in
  let n = String.length contents in
  write_file (Journal.file j)
    (String.sub contents 0 (n / 2)
    ^ String.sub contents ((n / 2) + 20) (n - (n / 2) - 20));
  expect_rejected "cut mid-file" dir

let test_bundle_roundtrip () =
  let root = fresh_dir () in
  let payload = "\x01\x02reproduction\x00recipe" in
  let d =
    Bundle.write ~root ~name:"case/7"
      ~meta:[ ("kind", "test"); ("note", "multi\nline value") ]
      ~ir:"func @f() { }" ~stats:"cycles=1" ~payload ()
  in
  Alcotest.(check string)
    "slashes flattened in the directory name" "case-7" (Filename.basename d);
  let b = Bundle.read d in
  Alcotest.(check (option string)) "meta" (Some "test") (Bundle.meta_value b "kind");
  Alcotest.(check (option string))
    "multi-line meta value" (Some "multi\nline value")
    (Bundle.meta_value b "note");
  Alcotest.(check (option string)) "ir" (Some "func @f() { }") (Bundle.ir b);
  Alcotest.(check (option string)) "stats" (Some "cycles=1") (Bundle.stats b);
  Alcotest.(check (option string)) "payload" (Some payload) (Bundle.payload b);
  (* Tampering with the payload must fail the checksum on read. *)
  write_file (Filename.concat d "payload.bin") "\x01\x02tampered\x00recipe";
  match Bundle.read d with
  | _ -> Alcotest.fail "tampered payload was accepted"
  | exception Failure _ -> ()

let summary = Alcotest.testable Driver.pp_summary ( = )

let opts ?policy ?engine ?(bundles = false) dir campaign =
  let journal = Journal.start ~dir ~campaign in
  let bundle_root =
    if bundles then Some (Filename.concat dir "bundles") else None
  in
  Sup.options ?policy ?engine ?bundle_root ~journal ()

let test_supervised_matches_raw () =
  (* The journal is a checkpoint, not a semantics change: a journaled
     campaign's result must be exactly what a plain run produces. *)
  let raw = Driver.run ~seed:11 ~count:25 () in
  let sup =
    Driver.run ~seed:11 ~count:25
      ~sup:(opts (fresh_dir ()) "fuzz seed=11 count=25")
      ()
  in
  Alcotest.check summary "supervised == raw" raw sup

(* With no journal, no bundles and no flags, a crashing case still goes
   through the supervisor: the campaign fails with the count, rather
   than the exception escaping or the fault being ignored. *)
let test_plain_crash_fails_campaign () =
  match Driver.run ~seed:11 ~count:25 ~inject:(5, Driver.Crash) () with
  | _ -> Alcotest.fail "injected crash must fail the campaign"
  | exception Sup.Campaign_failed n ->
      Alcotest.(check int) "exactly the injected case failed" 1 n

let test_crash_then_resume_matches_raw () =
  let dir = fresh_dir () in
  let campaign = "fuzz seed=11 count=25" in
  let raw = Driver.run ~seed:11 ~count:25 () in
  (* First run: case 5 crashes deterministically -> incomplete campaign,
     a bundle, and a journal holding every other case. *)
  (match
     Driver.run ~seed:11 ~count:25 ~inject:(5, Driver.Crash)
       ~sup:(opts ~engine:Spf_sim.Engine.Interp ~bundles:true dir campaign)
       ()
   with
  | _ -> Alcotest.fail "injected crash must make the campaign incomplete"
  | exception Sup.Campaign_failed n ->
      Alcotest.(check int) "exactly the injected case failed" 1 n);
  let bundle_dir = Filename.concat (Filename.concat dir "bundles") "case-5" in
  let b = Bundle.read bundle_dir in
  Alcotest.(check (option string))
    "bundle records the crash class" (Some "deterministic")
    (Bundle.meta_value b "class");
  (* The campaign's engine reaches the recorded oracle mode, so replay
     re-runs the case on the engine it crashed on. *)
  Alcotest.(check (option string))
    "bundle records the campaign's oracle" (Some "concrete:interp")
    (Bundle.meta_value b "oracle");
  let j = Journal.start ~dir ~campaign in
  Alcotest.(check int)
    "all other cases are checkpointed" 24 (Journal.completed j);
  (* Resume without the fault: only case 5 re-runs, and the summary is
     byte-identical to an uninterrupted run. *)
  let resumed =
    Driver.run ~seed:11 ~count:25
      ~sup:(opts ~engine:Spf_sim.Engine.Interp dir campaign)
      ()
  in
  Alcotest.check summary "resumed == raw" raw resumed;
  (* The replayed bundle no longer crashes (the fault was injected), so
     replay reports Clean rather than a divergence. *)
  match Replay.replay b with
  | Replay.Clean -> ()
  | Replay.Divergence d -> Alcotest.failf "unexpected divergence: %s" d
  | Replay.Undecided r -> Alcotest.failf "unexpected give-up: %s" r

let test_kill_mid_campaign_resume () =
  (* Simulate a kill after N cells by running a prefix campaign into the
     journal, then resuming the full campaign: recorded cells are
     substituted (resumed = true) and never re-executed. *)
  let dir = fresh_dir () in
  let campaign = "ints" in
  let executions = Array.make 6 0 in
  let job i =
    {
      Sup.key = Printf.sprintf "cell/%d" i;
      work =
        (fun _ctx ->
          executions.(i) <- executions.(i) + 1;
          100 + i);
      binfo = None;
    }
  in
  let first = Sup.run_jobs (opts dir campaign) (List.init 3 job) in
  Alcotest.(check int) "prefix all succeeded" 3 (List.length first);
  let second =
    Sup.run_jobs (opts dir campaign) (List.init 6 job)
  in
  let values, resumed_flags =
    List.split
      (List.map
         (function
           | Ok o -> (o.Sup.value, o.Sup.resumed)
           | Error _ -> Alcotest.fail "unexpected failure")
         second)
  in
  Alcotest.(check (list int))
    "values identical to an uninterrupted run"
    [ 100; 101; 102; 103; 104; 105 ]
    values;
  Alcotest.(check (list bool))
    "first three substituted from the journal"
    [ true; true; true; false; false; false ]
    resumed_flags;
  Alcotest.(check (list int))
    "journaled cells ran exactly once overall"
    [ 1; 1; 1; 1; 1; 1 ]
    (Array.to_list executions)

let test_torn_record_resume () =
  (* A kill mid-append tears at most the journal's last record: chop it,
     resume, and only that cell re-runs — with the values of an
     uninterrupted run. *)
  let dir = fresh_dir () in
  let campaign = "ints" in
  let executions = Array.make 4 0 in
  let job i =
    {
      Sup.key = Printf.sprintf "cell/%d" i;
      work =
        (fun _ctx ->
          executions.(i) <- executions.(i) + 1;
          100 + i);
      binfo = None;
    }
  in
  ignore (Sup.run_jobs (opts dir campaign) (List.init 4 job));
  let path = Filename.concat dir "journal" in
  let contents = read_back path in
  (* Workers append in completion order; the last line's key is the cell
     the cut tears. *)
  let torn =
    let lines = String.split_on_char '\n' contents in
    List.nth (String.split_on_char ' ' (List.nth lines (List.length lines - 2))) 2
  in
  write_file path (String.sub contents 0 (String.length contents - 5));
  let second =
    Sup.run_jobs (opts dir campaign) (List.init 4 job)
  in
  let keys = List.init 4 (Printf.sprintf "cell/%d") in
  Alcotest.(check (list int))
    "values identical to an uninterrupted run" [ 100; 101; 102; 103 ]
    (List.map
       (function Ok o -> o.Sup.value | Error _ -> Alcotest.fail "unexpected failure")
       second);
  Alcotest.(check (list bool))
    "only the torn cell re-ran"
    (List.map (fun k -> k <> torn) keys)
    (List.map (function Ok o -> o.Sup.resumed | Error _ -> false) second);
  Alcotest.(check (list int))
    "the torn cell ran twice, every other cell once"
    (List.map (fun k -> if k = torn then 2 else 1) keys)
    (Array.to_list executions);
  Alcotest.(check int) "the journal is whole again" 4
    (Journal.completed (Journal.start ~dir ~campaign))

let test_fuzz_payload_roundtrip () =
  let spec = Gen.random (Rng.split ~seed:3 17) in
  let p = Replay.payload ~mode:(Spf_fuzz.Oracle.Concrete None) spec in
  let p' = Replay.decode_payload (Replay.encode_payload p) in
  Alcotest.(check bool) "spec survives encode/decode" true (p = p');
  Alcotest.check_raises "garbage payload rejected"
    (Failure
       "bundle payload does not decode as a fuzz case (incompatible build?)")
    (fun () -> ignore (Replay.decode_payload "garbage"))

(* The re-run [spf replay] makes of a "fig-cell" bundle: the cell's
   total simulated cycles, or the reason the table refused it. *)
let replay_total ~figure ~index ~provider =
  Result.map
    (fun cell ->
      List.fold_left
        (fun n r -> n + Spf_harness.Runner.cycles r)
        0
        (cell Spf_harness.Runner.null_ctx))
    (Figures.cell ~figure ~index ~provider)

let refused = function Ok _ -> false | Error _ -> true

let test_figure_cell_replay () =
  let static = Spf_core.Distance.Static in
  (match replay_total ~figure:"fig2" ~index:0 ~provider:static with
  | Ok cycles -> Alcotest.(check bool) "fig2 cell 0 simulates" true (cycles > 0)
  | Error msg -> Alcotest.failf "fig2 cell 0 refused: %s" msg);
  Alcotest.(check bool)
    "unknown figure rejected" true
    (refused (Figures.cell ~figure:"fig99" ~index:0 ~provider:static));
  Alcotest.(check bool)
    "out-of-range index rejected" true
    (refused (Figures.cell ~figure:"fig2" ~index:9999 ~provider:static));
  Alcotest.(check bool)
    "negative index rejected" true
    (refused (Figures.cell ~figure:"fig2" ~index:(-1) ~provider:static))

(* A fig cell replays under the provider its campaign ran with: fig10's
   RA cell applies the pass, so the adaptive tuner moves its cycles off
   the static total.  An unknown figure or index is refused by the table
   lookup, before any cell is built or run. *)
let test_fig_cell_replays_under_provider () =
  let total provider =
    match replay_total ~figure:"fig10" ~index:1 ~provider with
    | Ok cycles -> cycles
    | Error msg -> Alcotest.failf "fig10 cell 1 refused: %s" msg
  in
  let static = total Spf_core.Distance.Static in
  Alcotest.(check int) "static total" 20_324_429 static;
  let adaptive =
    total (Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive)
  in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive total %d differs from static" adaptive)
    true (adaptive <> static);
  List.iter
    (fun (figure, index) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d refused" figure index)
        true
        (refused
           (Figures.cell ~figure ~index
              ~provider:
                (Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive))))
    [ ("ablation-flat", 0); ("fig10", 3) ]

let suite =
  [
    Alcotest.test_case "journal round-trips across reopen" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal rejects a different campaign" `Quick
      test_journal_campaign_mismatch;
    Alcotest.test_case "journal from another build refused" `Quick
      test_journal_other_build;
    Alcotest.test_case "torn tail healed, inner cut refused" `Quick
      test_journal_truncations;
    Alcotest.test_case "bundle round-trips and detects tampering" `Quick
      test_bundle_roundtrip;
    Alcotest.test_case "supervised fuzz summary equals raw" `Quick
      test_supervised_matches_raw;
    Alcotest.test_case "plain campaign crash fails the campaign" `Quick
      test_plain_crash_fails_campaign;
    Alcotest.test_case "crash -> bundle -> resume -> identical summary"
      `Quick test_crash_then_resume_matches_raw;
    Alcotest.test_case "kill after N cells, resume skips them" `Quick
      test_kill_mid_campaign_resume;
    Alcotest.test_case "torn last record re-runs on resume" `Quick
      test_torn_record_resume;
    Alcotest.test_case "fuzz bundle payload round-trips" `Quick
      test_fuzz_payload_roundtrip;
    Alcotest.test_case "figure cells replay from the registry" `Quick
      test_figure_cell_replay;
    Alcotest.test_case "fig cell replays under its campaign's provider"
      `Quick test_fig_cell_replays_under_provider;
  ]
