module Distance = Spf_core.Distance
module Profdata = Spf_core.Profdata
module Config = Spf_core.Config
module Pass = Spf_core.Pass
module Benches = Spf_harness.Benches
module Profile_guided = Spf_harness.Profile_guided
module Runner = Spf_harness.Runner
module Machine = Spf_sim.Machine
module Tuner = Spf_sim.Tuner
module Workload = Spf_workloads.Workload

(* The distance-provider subsystem: provider decisions, the signed
   profile file format and its staleness rejection, the pass report's
   per-loop record, and the adaptive tuner's bit-determinism. *)

let choice = Alcotest.(pair int bool)
let as_pair (ch : Distance.choice) = (ch.c, ch.enabled)
let pick p ~header = as_pair (Distance.choose p ~default_c:64 ~header)

let test_choose () =
  let ck = Alcotest.check choice in
  ck "static uses Config.c" (64, true) (pick Distance.Static ~header:3);
  let fixed =
    Distance.Fixed
      { default_c = Some 32; per_loop = [ (3, 128); (5, 0); (6, -4) ] }
  in
  ck "fixed per-loop override" (128, true) (pick fixed ~header:3);
  ck "fixed 0 disables the loop" (0, false) (pick fixed ~header:5);
  ck "fixed negative disables too" (0, false) (pick fixed ~header:6);
  ck "fixed falls back to its default" (32, true) (pick fixed ~header:9);
  ck "fixed without default uses Config.c" (64, true)
    (pick (Distance.Fixed { default_c = None; per_loop = [] }) ~header:3);
  ck "adaptive seeds with Config.c" (64, true)
    (pick (Distance.Adaptive Distance.default_adaptive) ~header:3)

(* ------------------------------------------------------------------ *)
(* Profile files: round-trip, and the three rejection axes (version,
   program signature, machine model). *)

let is_func () =
  let b = (Benches.is_bench ()).Benches.plain () in
  b.Workload.func

let sample_profile func =
  Profdata.make ~func ~machine:"Haswell" ~default_c:64
    ~loops:
      [
        { Profdata.header = 1; c = 128; enabled = true; accesses = 10; misses = 5 };
        { Profdata.header = 2; c = 0; enabled = false; accesses = 0; misses = 0 };
      ]

let with_temp f =
  let path = Filename.temp_file "spf-prof" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_profdata_roundtrip () =
  let func = is_func () in
  let pd = sample_profile func in
  with_temp (fun path ->
      Profdata.save path pd;
      match Profdata.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok pd' ->
          Alcotest.(check bool) "round-trips exactly" true (pd = pd');
          (match Profdata.check pd' ~func ~machine:"Haswell" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "check of a fresh profile failed: %s" e);
          (* The signature is stable across rebuilds of the same program. *)
          (match Profdata.check pd' ~func:(is_func ()) ~machine:"Haswell" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rebuild changed the signature: %s" e);
          let provider = Profdata.provider pd' in
          Alcotest.(check bool)
            "loops become the Fixed table's choices" true
            (provider
            = Distance.Fixed { default_c = None; per_loop = [ (1, 128); (2, 0) ] });
          Alcotest.check choice "profiled loop uses its choice" (128, true)
            (pick provider ~header:1);
          Alcotest.check choice "disabled loops carried through" (0, false)
            (pick provider ~header:2);
          Alcotest.check choice "unprofiled loop falls back to eq. 1" (64, true)
            (pick provider ~header:9))

let expect_error name = function
  | Ok () -> Alcotest.failf "%s: expected rejection" name
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the problem (%s)" name msg)
        true
        (String.length msg > 10)

let test_profdata_rejects_mismatch () =
  let func = is_func () in
  let pd = sample_profile func in
  let cg =
    let b = (Benches.cg_bench ()).Benches.plain () in
    b.Workload.func
  in
  expect_error "different program" (Profdata.check pd ~func:cg ~machine:"Haswell");
  expect_error "different machine" (Profdata.check pd ~func ~machine:"A53")

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - (i + m))

let test_profdata_rejects_stale_version () =
  let func = is_func () in
  with_temp (fun path ->
      Profdata.save path (sample_profile func);
      let ic = open_in path in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      let bumped =
        replace_once ~sub:"\"version\": 1" ~by:"\"version\": 99" text
      in
      Alcotest.(check bool) "fixture rewrote the version" true (bumped <> text);
      let oc = open_out path in
      output_string oc bumped;
      close_out oc;
      match Profdata.load path with
      | Ok _ -> Alcotest.fail "stale version accepted"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names the version (%s)" msg)
            true (String.length msg > 10))

(* A loop marked enabled with c <= 0 has no meaning in the provider
   table (c <= 0 disables), and `spf profile -o` never writes one. *)
let test_profdata_rejects_enabled_without_distance () =
  let func = is_func () in
  with_temp (fun path ->
      Profdata.save path
        (Profdata.make ~func ~machine:"Haswell" ~default_c:64
           ~loops:
             [
               {
                 Profdata.header = 1;
                 c = 0;
                 enabled = true;
                 accesses = 10;
                 misses = 5;
               };
             ]);
      match Profdata.load path with
      | Ok _ -> Alcotest.fail "enabled loop with c = 0 accepted"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names the loop (%s)" msg)
            true
            (String.ends_with
               ~suffix:"loop bb1 is enabled with c = 0; a prefetched loop \
                        needs c >= 1"
               msg))

let test_profdata_load_missing () =
  match Profdata.load "/nonexistent/spf-profile.json" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The pass report's per-loop distance record. *)

let test_report_records_distances () =
  let b = (Benches.is_bench ()).Benches.plain () in
  let _, report = Benches.auto_with_report b in
  Alcotest.(check bool) "at least one loop recorded" true
    (report.Pass.loop_distances <> []);
  List.iter
    (fun (ld : Pass.loop_distance) ->
      Alcotest.(check bool) "static decisions: enabled, eq. 1 c, no register"
        true
        (ld.enabled
        && ld.distance = Config.default.Config.c
        && ld.dist_slot = None))
    report.Pass.loop_distances;
  Alcotest.(check bool) "no adaptive params on a static run" true
    (report.Pass.adaptive = None)

let test_fixed_disable_suppresses_prefetches () =
  (* Find the loop header from a throwaway static application, then
     disable exactly that loop via a Fixed provider. *)
  let probe = (Benches.is_bench ()).Benches.plain () in
  let _, r0 = Benches.auto_with_report probe in
  let header = (List.hd r0.Pass.loop_distances).Pass.header in
  let b = (Benches.is_bench ()).Benches.plain () in
  let config =
    Config.with_provider
      (Distance.Fixed { default_c = None; per_loop = [ (header, 0) ] })
      Config.default
  in
  let b, report = Benches.auto_with_report ~config b in
  let ld =
    List.find (fun (ld : Pass.loop_distance) -> ld.header = header)
      report.Pass.loop_distances
  in
  Alcotest.(check bool) "recorded as disabled" false ld.Pass.enabled;
  Alcotest.(check int) "no prefetches emitted" 0
    (Helpers.count_prefetches b.Workload.func)

(* ------------------------------------------------------------------ *)
(* Adaptive bit-determinism: same program + config => identical cycle
   count AND identical per-window decision traces, run after run. *)

let run_adaptive () =
  let config =
    Config.with_provider (Distance.Adaptive Distance.default_adaptive)
      Config.default
  in
  let b, report =
    Benches.auto_with_report ~config ((Benches.is_bench ()).Benches.plain ())
  in
  let tuner =
    Profile_guided.tuner_of_report ~machine:Machine.haswell b.Workload.func
      report
  in
  let r = Runner.run ?tuner ~machine:Machine.haswell b in
  match tuner with
  | None -> Alcotest.fail "adaptive pass produced no tuner"
  | Some tu -> (Runner.cycles r, Tuner.windows tu, Tuner.chosen tu)

let test_adaptive_deterministic () =
  let c1, w1, t1 = run_adaptive () in
  let c2, w2, t2 = run_adaptive () in
  Alcotest.(check int) "cycles identical" c1 c2;
  Alcotest.(check int) "window count identical" w1 w2;
  Alcotest.(check bool) "decision traces identical" true (t1 = t2);
  Alcotest.(check bool) "the tuner actually re-tuned" true
    (w1 > 0 && List.exists (fun (_, trace) -> List.length trace > 1) t1)

let suite =
  [
    Alcotest.test_case "provider choose semantics" `Quick test_choose;
    Alcotest.test_case "profdata round-trip" `Quick test_profdata_roundtrip;
    Alcotest.test_case "profdata rejects mismatches" `Quick
      test_profdata_rejects_mismatch;
    Alcotest.test_case "profdata rejects stale version" `Quick
      test_profdata_rejects_stale_version;
    Alcotest.test_case "profdata load missing file" `Quick
      test_profdata_load_missing;
    Alcotest.test_case "report records loop distances" `Quick
      test_report_records_distances;
    Alcotest.test_case "fixed 0 disables a loop" `Quick
      test_fixed_disable_suppresses_prefetches;
    Alcotest.test_case "adaptive is bit-deterministic" `Quick
      test_adaptive_deterministic;
    Alcotest.test_case "profdata refuses an enabled loop without a distance"
      `Quick test_profdata_rejects_enabled_without_distance;
  ]
