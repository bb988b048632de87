module Machine = Spf_sim.Machine
module Stats = Spf_sim.Stats
module Benches = Spf_harness.Benches
module Runner = Spf_harness.Runner
module Workload = Spf_workloads.Workload
module Distance = Spf_core.Distance

(* Golden timing numbers for the interpreter hot path.

   These (cycles, instructions, loads, sw_prefetches) tuples were captured
   from the simulator BEFORE the PR-2 hot-path refactor (precomputed phi
   edge copies, resolved-at-create intrinsic table, min-heap multicore
   scheduling) and must stay bit-identical forever after: the refactors
   are pure strength reductions with no licence to move a single cycle.
   One out-of-order machine (Haswell) and one in-order machine (A53) cover
   both timing models.

   The fifth column pins the rest: the MD5 of every [Stats] counter,
   rendered as perfbench's fig digests are ([name=value] joined by [,]),
   so a change that moves only hardware prefetches, hit levels, late
   fills or TLB misses fails here too.  The fig-core rows' digests equal
   those in perfbench/reference.ml. *)

let golden =
  [
    ("Haswell", "IS", "plain", (4692828, 2621446, 524288, 0),
      "658881e84810b387c55004cc562e12a3");
    ("Haswell", "IS", "auto", (3550570, 5242886, 786432, 524288),
      "d2ca8aa69c5898662aef0156b9401844");
    ("Haswell", "CG", "plain", (5897373, 11894796, 2621440, 0),
      "4cff75a225f9dea36f7c4cd91e0acb59");
    ("Haswell", "CG", "auto", (4622823, 17203212, 3145728, 1081344),
      "3ef8600532835dc62d2cc2b65b285d2e");
    ("Haswell", "RA", "plain", (5721725, 5263367, 524288, 0),
      "afa413b19b944608a964eb64cb1aaabb");
    ("Haswell", "RA", "auto", (4874463, 8146951, 786432, 524288),
      "4f613e53879c8f73835900c2d1d16911");
    ("Haswell", "HJ-2", "plain", (2682473, 3014662, 524288, 0),
      "6fa31b40ebacad308ae652417726a183");
    ("Haswell", "HJ-2", "auto", (1629188, 4587526, 524288, 262144),
      "a6529b3b0844a012f2b5963badd00003");
    ("Haswell", "HJ-8", "plain", (19812120, 4653062, 851968, 0),
      "4dbfd4e7ad0f74b84767873076a3b109");
    ("Haswell", "HJ-8", "auto", (11968630, 5963782, 917504, 327680),
      "73381009eeef0378fd72ce101c4df250");
    ("Haswell", "HJ-8", "manual", (4112932, 7077894, 1245184, 262144),
      "bdd76e51db9273c4c305c2c49fcb948b");
    ("A53", "IS", "plain", (76473346, 2621446, 524288, 0),
      "b1c9f0a9a0f1b393195526bfe81e0567");
    ("A53", "IS", "auto", (31633087, 5242886, 786432, 524288),
      "f0a8dadb6122326eaa56361b37859c39");
    ("A53", "CG", "plain", (55043678, 11894796, 2621440, 0),
      "6274616b9ae02923dced11fbe2dd75bd");
    ("A53", "CG", "auto", (38719988, 17203212, 3145728, 1081344),
      "19b8520abbde8aa8332425a2ce2d74f4");
    ("A53", "RA", "plain", (78883742, 5263367, 524288, 0),
      "7bbc3d87571d8452d1d64909658416ef");
    ("A53", "RA", "auto", (40970064, 8146951, 786432, 524288),
      "101c6e9bf5b4cc63a6a071170b01183b");
    ("A53", "HJ-2", "plain", (38360852, 3014662, 524288, 0),
      "04df8242fb9546963259970518be1df6");
    ("A53", "HJ-2", "auto", (16397810, 4587526, 524288, 262144),
      "232456429135a0d4119a5f64dd2bf998");
    ("A53", "HJ-8", "plain", (56465625, 4653062, 851968, 0),
      "f6572005aa12982be0ca579d99b4b909");
    ("A53", "HJ-8", "auto", (42724759, 5963782, 917504, 327680),
      "734ae1d8b43e63ebd12024668c161169");
    ("A53", "HJ-8", "manual", (24926651, 7077894, 1245184, 262144),
      "b324767228a4b77136d11ec3cda802fe");
    (* Distance-provider rows (PR 7): the pass under a Fixed provider at
       two explicit look-aheads, and under the Adaptive provider with the
       windowed tuner attached.  Adaptive is bit-deterministic for a fixed
       program + config — the tuner ticks at retired demand loads, which
       both engines count identically — so its rows pin exact
       numbers like every other. *)
    ("Haswell", "IS", "fixed16", (5238351, 5242886, 786432, 524288),
      "2a129ab9651333082e61d44878c0ff58");
    ("Haswell", "IS", "fixed128", (3548215, 5242886, 786432, 524288),
      "19936bde6aa5473f05a99e60c3a0e7a8");
    ("Haswell", "IS", "adaptive", (3562744, 6029319, 786432, 524288),
      "608b44e250f13c2e725e98ca9f9e8ed7");
    ("Haswell", "HJ-2", "fixed16", (2423897, 4587526, 524288, 262144),
      "0c69884948c5bb2c24f53d20ad55ba4b");
    ("Haswell", "HJ-2", "fixed128", (1629134, 4587526, 524288, 262144),
      "0a6f2b478e394b1ace807d96776915cd");
    ("Haswell", "HJ-2", "adaptive", (1671057, 4980743, 524288, 262144),
      "956745a392cfe3d0c2f1e58f64c3acc3");
    ("A53", "IS", "fixed16", (31625887, 5242886, 786432, 524288),
      "031c9d3d23789a4a034e954143a68d9c");
    ("A53", "IS", "fixed128", (31629939, 5242886, 786432, 524288),
      "22f17873e26395e28d3482b1cbf5e398");
    ("A53", "IS", "adaptive", (31629215, 6029319, 786432, 524288),
      "d65b49e85c32b324d39fabd5ace3ad3e");
    ("A53", "HJ-2", "fixed16", (16397765, 4587526, 524288, 262144),
      "ea3b56ad9587eb6c9a991bd995556ec7");
    ("A53", "HJ-2", "fixed128", (16403357, 4587526, 524288, 262144),
      "887781c70d9fd1d80ae09b23c1883f5c");
    ("A53", "HJ-2", "adaptive", (16402388, 4980743, 524288, 262144),
      "94bde7e5acdfbcfe47c894883b5baa9b");
  ]

let machine_of = function
  | "Haswell" -> Machine.haswell
  | "A53" -> Machine.a53
  | m -> Alcotest.failf "unknown golden machine %s" m

let bench_of id =
  match
    List.find_opt (fun (b : Benches.bench) -> b.id = id) (Benches.all ())
  with
  | Some b -> b
  | None -> Alcotest.failf "unknown golden bench %s" id

let with_provider p = Spf_core.Config.with_provider p Spf_core.Config.default

let fixed_at c (b : Benches.bench) =
  Benches.auto
    ~config:(with_provider (Distance.Fixed { default_c = Some c; per_loop = [] }))
    (b.plain ())

let adaptive ~machine (b : Benches.bench) =
  let built, report =
    Benches.auto_with_report
      ~config:(with_provider (Distance.Adaptive Distance.default_adaptive))
      (b.plain ())
  in
  ( built,
    Spf_harness.Profile_guided.tuner_of_report ~machine built.Workload.func
      report )

(* Returns the built workload plus the tuner the adaptive variant needs
   attached to its run. *)
let build ~machine (b : Benches.bench) = function
  | "plain" -> (b.plain (), None)
  | "auto" -> (Benches.auto (b.plain ()), None)
  | "manual" -> (b.manual ~machine ~c:None, None)
  | "fixed16" -> (fixed_at 16 b, None)
  | "fixed128" -> (fixed_at 128 b, None)
  | "adaptive" -> adaptive ~machine b
  | v -> Alcotest.failf "unknown golden variant %s" v

(* One run of a row, with or without a per-pc attribution sink attached
   (an adaptive row's sink is its tuner's own). *)
let run_row ~engine ~attributed (mname, bid, variant) =
  let machine = machine_of mname in
  let built, tuner = build ~machine (bench_of bid) variant in
  let attrib =
    match (attributed, tuner) with
    | false, _ -> None
    | true, Some tu -> Some (Spf_sim.Tuner.attrib tu)
    | true, None -> Some (Spf_sim.Attrib.create built.Workload.func)
  in
  (Runner.run ~engine ?attrib ?tuner ~machine built).Runner.stats

let counters (s : Stats.t) =
  List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (Stats.fields s)

let digest s = Digest.to_hex (Digest.string (String.concat "," (counters s)))

(* On a mismatch, fail with the first differing counter spelled out
   (golden vs simulated, with the row identified) rather than a raw
   assert — a regression should read as a sentence in the test log.  A
   digest mismatch has no golden value per counter to name, so it prints
   every counter of the run instead.  Attribution is observation only: in
   the default engine's cell, an attributed run must reproduce the row
   too and match the plain run on every counter (the per-pc counters
   themselves are engine-independent, pinned in the attrib suite). *)
let check_one ~engine
    (mname, bid, variant, (cycles, insts, loads, swpf), stats_digest) () =
  let row =
    Printf.sprintf "%s/%s/%s (--engine=%s)" mname bid variant
      (Spf_sim.Engine.to_string engine)
  in
  let check_row label (s : Stats.t) =
    List.iter
      (fun (field, want, got) ->
        if want <> got then
          Alcotest.failf "golden divergence on %s%s: %s golden=%d got=%d" row
            label field want got)
      [
        ("cycles", cycles, s.Stats.cycles);
        ("instructions", insts, s.Stats.instructions);
        ("loads", loads, s.Stats.loads);
        ("sw_prefetches", swpf, s.Stats.sw_prefetches);
      ];
    let got = digest s in
    if got <> stats_digest then
      Alcotest.failf
        "golden divergence on %s%s: Stats digest golden=%s got=%s, counters: \
         %s"
        row label stats_digest got
        (String.concat " " (counters s))
  in
  let off = run_row ~engine ~attributed:false (mname, bid, variant) in
  check_row "" off;
  if engine = Spf_sim.Engine.default then begin
    let on = run_row ~engine ~attributed:true (mname, bid, variant) in
    check_row " with attribution" on;
    match Stats.first_mismatch off on with
    | None -> ()
    | Some (field, a, b) ->
        Alcotest.failf "attribution moved a counter on %s: %s off=%d on=%d"
          row field a b
  end

(* Every golden row runs under BOTH execution engines (interp/tape): the
   pre-decoded tape engine must land on the same cycle as the reference
   interpreter, not just the same answer — the distance-provider rows
   included, which additionally pin the adaptive tuner's
   bit-determinism. *)
let suite =
  List.concat_map
    (fun engine ->
      List.map
        (fun ((mname, bid, variant, _, _) as row) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s/%s/%s" mname bid variant
               (Spf_sim.Engine.to_string engine))
            `Slow
            (check_one ~engine row))
        golden)
    Spf_sim.Engine.all
