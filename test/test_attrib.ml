module Ir = Spf_ir.Ir
module Attrib = Spf_sim.Attrib
module Engine = Spf_sim.Engine
module Interp = Spf_sim.Interp
module Machine = Spf_sim.Machine
module Stats = Spf_sim.Stats
module Tuner = Spf_sim.Tuner
module Benches = Spf_harness.Benches
module Runner = Spf_harness.Runner
module Workload = Spf_workloads.Workload

(* Per-pc attribution from the timed memory system.  On a small IS
   instance the indirect bucket load ("count") goes to DRAM before the
   pass; after it the prefetch sites take the fills, and count's accesses
   mostly catch their prefetch still in flight — the timeliness an untimed
   cache walk cannot see.  Over whole runs, the per-pc counters must sum
   to the global Stats counters exactly, and agree across engines. *)

let small_is () =
  Spf_workloads.Is.build
    { Spf_workloads.Is.n_keys = 8192; n_buckets = 1 lsl 20; seed = 9 }

let attributed ?engine ?(machine = Machine.haswell) (b : Workload.built) =
  let attrib = Attrib.create b.Workload.func in
  let r = Runner.run ?engine ~attrib ~machine b in
  (attrib, r.Runner.stats)

let kind_of (b : Workload.built) (s : Attrib.site) =
  (Ir.instr b.Workload.func s.Attrib.pc).Ir.kind

let site_named attrib (b : Workload.built) name =
  match
    List.filter
      (fun (s : Attrib.site) ->
        s.Attrib.name = name
        && match kind_of b s with Ir.Load _ -> true | _ -> false)
      (Attrib.sites attrib)
  with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one %s load, found %d" name (List.length l)

let test_baseline_attribution () =
  let b = small_is () in
  let attrib, _ = attributed b in
  let count = site_named attrib b "count" and key = site_named attrib b "key" in
  (* The bucket-increment load nearly always fills from DRAM; the
     sequential key load rarely does. *)
  Alcotest.(check bool) "indirect load dominated by DRAM fills" true
    (count.Attrib.dram * 10 > count.Attrib.accesses * 8);
  Alcotest.(check bool) "sequential load mostly hits" true
    (key.Attrib.dram * 10 < key.Attrib.accesses)

let prefetched_is () =
  let b = small_is () in
  ignore (Spf_core.Pass.run b.Workload.func);
  let attrib, _ = attributed b in
  (b, attrib, site_named attrib b "count")

let test_pass_shifts_misses_to_prefetch () =
  let b, attrib, count = prefetched_is () in
  Alcotest.(check bool) "demand load no longer fills from DRAM" true
    (count.Attrib.dram * 10 < count.Attrib.accesses);
  let pf_dram =
    List.fold_left
      (fun acc (s : Attrib.site) ->
        match kind_of b s with
        | Ir.Prefetch _ -> acc + s.Attrib.dram
        | _ -> acc)
      0 (Attrib.sites attrib)
  in
  Alcotest.(check bool) "prefetches take the DRAM fills" true
    (pf_dram > 8192 * 6 / 10)

(* The loop is DRAM-bandwidth-bound, so the prefetch for count's line is
   usually still on its way when the load arrives. *)
let test_count_catches_late_prefetches () =
  let _, _, count = prefetched_is () in
  Alcotest.(check bool) "most count accesses catch a late prefetch" true
    (count.Attrib.late * 10 > count.Attrib.accesses * 8);
  Alcotest.(check bool) "late accesses are in-flight hits" true
    (count.Attrib.late <= count.Attrib.inflight)

(* IS is one loop holding every memory access, so its derived totals
   must equal the run's own counters. *)
let test_loop_totals () =
  let b = small_is () in
  let report = Spf_core.Pass.run b.Workload.func in
  let attrib, st = attributed b in
  match report.Spf_core.Pass.loop_distances with
  | [ ld ] ->
      let l = Attrib.loop attrib ~header:ld.Spf_core.Pass.header in
      let load_dram =
        List.fold_left
          (fun acc (s : Attrib.site) ->
            if s.Attrib.is_load then acc + s.Attrib.dram else acc)
          0 (Attrib.sites attrib)
      in
      let ck what want got = Alcotest.(check int) what want got in
      ck "demand = loads" st.Stats.loads l.Attrib.demand;
      ck "miss = the loads' DRAM fills" load_dram l.Attrib.miss;
      ck "late = late_pf_fills" st.Stats.late_pf_fills l.Attrib.late;
      ck "unused = unused_pf_fills" st.Stats.unused_pf_fills l.Attrib.unused;
      ck "no loop, no totals" 0 (Attrib.loop attrib ~header:(-1)).Attrib.demand
  | l ->
      Alcotest.failf "expected one prefetched IS loop, found %d"
        (List.length l)

let test_sites_sorted () =
  let check_sorted attrib =
    let rec ordered = function
      | (a : Attrib.site) :: (b :: _ as rest) ->
          (a.Attrib.dram > b.Attrib.dram
          || (a.Attrib.dram = b.Attrib.dram && a.Attrib.pc < b.Attrib.pc))
          && ordered rest
      | _ -> true
    in
    Alcotest.(check bool) "most DRAM fills first, then by pc" true
      (ordered (Attrib.sites attrib))
  in
  check_sorted (fst (attributed (small_is ())));
  let _, attrib, _ = prefetched_is () in
  check_sorted attrib

(* Every whole-run counter the memory system keeps per access must be
   the sum of its per-pc counterparts. *)
let check_sums label (b : Workload.built) attrib (st : Stats.t) =
  let sites = Attrib.sites attrib in
  let sum ?(only = fun _ -> true) f =
    List.fold_left
      (fun acc s -> if only (kind_of b s) then acc + f s else acc)
      0 sites
  in
  let loads = function Ir.Load _ -> true | _ -> false in
  let stores = function Ir.Store _ -> true | _ -> false in
  let prefetches = function Ir.Prefetch _ -> true | _ -> false in
  let accesses (s : Attrib.site) = s.Attrib.accesses in
  let ck what want got = Alcotest.(check int) (label ^ ": " ^ what) want got in
  ck "loads" st.Stats.loads (sum ~only:loads accesses);
  ck "stores" st.Stats.stores (sum ~only:stores accesses);
  ck "sw_prefetches" st.Stats.sw_prefetches (sum ~only:prefetches accesses);
  ck "late_pf_fills" st.Stats.late_pf_fills (sum (fun s -> s.Attrib.late));
  ck "unused_pf_fills" st.Stats.unused_pf_fills
    (sum (fun s -> s.Attrib.unused));
  ck "inflight_hits" st.Stats.inflight_hits
    (sum ~only:loads (fun s -> s.Attrib.inflight));
  List.iter
    (fun (s : Attrib.site) ->
      ck
        (Printf.sprintf "levels of %%%s.%d" s.Attrib.name s.Attrib.pc)
        s.Attrib.accesses
        (s.Attrib.l1 + s.Attrib.l2 + s.Attrib.l3 + s.Attrib.inflight
       + s.Attrib.dram + s.Attrib.dropped))
    sites;
  Alcotest.(check bool)
    (label ^ ": per-pc DRAM fills within dram_fills")
    true
    (sum (fun s -> s.Attrib.dram) <= st.Stats.dram_fills)

let test_sums_match_stats () =
  List.iter
    (fun (bench : Benches.bench) ->
      List.iter
        (fun (machine : Machine.t) ->
          List.iter
            (fun (variant, build) ->
              let b = build (bench.Benches.plain ()) in
              let attrib, st = attributed ~machine b in
              check_sums
                (Printf.sprintf "%s/%s/%s" bench.Benches.id machine.Machine.name
                   variant)
                b attrib st)
            [ ("plain", Fun.id); ("auto", fun b -> Benches.auto b) ])
        [ Machine.haswell; Machine.a53 ])
    [ Benches.is_bench (); Benches.cg_bench () ];
  (* None of those evicts a prefetched line unused; caches smaller than
     the look-ahead's footprint do, so the unused sum is not vacuous. *)
  let b = small_is () in
  ignore (Spf_core.Pass.run b.Workload.func);
  let attrib, st = attributed ~machine:Helpers.tiny_machine b in
  Alcotest.(check bool) "tiny caches evict prefetches unused" true
    (st.Stats.unused_pf_fills > 0);
  check_sums "small IS/Tiny/auto" b attrib st

(* HJ-8's bucket prefetches outrun the DRAM channel, so the backlog rule
   drops some with no fill started.  Counted as DRAM fills, they would
   push the per-pc sum past the run's own dram_fills. *)
let test_dropped_not_dram () =
  let b = Benches.auto ((Benches.hj8_bench ()).Benches.plain ()) in
  let attrib, st = attributed b in
  check_sums "HJ-8/Haswell/auto" b attrib st;
  let total f =
    List.fold_left (fun acc s -> acc + f s) 0 (Attrib.sites attrib)
  in
  let dropped = total (fun s -> s.Attrib.dropped) in
  Alcotest.(check bool) "the backlog rule dropped prefetches" true
    (dropped > 0);
  Alcotest.(check bool) "drops counted as fills would exceed dram_fills" true
    (total (fun s -> s.Attrib.dram) + dropped > st.Stats.dram_fills)

let test_engines_agree () =
  let per_engine build =
    List.map
      (fun engine -> Attrib.sites (fst (attributed ~engine (build ()))))
      Engine.all
  in
  List.iter
    (fun (label, build) ->
      match per_engine build with
      | reference :: others ->
          List.iter
            (fun sites ->
              Alcotest.(check bool) (label ^ ": per-pc counters") true
                (sites = reference))
            others
      | [] -> ())
    [
      ("IS plain", small_is);
      ( "IS auto",
        fun () ->
          let b = small_is () in
          ignore (Spf_core.Pass.run b.Workload.func);
          b );
      ( "CG auto",
        fun () -> Benches.auto ((Benches.cg_bench ()).Benches.plain ()) );
    ]

(* An attribution sink that is not the tuner's own would take the memory
   system's reports while the tuner reads its own, empty, loop totals:
   the adaptive run would silently keep its initial distances. *)
let test_foreign_sink_rejected () =
  let adaptive () =
    let b, report =
      Benches.auto_with_report
        ~config:
          (Spf_core.Config.with_provider
             (Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive)
             Spf_core.Config.default)
        (small_is ())
    in
    match
      Spf_harness.Profile_guided.tuner_of_report ~machine:Machine.haswell
        b.Workload.func report
    with
    | Some tu -> (b, tu)
    | None -> Alcotest.fail "adaptive IS has no distance register"
  in
  let b, tu = adaptive () in
  Alcotest.check_raises "a foreign sink is refused"
    (Invalid_argument
       "Exec_state.create: ~attrib must be the tuner's own (Tuner.attrib)")
    (fun () ->
      ignore
        (Interp.create ~machine:Machine.haswell
           ~attrib:(Attrib.create b.Workload.func) ~tuner:tu ~mem:b.Workload.mem
           ~args:b.Workload.args b.Workload.func));
  let b, tu = adaptive () in
  ignore
    (Runner.run ~attrib:(Tuner.attrib tu) ~tuner:tu ~machine:Machine.haswell b);
  Alcotest.(check bool) "the tuner's own sink drives its decisions" true
    (List.exists (fun (_, trace) -> List.length trace > 1) (Tuner.chosen tu))

let suite =
  [
    Alcotest.test_case "baseline attribution" `Quick test_baseline_attribution;
    Alcotest.test_case "pass shifts misses to prefetch" `Quick
      test_pass_shifts_misses_to_prefetch;
    Alcotest.test_case "count catches late prefetches" `Quick
      test_count_catches_late_prefetches;
    Alcotest.test_case "loop totals are sums of their pcs" `Quick
      test_loop_totals;
    Alcotest.test_case "sites sorted" `Quick test_sites_sorted;
    Alcotest.test_case "sums match stats" `Slow test_sums_match_stats;
    Alcotest.test_case "dropped is not DRAM" `Quick test_dropped_not_dram;
    Alcotest.test_case "engines agree per pc" `Quick test_engines_agree;
    Alcotest.test_case "foreign tuner sink rejected" `Quick
      test_foreign_sink_rejected;
  ]
