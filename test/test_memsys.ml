module Machine = Spf_sim.Machine
module Memsys = Spf_sim.Memsys
module Dram = Spf_sim.Dram
module Stats = Spf_sim.Stats

(* Behavioural tests for the memory-system composition: latencies per level,
   DRAM queueing, in-flight merging, TLB walks, stride prefetcher. *)

let tscale = 12

let mk ?(machine = Helpers.tiny_machine) () =
  let stats = Stats.create () in
  let dram = Dram.create machine.Machine.dram ~tscale in
  (Memsys.create machine ~tscale ~dram ~stats (), stats, machine)

let access ?(kind = Memsys.Demand) ?(pc = 0) t ~addr ~now =
  Memsys.access t ~kind ~pc ~addr ~now

let test_levels () =
  let t, _, m = mk () in
  (* First touch: DRAM (plus a TLB walk). *)
  let c1 = access t ~addr:0 ~now:0 in
  Alcotest.(check bool) "first access is a DRAM fill" true
    (Memsys.last_level t = Memsys.Dram);
  Alcotest.(check bool) "DRAM latency paid" true
    (c1 >= m.Machine.dram.latency * tscale);
  (* Second touch at a later time: L1 hit. *)
  let now = c1 + 1 in
  let c2 = access t ~addr:0 ~now in
  Alcotest.(check bool) "then an L1 hit" true (Memsys.last_level t = Memsys.L1);
  Alcotest.(check int) "L1 latency" (m.Machine.lat_l1 * tscale) (c2 - now)

let test_inflight_merge () =
  let t, st, _ = mk () in
  let c1 = access t ~addr:0 ~now:0 in
  (* A second access to the same line before the fill returns waits for
     exactly the same completion, without a second DRAM fill. *)
  let c2 = access t ~addr:8 ~now:(c1 / 2) in
  Alcotest.(check int) "merged into in-flight fill" c1 c2;
  Alcotest.(check int) "one DRAM fill" 1 st.Stats.dram_fills;
  Alcotest.(check int) "one in-flight hit" 1 st.Stats.inflight_hits

let test_dram_queueing () =
  let t, _, m = mk () in
  (* Issue more concurrent misses than the channel can overlap; the k-th
     completion is pushed out by at least the channel occupancy. *)
  let completions =
    List.init 8 (fun k -> access t ~addr:(k * 65536) ~now:0 ~pc:k)
  in
  let sorted = List.sort compare completions in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g ->
      Alcotest.(check bool) "per-line occupancy enforced" true
        (g >= m.Machine.dram.occupancy * tscale))
    (gaps sorted)

let test_demand_vs_prefetch_pools () =
  (* Saturate the prefetch pool with 16 outstanding fills to distinct lines
     of one page; a demand miss to the same page must still start promptly
     (bounded by channel backlog), not wait for a prefetch MSHR to free
     (~ a full DRAM latency). *)
  let t, _, m = mk () in
  let n_pf = m.Machine.pf_mshrs in
  for k = 0 to n_pf - 1 do
    ignore (access ~kind:Memsys.Sw_prefetch t ~addr:(k * 64) ~now:0 ~pc:1)
  done;
  let c = access t ~addr:(63 * 64) ~now:0 ~pc:2 in
  let t2, _, _ = mk () in
  let c_alone = access t2 ~addr:(63 * 64) ~now:0 ~pc:2 in
  let channel_backlog =
    (n_pf * m.Machine.dram.occupancy * tscale)
    + (m.Machine.walk_latency * tscale)
  in
  Alcotest.(check bool) "demand not blocked behind prefetch MSHRs" true
    (c - c_alone <= channel_backlog);
  Alcotest.(check bool) "bound is tighter than a fill latency" true
    (channel_backlog < m.Machine.dram.latency * tscale)

let test_tlb_walks () =
  let t, st, _ = mk () in
  ignore (access t ~addr:0 ~now:0);
  Alcotest.(check int) "first touch walks" 1 st.Stats.page_walks;
  ignore (access t ~addr:64 ~now:1_000_000);
  Alcotest.(check int) "same page: no second walk" 1 st.Stats.page_walks;
  ignore (access t ~addr:(1 lsl 13) ~now:2_000_000);
  Alcotest.(check int) "new page walks" 2 st.Stats.page_walks

let test_walker_serialisation () =
  (* With one walker, two simultaneous walks serialise. *)
  let machine = { Helpers.tiny_machine with Machine.walkers = 1 } in
  let t, _, m = mk ~machine () in
  let c1 = access t ~addr:0 ~now:0 in
  let c2 = access t ~addr:(1 lsl 13) ~now:0 ~pc:1 in
  ignore c1;
  Alcotest.(check bool) "second walk delayed by the first" true
    (c2 >= 2 * m.Machine.walk_latency * tscale)

let test_prefetch_primes_tlb () =
  let t, st, _ = mk () in
  ignore (access ~kind:Memsys.Sw_prefetch t ~addr:0 ~now:0);
  Alcotest.(check int) "prefetch walked" 1 st.Stats.page_walks;
  ignore (access t ~addr:8 ~now:1_000_000);
  Alcotest.(check int) "later demand reuses the entry" 1 st.Stats.page_walks

let test_huge_pages_reduce_walks () =
  let machine = Machine.with_pages Helpers.tiny_machine Machine.Huge_pages in
  let t, st, _ = mk ~machine () in
  (* Touch 64 distinct 4K pages inside one 2M page. *)
  for k = 0 to 63 do
    ignore (access t ~addr:(k * 4096) ~now:(k * 1_000_000) ~pc:k)
  done;
  Alcotest.(check int) "one walk for the whole huge page" 1 st.Stats.page_walks

let test_stride_prefetcher_trains () =
  let t, st, _ = mk ~machine:{ Helpers.tiny_machine with Machine.l1 = { Machine.size = 128; assoc = 2 } } () in
  (* March sequentially at one PC with a 64-byte stride: after the
     threshold, hardware prefetches should be issued. *)
  for k = 0 to 19 do
    ignore (access t ~addr:(k * 64) ~now:(k * 10_000) ~pc:7)
  done;
  Alcotest.(check bool) "hardware prefetches issued" true
    (st.Stats.hw_prefetches > 0)

let test_stride_prefetcher_defeated_by_random () =
  let t, st, _ = mk () in
  let rng = Spf_workloads.Rng.create ~seed:9 in
  for k = 0 to 19 do
    ignore
      (access t
         ~addr:(Spf_workloads.Rng.int rng (1 lsl 20) * 64)
         ~now:(k * 10_000) ~pc:7)
  done;
  Alcotest.(check int) "no hardware prefetches on random pattern" 0
    st.Stats.hw_prefetches

(* --- software-prefetch timeliness classification ---------------------- *)

(* A demand load that catches its software-prefetch fill still in flight
   paid part of the miss: the prefetch was LATE. *)
let test_late_prefetch_fill () =
  let t, st, _ = mk () in
  let c1 = access t ~kind:Memsys.Sw_prefetch ~pc:7 ~addr:0 ~now:0 in
  ignore (access t ~addr:8 ~now:(c1 / 2));
  Alcotest.(check int) "late fill counted" 1 st.Stats.late_pf_fills;
  Alcotest.(check int) "not unused" 0 st.Stats.unused_pf_fills;
  (* The mark is consumed: the next demand touch classifies nothing. *)
  ignore (access t ~addr:0 ~now:(c1 + 1));
  Alcotest.(check int) "counted exactly once" 1 st.Stats.late_pf_fills

(* A demand load that arrives after the fill completed got the full
   benefit: the prefetch was timely — neither late nor unused. *)
let test_timely_prefetch_fill () =
  let t, st, _ = mk () in
  let c1 = access t ~kind:Memsys.Sw_prefetch ~pc:7 ~addr:0 ~now:0 in
  ignore (access t ~addr:0 ~now:(c1 + 1));
  Alcotest.(check int) "not late" 0 st.Stats.late_pf_fills;
  Alcotest.(check int) "not unused" 0 st.Stats.unused_pf_fills;
  Alcotest.(check bool) "served from cache" true (Memsys.last_level t = Memsys.L1)

(* A prefetched line evicted from the last-level cache before any demand
   touch was wasted bandwidth: UNUSED.  The tiny machine has no L3 and a
   16-set 4-way L2, so five demand fills into the prefetched line's set
   push it out. *)
let test_unused_prefetch_fill () =
  let t, st, m = mk () in
  Alcotest.(check bool) "fixture assumes no L3" true (m.Machine.l3 = None);
  let c1 = access t ~kind:Memsys.Sw_prefetch ~pc:7 ~addr:0 ~now:0 in
  let set_stride =
    (* Addresses one whole L2 away land in the same set. *)
    m.Machine.l2.Machine.size
  in
  let now = ref (c1 + 1) in
  for k = 1 to 2 * m.Machine.l2.Machine.assoc do
    (* Distinct pcs so the stride engine never trains on this walk. *)
    now := access t ~pc:(100 + k) ~addr:(k * set_stride) ~now:!now + 1
  done;
  Alcotest.(check int) "unused fill counted" 1 st.Stats.unused_pf_fills;
  Alcotest.(check int) "not late" 0 st.Stats.late_pf_fills;
  (* Touching the line now re-misses without reclassifying anything. *)
  ignore (access t ~addr:0 ~now:!now);
  Alcotest.(check int) "counted exactly once" 1 st.Stats.unused_pf_fills

(* A prefetched line still resident and untouched at end of run is
   deliberately unclassified. *)
let test_resident_prefetch_unclassified () =
  let t, st, _ = mk () in
  ignore (access t ~kind:Memsys.Sw_prefetch ~pc:7 ~addr:0 ~now:0);
  Alcotest.(check int) "no late" 0 st.Stats.late_pf_fills;
  Alcotest.(check int) "no unused" 0 st.Stats.unused_pf_fills

(* The per-access path allocates nothing: no closure per cache or
   in-flight probe, no fill closure per L2/L3 hit, no [option] per
   eviction.  Measured end to end as minor-heap words per simulated
   instruction over whole runs of IS and CG, plain and through the pass
   (whose prefetches exercise the timeliness table), on both core
   models.  Footprints past L2 keep every level and the DRAM path busy;
   the allowance of one word covers per-block and per-run work, not a
   per-access allocation (which costs several words per instruction). *)
let test_no_allocation_per_access () =
  let module W = Spf_workloads in
  let is () =
    W.Is.build { W.Is.n_keys = 1 lsl 17; n_buckets = 1 lsl 20; seed = 1 }
  in
  let cg () =
    W.Cg.build { W.Cg.n_rows = 1 lsl 12; row_nnz = 16; n_cols = 1 lsl 17; seed = 1 }
  in
  let auto build () =
    let b = build () in
    ignore (Spf_core.Pass.run b.W.Workload.func);
    b
  in
  List.iter
    (fun machine ->
      List.iter
        (fun (name, build) ->
          let b : W.Workload.built = build () in
          let inst =
            Spf_sim.Interp.create ~machine ~mem:b.mem ~args:b.args b.func
          in
          let w0 = Gc.minor_words () in
          Spf_sim.Interp.run inst;
          let words = Gc.minor_words () -. w0 in
          let n = (Spf_sim.Interp.stats inst).Stats.instructions in
          Spf_sim.Interp.release inst;
          let label = Printf.sprintf "%s on %s" name machine.Machine.name in
          Alcotest.(check bool) (label ^ ": at least 1M instructions") true
            (n >= 1_000_000);
          let per_inst = words /. float_of_int n in
          if per_inst > 1.0 then
            Alcotest.failf "%s: %.2f minor words per instruction (limit 1)"
              label per_inst)
        [ ("IS", is); ("IS auto", auto is); ("CG", cg); ("CG auto", auto cg) ])
    [ Machine.haswell; Machine.a53 ]

let suite =
  [
    Alcotest.test_case "levels and latencies" `Quick test_levels;
    Alcotest.test_case "late prefetch fill" `Quick test_late_prefetch_fill;
    Alcotest.test_case "timely prefetch fill" `Quick test_timely_prefetch_fill;
    Alcotest.test_case "unused prefetch fill" `Quick test_unused_prefetch_fill;
    Alcotest.test_case "resident prefetch unclassified" `Quick
      test_resident_prefetch_unclassified;
    Alcotest.test_case "in-flight merge" `Quick test_inflight_merge;
    Alcotest.test_case "dram queueing" `Quick test_dram_queueing;
    Alcotest.test_case "demand vs prefetch pools" `Quick test_demand_vs_prefetch_pools;
    Alcotest.test_case "tlb walks" `Quick test_tlb_walks;
    Alcotest.test_case "walker serialisation" `Quick test_walker_serialisation;
    Alcotest.test_case "prefetch primes tlb" `Quick test_prefetch_primes_tlb;
    Alcotest.test_case "huge pages reduce walks" `Quick test_huge_pages_reduce_walks;
    Alcotest.test_case "stride prefetcher trains" `Quick test_stride_prefetcher_trains;
    Alcotest.test_case "stride prefetcher defeated by random" `Quick
      test_stride_prefetcher_defeated_by_random;
    Alcotest.test_case "no allocation per access" `Quick
      test_no_allocation_per_access;
  ]
