(* The per-core memory system: TLB (with a bounded pool of page-table
   walkers), L1/L2/optional-L3 caches, MSHR-limited line fills from a DRAM
   channel (shareable between cores), in-flight fill tracking, and a
   hardware stride prefetcher trained by demand loads.

   All times are in the core model's scaled cycles.  [access] returns the
   completion time of the request; [last_level] reports where it was
   satisfied so the core model can apply in-order / ROB-restart policies. *)

type kind = Demand | Write | Sw_prefetch | Hw_prefetch

type level = Attrib.level = L1 | L2 | L3 | Dram | Inflight | Dropped

type t = {
  tscale : int;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t option;
  tlb : Cache.t;
  walkers : int array; (* busy-until time per walker *)
  mshrs : int array; (* busy-until time per demand fill slot *)
  pf_mshrs : int array; (* busy-until time per prefetch fill slot *)
  inflight : Line_tbl.t; (* line -> fill completion *)
  pf_tbl : Line_tbl.t;
      (* line -> pc of the software prefetch whose DRAM fill brought it in,
         kept until the first demand touch (used) or an LLC eviction
         (unused) — the timeliness classification of §4.4.  Empty on runs
         without software prefetches, so the emptiness guard keeps plain
         runs free of any probe. *)
  dram : Dram.t;
  spf : Stride_pf.t option;
  stats : Stats.t;
  attrib : Attrib.t option; (* per-pc attribution sink, when profiling *)
  mutable last_pf_late : bool;
      (* did the most recent demand lookup catch a marked fill in flight? *)
  lat_l1 : int;
  lat_l2 : int;
  lat_l3 : int;
  walk_latency : int;
  mutable page_shift : int;
  mutable last_level : level;
}

let create (m : Machine.t) ~tscale ~dram ~stats ?attrib () =
  let mk (g : Machine.cache_geom) =
    Cache.create ~size:g.size ~assoc:g.assoc ~unit_shift:Machine.line_shift
  in
  {
    tscale;
    l1 = mk m.l1;
    l2 = mk m.l2;
    l3 = Option.map mk m.l3;
    tlb = Cache.create_entries ~entries:m.tlb_entries ~assoc:m.tlb_assoc;
    walkers = Array.make (max 1 m.walkers) 0;
    mshrs = Array.make (max 1 m.mshrs) 0;
    pf_mshrs = Array.make (max 1 m.pf_mshrs) 0;
    inflight = Line_tbl.create ();
    pf_tbl = Line_tbl.create ();
    dram;
    spf = Option.map Stride_pf.create m.stride_pf;
    stats;
    attrib;
    last_pf_late = false;
    lat_l1 = m.lat_l1 * tscale;
    lat_l2 = m.lat_l2 * tscale;
    lat_l3 = m.lat_l3 * tscale;
    walk_latency = m.walk_latency * tscale;
    page_shift = m.page_shift;
    last_level = L1;
  }

let release t =
  Cache.release t.l1;
  Cache.release t.l2;
  Option.iter Cache.release t.l3;
  Cache.release t.tlb

let last_level t = t.last_level
let stats t = t.stats

let imax (a : int) (b : int) = if a < b then b else a

(* Index of the earliest-free slot in a busy-until array.  Runs on every
   miss (twice on the DRAM path), scanning a <= 24-entry array: keep the
   comparison value in a local and the accesses unchecked. *)
let min_slot (slots : int array) =
  let best = ref 0 in
  let best_v = ref (Array.unsafe_get slots 0) in
  for k = 1 to Array.length slots - 1 do
    let v = Array.unsafe_get slots k in
    if v < !best_v then begin
      best := k;
      best_v := v
    end
  done;
  !best

(* Translate [addr] at time [now]; returns when the translation is
   available.  Misses consume a page-table walker and fill the TLB —
   including for prefetches, which is the TLB-priming side effect the
   paper's Fig 10 discusses. *)
let translate t ~addr ~now =
  let page = addr lsr t.page_shift in
  if Cache.access t.tlb page then now
  else begin
    t.stats.tlb_misses <- t.stats.tlb_misses + 1;
    t.stats.page_walks <- t.stats.page_walks + 1;
    let k = min_slot t.walkers in
    let start = imax now t.walkers.(k) in
    t.walkers.(k) <- start + t.walk_latency;
    ignore (Cache.insert_absent t.tlb page);
    start + t.walk_latency
  end

(* Every L1 miss occupies a fill buffer (MSHR) until its data arrives,
   whatever level supplies it — this is what bounds a core's memory-level
   parallelism.  Demand misses use the L1's fill buffers; prefetches drain
   through the (typically deeper) L2 queue, which is precisely the
   asymmetry that lets software prefetching raise a core's sustained miss
   throughput. *)
let mshrs_for t kind =
  match kind with
  | Demand | Write -> t.mshrs
  | Sw_prefetch | Hw_prefetch -> t.pf_mshrs

(* An L2 or L3 hit of [latency]: the fill holds the earliest-free slot
   from when it frees up until the data arrives. *)
let with_mshr t ~kind ~now ~latency =
  let slots = mshrs_for t kind in
  let k = min_slot slots in
  let completion = imax now (Array.unsafe_get slots k) + latency in
  Array.unsafe_set slots k completion;
  completion

(* The cache/DRAM lookup path, shared by demand and prefetch requests.
   The in-flight probe is guarded by an O(1) emptiness check: phases that
   hit in cache never populate the table, so their L1 hits skip the hash
   probe entirely and the walk is a single [Cache.access]. *)
(* A line evicted from the last-level cache while still carrying its
   software-prefetch mark was never demand-touched: the prefetch fill was
   wasted (issued too early for the reuse, or useless).  Lines still marked
   and resident at end of run are deliberately unclassified — they were
   neither used nor pushed out. *)
let note_llc_victim t victim =
  if victim >= 0 && Line_tbl.length t.pf_tbl > 0 then begin
    let p = Line_tbl.find t.pf_tbl victim in
    if p >= 0 then begin
      Line_tbl.remove t.pf_tbl victim;
      t.stats.unused_pf_fills <- t.stats.unused_pf_fills + 1;
      match t.attrib with
      | Some at -> Attrib.on_unused at ~pf_pc:p
      | None -> ()
    end
  end

let lookup t ~kind ~pc ~line ~now =
  if kind = Demand then t.last_pf_late <- false;
  let fill =
    if Line_tbl.length t.inflight = 0 then -1 else Line_tbl.find t.inflight line
  in
  if fill > now then begin
    if kind = Demand then begin
      t.stats.inflight_hits <- t.stats.inflight_hits + 1;
      (* Catching a software-prefetch fill in flight means the prefetch
         helped but came too late to hide the whole miss. *)
      if Line_tbl.length t.pf_tbl > 0 then begin
        let p = Line_tbl.find t.pf_tbl line in
        if p >= 0 then begin
          Line_tbl.remove t.pf_tbl line;
          t.stats.late_pf_fills <- t.stats.late_pf_fills + 1;
          t.last_pf_late <- true
        end
      end
    end;
    t.last_level <- Inflight;
    fill
  end
  else begin
      if fill >= 0 then Line_tbl.remove t.inflight line;
      (* First demand touch of a timely software-prefetched line: used. *)
      if
        kind = Demand
        && Line_tbl.length t.pf_tbl > 0
        && Line_tbl.find t.pf_tbl line >= 0
      then Line_tbl.remove t.pf_tbl line;
      if Cache.access t.l1 line then begin
        t.last_level <- L1;
        t.stats.l1_hits <- t.stats.l1_hits + 1;
        now + t.lat_l1
      end
      else if Cache.access t.l2 line then begin
        t.last_level <- L2;
        t.stats.l2_hits <- t.stats.l2_hits + 1;
        ignore (Cache.insert_absent t.l1 line);
        with_mshr t ~kind ~now ~latency:t.lat_l2
      end
      else
        match t.l3 with
        | Some l3 when Cache.access l3 line ->
            t.last_level <- L3;
            t.stats.l3_hits <- t.stats.l3_hits + 1;
            ignore (Cache.insert_absent t.l2 line);
            ignore (Cache.insert_absent t.l1 line);
            with_mshr t ~kind ~now ~latency:t.lat_l3
        | _ -> (
            (* Prefetches that would queue behind a saturated channel are
               dropped rather than crowd out demand traffic, as real memory
               controllers do — this keeps software prefetching from
               degrading bandwidth-saturated multicore runs (Fig 9).  The
               check runs after MSHR pacing so ordinary bursts, which the
               fill buffers spread out, are not dropped. *)
            let is_prefetch =
              match kind with
              | Sw_prefetch | Hw_prefetch -> true
              | Demand | Write -> false
            in
            let slots = mshrs_for t kind in
            let k = min_slot slots in
            let start = imax now slots.(k) in
            if
              is_prefetch
              && Dram.backlog t.dram ~now:start > 3 * Dram.latency t.dram
            then begin
              (* dropped: no fill started, no slot held *)
              t.last_level <- Dropped;
              now
            end
            else begin
              t.last_level <- Dram;
              t.stats.dram_fills <- t.stats.dram_fills + 1;
              let completion = Dram.request t.dram ~now:start in
              slots.(k) <- completion;
              let into_l1 =
                match kind with
                | Hw_prefetch -> (
                    match t.spf with
                    | Some p -> Stride_pf.insert_to_l1 p
                    | None -> false)
                | Demand | Write | Sw_prefetch -> true
              in
              (* The insert into the last level is where capacity victims
                 fall out of the hierarchy for good — classify marked ones
                 as unused prefetch fills. *)
              (match t.l3 with
              | Some l3 ->
                  note_llc_victim t (Cache.insert_absent l3 line);
                  ignore (Cache.insert_absent t.l2 line)
              | None -> note_llc_victim t (Cache.insert_absent t.l2 line));
              if into_l1 then ignore (Cache.insert_absent t.l1 line);
              Line_tbl.replace t.inflight line completion;
              if kind = Sw_prefetch then Line_tbl.replace t.pf_tbl line pc;
              completion
            end)
  end

(* Purge in-flight records whose fill completed at or before [low_water].
   [lookup] only removes a stale record when its exact line is touched
   again; lines that fill and are never re-accessed would otherwise
   accumulate for the whole run (hundreds of thousands on a G500 sweep),
   degrading every probe of the table into a host cache miss.  Any
   monotone lower bound on all future access times makes the sweep
   observationally free — a record with [fill <= now] already behaves as
   absent ([fill > now] fails, and the emptiness fast path short-circuits
   the same way a probe miss resolves.  The threshold keeps the sweep
   amortized: genuinely in-flight lines number at most a few hundred
   (bounded by fill latency x issue rate), so a table past the threshold
   is mostly corpses. *)
let prune_inflight t ~low_water =
  if Line_tbl.length t.inflight >= 1024 then
    Line_tbl.sweep t.inflight ~bound:low_water

(* Report one access to the attribution sink under its own pc: demand
   loads, stores and software prefetches.  A hardware prefetch belongs to
   the stride engine, not to any instruction. *)
let attribute t at ~kind ~pc ~now ~completion =
  match kind with
  | Demand ->
      Attrib.on_access at ~pc ~level:t.last_level ~late:t.last_pf_late
        ~stall:(imax 0 (completion - now - t.lat_l1))
  | Write | Sw_prefetch ->
      Attrib.on_access at ~pc ~level:t.last_level ~late:false ~stall:0
  | Hw_prefetch -> ()

let access t ~kind ~pc ~addr ~now =
  let ready = translate t ~addr ~now in
  let line = addr lsr Machine.line_shift in
  let completion = lookup t ~kind ~pc ~line ~now:ready in
  (match t.attrib with
  | Some at -> attribute t at ~kind ~pc ~now ~completion
  | None -> ());
  (match kind with
  | Demand -> (
      t.stats.loads <- t.stats.loads + 1;
      match t.spf with
      | Some p ->
          let pf_addr = Stride_pf.train p ~pc ~addr in
          if pf_addr >= 0 then begin
            t.stats.hw_prefetches <- t.stats.hw_prefetches + 1;
            let level = t.last_level in
            let pf_ready = translate t ~addr:pf_addr ~now:ready in
            ignore
              (lookup t ~kind:Hw_prefetch ~pc
                 ~line:(pf_addr lsr Machine.line_shift)
                 ~now:pf_ready);
            t.last_level <- level
          end
      | None -> ())
  | Write -> t.stats.stores <- t.stats.stores + 1
  | Sw_prefetch -> t.stats.sw_prefetches <- t.stats.sw_prefetches + 1
  | Hw_prefetch -> t.stats.hw_prefetches <- t.stats.hw_prefetches + 1);
  completion

let set_page_shift t shift =
  t.page_shift <- shift;
  Cache.clear t.tlb
