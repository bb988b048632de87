module Machine = Spf_sim.Machine
module Attrib = Spf_sim.Attrib
module Tuner = Spf_sim.Tuner
module Workload = Spf_workloads.Workload
module Config = Spf_core.Config
module Distance = Spf_core.Distance
module Pass = Spf_core.Pass
module Profdata = Spf_core.Profdata

(* Profile-guided and adaptive distance selection, end to end:

   - [profile] measures a benchmark — a per-loop attribution run of the
     plain program plus a look-ahead sweep of the transformed one — and
     returns a signed {!Profdata.t} ready to save;
   - [build_auto] applies the pass under any provider and, for the
     adaptive one, constructs the windowed tuner bound to the distance
     registers the pass materialised.

   [spf fig distance-sweep] compares the providers: static vs profile
   vs adaptive on Haswell and A53.

   The candidate order below doubles as the tie-break preference: the
   sweep picks the candidate with the fewest simulated cycles and resolves
   ties toward the front of the list — whose head is the paper's c = 64 —
   so a profile-guided run can never lose to eq. 1 on the workload it was
   measured on, and is strictly better wherever any candidate wins. *)

let candidates = [ 64; 32; 128; 16; 256 ]

(* Eq. 1's constant term from the cost model, used to seed the adaptive
   tuner: the look-ahead must cover the latency of a line fill, counted
   in iterations of the loop that consumes it —

     c0 = dram latency / steady-state iteration time.

   The iteration time estimate has two terms: the core's issue cost for
   the loop body (instructions / width, scaled by inst_cost), and the
   DRAM channel occupancy one fresh line per iteration pays once
   prefetching works — indirect kernels are bandwidth-bound in steady
   state, which is why a fixed default overshoots on low-bandwidth
   in-order parts (A53's occupancy-14 channel wants c~16 on RA, not 64:
   distances past that just evict lines before use).  The result goes
   through {!Spf_core.Schedule.distance}, the same clamp every emitted
   schedule passes through, so a degenerate model can never produce a
   non-positive or overflowing seed. *)
let eq1_seed ~(machine : Machine.t) (func : Spf_ir.Ir.func) ~header =
  let cfg = Spf_ir.Cfg.build func in
  let dom = Spf_ir.Dom.build cfg in
  let loops = Spf_ir.Loops.analyze func cfg dom in
  let body_insts =
    match
      Array.to_list (Spf_ir.Loops.loops loops)
      |> List.find_opt (fun (l : Spf_ir.Loops.loop) -> l.header = header)
    with
    | None -> 0
    | Some l ->
        let n = ref 0 in
        Array.iteri
          (fun bid inside ->
            if inside then
              Array.iter
                (fun id ->
                  match (Spf_ir.Ir.instr func id).Spf_ir.Ir.kind with
                  | Spf_ir.Ir.Phi _ -> ()
                  | _ -> incr n)
                (Spf_ir.Ir.block func bid).Spf_ir.Ir.instrs)
          l.member;
        !n
  in
  let issue =
    (body_insts * machine.Machine.inst_cost + machine.Machine.width - 1)
    / machine.Machine.width
  in
  let iter_cycles = max 1 (issue + machine.Machine.dram.Machine.occupancy) in
  Spf_core.Schedule.distance
    ~c:(machine.Machine.dram.Machine.latency / iter_cycles)
    ~t:1 ~l:0

(* Build the adaptive tuner for a transformed function from the pass
   report: one register per prefetched loop, windowed per the provider's
   parameters.  [None] for non-adaptive reports (no registers).  With
   [machine], each register starts at the eq. 1 cost-model seed for its
   loop instead of the provider's fixed default — the controller then
   fine-tunes from a model-informed point rather than hill-climbing away
   from c = 64 on machines it does not suit. *)
let tuner_of_distances ?machine (func : Spf_ir.Ir.func) ~adaptive
    loop_distances =
  match adaptive with
  | None -> None
  | Some p ->
      let seeded ld =
        match machine with
        | Some m ->
            let s = eq1_seed ~machine:m func ~header:ld.Pass.header in
            (* The model fixes the scale; the controller fine-tunes within
               a 4x band around it.  Unbanded, a bandwidth-bound loop whose
               miss share never improves with distance climbs to max_c and
               evicts its own prefetches (RA on A53: 0.97x vs 2.1x). *)
            (s, Some (max 1 (s / 4), s * 4))
        | None -> (ld.Pass.distance, None)
      in
      let regs =
        List.filter_map
          (fun (ld : Pass.loop_distance) ->
            match ld.Pass.dist_slot with
            | Some slot ->
                let init, band = seeded ld in
                Some (Tuner.spec ?band ~slot ~header:ld.Pass.header ~init ())
            | None -> None)
          loop_distances
      in
      if regs = [] then None
      else
        let attrib = Attrib.create func in
        Some
          (Tuner.create ~attrib ~window:p.Distance.window
             ~min_c:p.Distance.min_c ~max_c:p.Distance.max_c regs)

let tuner_of_report ?machine (func : Spf_ir.Ir.func) (report : Pass.report) =
  tuner_of_distances ?machine func ~adaptive:report.Pass.adaptive
    report.Pass.loop_distances

(* Apply the pass to a fresh plain build under [config]; returns the built
   workload, the report, and the tuner when the provider is adaptive. *)
let build_auto ?(config = Config.default) ?machine (bench : Benches.bench) =
  let b = bench.Benches.plain () in
  let b, report = Benches.auto_with_report ~config b in
  (b, report, tuner_of_report ?machine b.Workload.func report)

let run_auto ?(ctx = Runner.null_ctx) ?(config = Config.default) ~machine
    (bench : Benches.bench) =
  let b, _report, tuner = build_auto ~config ~machine bench in
  Runner.run_ctx ctx ?tuner ~machine b

(* One sweep point: the run of the pass-transformed benchmark at a fixed
   global look-ahead constant. *)
let measure ?(ctx = Runner.null_ctx) ~machine (bench : Benches.bench) ~c =
  let config = Config.with_c c Config.default in
  Runner.run_ctx ctx ~machine (Benches.auto ~config (bench.Benches.plain ()))

(* Sweep the candidates and pick the winner; ties resolve toward the
   front of [cs] (c = 64 first by default). *)
let choose ?(ctx = Runner.null_ctx) ?(cs = candidates) ~machine bench =
  let sweep =
    List.map (fun c -> (c, Runner.cycles (measure ~ctx ~machine bench ~c))) cs
  in
  let best_c, _ =
    List.fold_left
      (fun (bc, bcy) (c, cy) -> if cy < bcy then (c, cy) else (bc, bcy))
      (match sweep with
      | first :: _ -> first
      | [] -> invalid_arg "Profile_guided.choose: empty candidate list")
      sweep
  in
  (best_c, sweep)

(* Measure a benchmark into a signed profile: attribution run of the plain
   program for the per-loop evidence, candidate sweep for the distance. *)
let profile ?(ctx = Runner.null_ctx) ?(cs = candidates) ~machine
    (bench : Benches.bench) =
  let plain = bench.Benches.plain () in
  let attrib = Attrib.create plain.Workload.func in
  ignore (Runner.run_ctx ctx ~attrib ~machine plain);
  let best_c, sweep = choose ~ctx ~cs ~machine bench in
  (* The prefetched loops, from a throwaway pass application at the chosen
     distance (the pass mutates in place, so use yet another fresh build). *)
  let _, report =
    Benches.auto_with_report
      ~config:(Config.with_c best_c Config.default)
      (bench.Benches.plain ())
  in
  let loops =
    List.filter_map
      (fun (ld : Pass.loop_distance) ->
        if not ld.Pass.enabled then None
        else
          let l = Attrib.loop attrib ~header:ld.Pass.header in
          Some
            {
              Profdata.header = ld.Pass.header;
              c = best_c;
              enabled = true;
              accesses = l.Attrib.demand;
              misses = l.Attrib.miss;
            })
      report.Pass.loop_distances
  in
  let pd =
    Profdata.make ~func:plain.Workload.func ~machine:machine.Machine.name
      ~default_c:Config.default.Config.c ~loops
  in
  (pd, sweep)
