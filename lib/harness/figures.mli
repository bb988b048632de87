(** Reproduction of every table and figure in the paper's evaluation
    (§5–§6).  Each function runs the relevant simulations — every run is
    checksum-validated — and prints the series the paper plots, alongside
    approximate values read off the paper's charts.  EXPERIMENTS.md holds
    the paper-vs-measured narrative; DESIGN.md §3 the experiment index.

    Every figure fans its independent cells out over {!Pool} with [jobs]
    domains (default {!Pool.default_jobs}); results are collected in
    submission order and printed serially, so the output is
    byte-identical for every [jobs] value.  Passing [sup] instead runs
    the cells as keyed {!Supervisor} jobs ("<fig>/<index>") under the
    full supervision pipeline — deadlines, retry, engine fallback,
    checkpoint/resume and crash bundles (docs/ROBUSTNESS.md) — with
    byte-identical stdout, including on resume. *)

exception Campaign_failed of int
(** Raised by a supervised figure when cells failed permanently; carries
    the failure count.  Failed cells have already been reported to
    stderr (and bundled, when the supervisor has a bundle root), and
    every other cell has completed and been checkpointed. *)

val table1 : unit -> unit
(** System setup for each processor evaluated (no simulations). *)

val fig2 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** Manual prefetch schemes for IS on Haswell: intuitive / offset too
    small / offset too big / optimal. *)

val fig4 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  ?provider:Spf_core.Distance.provider ->
  unit ->
  unit
(** Autogenerated vs manual speedups on all four machines (ICC-generated
    added on Xeon Phi), with per-machine geomeans.  [provider] selects
    the distance provider for the auto cells (default eq. 1 static). *)

val fig5 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  ?provider:Spf_core.Distance.provider ->
  unit ->
  unit
(** Indirect-only vs indirect+stride prefetches (Haswell). *)

val fig6 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** Speedup vs look-ahead distance c for IS/CG/RA/HJ-2 on all machines. *)

val fig7 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** Prefetching progressively more dependent loads (HJ-8). *)

val fig8 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** Percentage increase in dynamic instructions (Haswell, best scheme). *)

val fig9 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** IS multicore throughput with a shared DRAM channel. *)

val fig10 :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  ?provider:Spf_core.Distance.provider ->
  unit ->
  unit
(** Huge-page impact on IS/RA/HJ-2 (Haswell). *)

val distance_sweep :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** The distance-provider acceptance figure, on Haswell and A53: a
    look-ahead × workload heatmap of auto-pass speedups over
    {!Profile_guided.candidates}, the per-workload profile pick (ties
    toward eq. 1's c = 64), the adaptive provider's speedup, and the
    geomeans of the static equation, the picks and the adaptive runs. *)

val distance_smoke :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** 4-cell {!distance_sweep} (IS and HJ-2 at c = 64 and 16 on Haswell) —
    the tier-1 [@distance-smoke] figure. *)

val ablation_flat_offsets :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** DESIGN.md §5 ablation: eq. 1 staggering vs flat offsets on HJ-8. *)

val ablation_split :
  ?sup:Supervisor.options ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  unit ->
  unit
(** Clamped prefetches vs {!Spf_core.Split}'s peeled clamp-free main loop
    (ICC's hoisted checks, §6.1), on IS across all machines. *)

val replay_cell :
  figure:string -> index:int -> ?engine:Spf_sim.Engine.t -> unit -> int
(** Re-run one figure cell offline (the reproduction path behind
    [spf replay] for "fig <figure>/<index>" crash bundles) and return its
    simulated cycles.  Uses each figure's default parameters.
    @raise Failure for an unknown figure or out-of-range index, and
    whatever the cell itself raises when the crash reproduces. *)
