(** Reproduction of every table and figure in the paper's evaluation
    (§5–§6).  Each function runs the relevant simulations — every run is
    checksum-validated — and prints the series the paper plots, alongside
    approximate values read off the paper's charts.  EXPERIMENTS.md holds
    the paper-vs-measured narrative; DESIGN.md §3 the experiment index.

    Every figure runs its independent cells as one campaign of keyed
    {!Supervisor} jobs ("<fig>/<index>") under [sup] (default
    [Supervisor.options ()]), which carries the pool width, the engine,
    and optionally a deadline, retries, a checkpoint journal and a crash
    bundle root (docs/ROBUSTNESS.md).  Results are collected in
    submission order and printed serially, so the output is
    byte-identical for every [jobs] value, including on resume.  A cell
    that fails permanently makes the figure raise
    {!Supervisor.Campaign_failed} once every other cell has finished. *)

val table1 : unit -> unit
(** System setup for each processor evaluated (no simulations). *)

val fig2 : ?sup:Supervisor.options -> unit -> unit
(** Manual prefetch schemes for IS on Haswell: intuitive / offset too
    small / offset too big / optimal. *)

val fig4 :
  ?sup:Supervisor.options ->
  ?provider:Spf_core.Distance.provider ->
  unit ->
  unit
(** Autogenerated vs manual speedups on all four machines (ICC-generated
    added on Xeon Phi), with per-machine geomeans.  [provider] selects
    the distance provider for the auto cells (default eq. 1 static). *)

val fig5 :
  ?sup:Supervisor.options ->
  ?provider:Spf_core.Distance.provider ->
  unit ->
  unit
(** Indirect-only vs indirect+stride prefetches (Haswell). *)

val fig6 : ?sup:Supervisor.options -> unit -> unit
(** Speedup vs look-ahead distance c for IS/CG/RA/HJ-2 on all machines. *)

val fig7 : ?sup:Supervisor.options -> unit -> unit
(** Prefetching progressively more dependent loads (HJ-8). *)

val fig8 : ?sup:Supervisor.options -> unit -> unit
(** Percentage increase in dynamic instructions (Haswell, best scheme). *)

val fig9 : ?sup:Supervisor.options -> unit -> unit
(** IS multicore throughput with a shared DRAM channel. *)

val fig10 :
  ?sup:Supervisor.options ->
  ?provider:Spf_core.Distance.provider ->
  unit ->
  unit
(** Huge-page impact on IS/RA/HJ-2 (Haswell). *)

val distance_sweep : ?sup:Supervisor.options -> unit -> unit
(** The distance-provider acceptance figure, on Haswell and A53: a
    look-ahead × workload heatmap of auto-pass speedups over
    {!Profile_guided.candidates}, the per-workload profile pick (ties
    toward eq. 1's c = 64), the adaptive provider's speedup, and the
    geomeans of the static equation, the picks and the adaptive runs. *)

val distance_smoke : ?sup:Supervisor.options -> unit -> unit
(** 4-cell {!distance_sweep} (IS and HJ-2 at c = 64 and 16 on Haswell) —
    the tier-1 [@distance-smoke] figure. *)

val ablation_flat_offsets : ?sup:Supervisor.options -> unit -> unit
(** DESIGN.md §5 ablation: eq. 1 staggering vs flat offsets on HJ-8. *)

val ablation_split : ?sup:Supervisor.options -> unit -> unit
(** Clamped prefetches vs {!Spf_core.Split}'s peeled clamp-free main loop
    (ICC's hoisted checks, §6.1), on IS across all machines. *)

val replay_cell :
  figure:string -> index:int -> ?engine:Spf_sim.Engine.t -> unit -> int
(** Re-run one figure cell offline (the reproduction path behind
    [spf replay] for "fig <figure>/<index>" crash bundles) and return its
    simulated cycles.  Uses each figure's default parameters.
    @raise Failure for an unknown figure or out-of-range index, and
    whatever the cell itself raises when the crash reproduces. *)
