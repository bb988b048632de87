(** Reproduction of every table and figure in the paper's evaluation
    (§5–§6), as one ordered table walked by [spf fig] ({!run}) and
    [spf replay] ({!cell}).  EXPERIMENTS.md holds the paper-vs-measured
    narrative; DESIGN.md §3 the experiment index.

    A figure is a name (its CLI name, and the prefix of its job keys and
    crash bundles: ["ablation/3"]), a title, its cells as a function of
    the distance provider, and a printer.  A cell makes the figure's
    simulated runs — every one checksum-validated — and returns them; the
    printer derives the series the paper plots from those runs, alongside
    approximate values read off the paper's charts.  Figures that apply
    the automatic pass (fig4, fig5, fig10) run it under the provider;
    the others ignore it. *)

type figure

val table : figure list
(** Every figure, in [spf fig all]'s order: table1, fig2, fig4–fig10,
    ablation (eq. 1 staggering vs flat offsets on HJ-8, DESIGN.md §5),
    ablation-split (clamped prefetches vs {!Spf_core.Split}'s peeled
    main loop, §6.1), distance-sweep (the distance-provider acceptance
    figure: a look-ahead × workload heatmap on Haswell and A53, the
    per-workload profile pick, the adaptive provider's speedup, and the
    three geomeans) and distance-smoke (its 4-cell tier-1 version). *)

val name : figure -> string

val run :
  ?out:Format.formatter ->
  Supervisor.options ->
  provider:Spf_core.Distance.provider ->
  figure ->
  Runner.result list list
(** Print the figure's title, run its cells as one campaign of keyed
    {!Supervisor} jobs ("<name>/<index>"), print the figure to [out]
    (default stdout) and return each cell's runs, in cell order.  The
    options carry the pool width, the engine, and optionally a deadline,
    retries, a checkpoint journal and a crash bundle root
    (docs/ROBUSTNESS.md); a cell's bundle records the figure, the index
    and [Distance.kind provider].  Results come back in submission order,
    so the output is byte-identical for every [jobs] value, including on
    resume.
    @raise Supervisor.Campaign_failed once every other cell has finished,
    if a cell failed permanently. *)

val cell :
  figure:string ->
  index:int ->
  provider:Spf_core.Distance.provider ->
  (Runner.ctx -> Runner.result list, string) result
(** Cell [index] of the named figure under [provider], to re-run offline
    ([spf replay] of a "fig-cell" crash bundle); nothing runs until it is
    applied.  [Error] names an unknown figure or an out-of-range
    index. *)
