(** Profile-guided and adaptive look-ahead selection: measure a benchmark
    into a signed {!Spf_core.Profdata.t}, and apply the pass under any
    {!Spf_core.Distance.provider} (constructing the adaptive tuner when
    needed).  [spf fig distance-sweep] compares the providers. *)

val candidates : int list
(** The look-ahead sweep, in tie-break preference order — head is the
    paper's c = 64, so a profile can never lose to eq. 1 on the workload
    it was measured on. *)

val eq1_seed :
  machine:Spf_sim.Machine.t -> Spf_ir.Ir.func -> header:int -> int
(** Eq. 1 cost-model starting distance for the loop at [header]:
    DRAM fill latency over the steady-state iteration time (issue cost of
    the non-phi loop body plus per-line channel occupancy), clamped
    through {!Spf_core.Schedule.distance}. *)

val tuner_of_distances :
  ?machine:Spf_sim.Machine.t ->
  Spf_ir.Ir.func ->
  adaptive:Spf_core.Distance.adaptive_params option ->
  Spf_core.Pass.loop_distance list ->
  Spf_sim.Tuner.t option
(** {!tuner_of_report} from its parts — what the serving cache stores
    (the pass entry keeps the provider decisions, not the whole
    report). *)

val tuner_of_report :
  ?machine:Spf_sim.Machine.t ->
  Spf_ir.Ir.func ->
  Spf_core.Pass.report ->
  Spf_sim.Tuner.t option
(** Build the windowed tuner bound to the distance registers an adaptive
    pass application materialised; [None] for non-adaptive reports.  With
    [machine], registers start from {!eq1_seed} rather than the
    provider's fixed default, so the controller fine-tunes a
    model-informed distance instead of hill-climbing away from c = 64. *)

val build_auto :
  ?config:Spf_core.Config.t ->
  ?machine:Spf_sim.Machine.t ->
  Benches.bench ->
  Spf_workloads.Workload.built * Spf_core.Pass.report * Spf_sim.Tuner.t option
(** Fresh plain build, pass applied under [config], tuner when adaptive
    (seeded from the cost model when [machine] is given). *)

val run_auto :
  ?ctx:Runner.ctx ->
  ?config:Spf_core.Config.t ->
  machine:Spf_sim.Machine.t ->
  Benches.bench ->
  Runner.result
(** {!build_auto} then run (with the tuner attached when adaptive). *)

val measure :
  ?ctx:Runner.ctx ->
  machine:Spf_sim.Machine.t ->
  Benches.bench ->
  c:int ->
  Runner.result
(** The run of the pass-transformed benchmark at global look-ahead
    [c]. *)

val choose :
  ?ctx:Runner.ctx ->
  ?cs:int list ->
  machine:Spf_sim.Machine.t ->
  Benches.bench ->
  int * (int * int) list
(** Sweep the candidates; return the winner (ties toward the front of
    [cs]) and the full [(c, cycles)] sweep. *)

val profile :
  ?ctx:Runner.ctx ->
  ?cs:int list ->
  machine:Spf_sim.Machine.t ->
  Benches.bench ->
  Spf_core.Profdata.t * (int * int) list
(** Measure: attribution run of the plain program (per-loop evidence) plus
    the candidate sweep.  Returns the signed profile and the sweep. *)
