(** Run one built workload instance on one machine model.  Every run
    verifies the IR first and validates the result checksum afterwards, so
    every number the harness reports comes from a semantically-checked
    execution. *)

type result = {
  stats : Spf_sim.Stats.t;
  machine : string;
  bench : string;
}

type ctx = {
  engine : Spf_sim.Engine.t option;
  cancel : Spf_sim.Exec_state.cancel option;
}
(** Per-job execution context, threaded through every supervised figure
    cell: the engine override a supervisor may degrade, and the
    cancellation token carrying the attempt's deadline. *)

val null_ctx : ctx
val ctx_of_engine : Spf_sim.Engine.t option -> ctx

val run :
  ?fuel:int ->
  ?engine:Spf_sim.Engine.t ->
  ?cancel:Spf_sim.Exec_state.cancel ->
  ?attrib:Spf_sim.Attrib.t ->
  ?tuner:Spf_sim.Tuner.t ->
  machine:Spf_sim.Machine.t ->
  Spf_workloads.Workload.built ->
  result
(** @raise Failure on verifier violations or checksum mismatch.
    [engine] selects the simulator engine (default {!Spf_sim.Engine.default}).
    [attrib] counts memory behaviour per pc (profiling); [tuner]
    drives the adaptive distance registers — with both, [attrib] must be
    [Tuner.attrib tuner] (@raise Invalid_argument otherwise).
    @raise Spf_sim.Exec_state.Cancelled once [cancel] expires. *)

val run_ctx :
  ctx ->
  ?fuel:int ->
  ?attrib:Spf_sim.Attrib.t ->
  ?tuner:Spf_sim.Tuner.t ->
  machine:Spf_sim.Machine.t ->
  Spf_workloads.Workload.built ->
  result
(** {!run} with the engine/cancel pair of a job context. *)

val cycles : result -> int
val speedup : baseline:result -> result -> float
val extra_instructions : baseline:result -> result -> float
(** Percentage increase in dynamic instructions (Fig 8's metric). *)
