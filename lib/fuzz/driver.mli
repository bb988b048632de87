(** Differential-fuzzing campaign driver: one {!Spf_harness.Supervisor}
    campaign of generated cases.  See docs/ROBUSTNESS.md. *)

type failure = {
  case : int;
  spec : Gen.spec;
  shrunk : Gen.spec option;
  divergence : Oracle.divergence_kind;
}

type summary = {
  seed : int;
  count : int;
  runs : int;
  transformed : int;
  rejected_only : int;
  discarded : int;
  dropped_prefetches : int;
  sw_prefetches : int;
  introduced_faults : int;
  undecided : int;
      (** symbolic-oracle give-ups: neither proved nor refuted.  Counted
          (and a give-up rate printed by {!pp_summary}), but not a
          failure — {!ok} ignores them. *)
  failures : failure list;
}

val pp_summary : Format.formatter -> summary -> unit
val ok : summary -> bool

type injected_fault =
  | Hang  (** an infinite IR loop run with the job's cancellation token *)
  | Crash  (** a deterministic exception from inside the job *)

val run :
  ?config:Spf_core.Config.t ->
  ?oracle:Oracle.mode ->
  ?shrink:bool ->
  ?seed:int ->
  ?sup:Spf_harness.Supervisor.options ->
  ?inject:int * injected_fault ->
  count:int ->
  unit ->
  summary
(** Run [count] generated cases from [seed] (default 0) through the
    oracle; failures are shrunk to minimal reproducers when [shrink] —
    under the {e same} oracle mode the campaign runs, so a symbolic
    counterexample shrinks under the symbolic oracle.  [oracle] defaults
    to the concrete oracle on [sup]'s engine.

    Cases run as keyed {!Spf_harness.Supervisor} jobs ("case/<n>") under
    [sup] (default [Supervisor.options ()]): its pool width, engine,
    deadline, retries, journal (checkpoint/resume) and bundle root
    (crash bundles; divergences write replayable bundles there too) all
    apply (docs/ROBUSTNESS.md).  Each case draws from its own
    {!Spf_workloads.Rng.split} stream, so the summary — counters and the
    ordered failure list alike — is identical for every [jobs] value.
    [inject] makes case [n] fail for the resilience tests.
    @raise Spf_harness.Supervisor.Campaign_failed when cases failed
    permanently. *)
