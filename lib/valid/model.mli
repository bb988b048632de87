(** Concrete confirmation of candidate counterexamples.

    The symbolic checker never reports a refutation on its own
    authority: a failed proof step only becomes a counterexample once
    the concrete interpreter observes the two programs diverge.  The
    portfolio compares on the environment as given, then binary-searches
    the smallest mapping break at which the original still completes and
    re-compares there — which is where §4.2 clamp failures (introduced
    faults) surface. *)

type outcome =
  | Returned of { retval : int option; digest : string }
  | Trapped of { pc : int; addr : int; is_store : bool }
  | Out_of_fuel

val outcome_to_string : outcome -> string

type env = { fresh : unit -> Spf_sim.Memory.t * int array; fuel : int }
(** A reproducible concrete environment: every call to [fresh] must
    return an identical, unshared memory image and argument vector. *)

type cex = {
  brk : int;  (** break at which the divergence was confirmed *)
  original : outcome;
  transformed : outcome;
  introduced_fault : bool;
      (** the transformed run trapped at a pass-inserted instruction *)
}

val execute :
  ?engine:Spf_sim.Engine.t ->
  ?cancel:Spf_sim.Exec_state.cancel ->
  fuel:int ->
  mem:Spf_sim.Memory.t ->
  args:int array ->
  Spf_ir.Ir.func ->
  outcome * Spf_sim.Stats.t
(** Run [func] on the Haswell model to an outcome, with a fixed
    deterministic meaning for every intrinsic it calls; returns the run's
    counters too.  The one run-and-classify step of every concrete
    comparison, here and in the fuzz oracle. *)

val run_one :
  ?cancel:Spf_sim.Exec_state.cancel ->
  env:env ->
  brk:int ->
  Spf_ir.Ir.func ->
  outcome
(** One run under [env] with the mapping truncated to [brk]. *)

val min_completing_brk :
  ?cancel:Spf_sim.Exec_state.cancel ->
  env:env ->
  Spf_ir.Ir.func ->
  full:int ->
  int option
(** Smallest break at which the function still completes (completion is
    monotone in the break); [None] if it does not complete at [full]. *)

val confirm :
  ?cancel:Spf_sim.Exec_state.cancel ->
  env:env ->
  orig:Spf_ir.Ir.func ->
  xform:Spf_ir.Ir.func ->
  unit ->
  cex option
(** Try to concretely confirm that [orig] and [xform] diverge under
    [env].  Divergence evidence requires the original to complete at the
    compared break — a trapping or spinning original is undefined input
    and confirms nothing. *)
