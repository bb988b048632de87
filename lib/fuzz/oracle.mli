(** The differential oracle: the prefetch pass must be semantically
    invisible.  Each spec is built twice (the pass mutates IR in place);
    the original and transformed twins run under the fault-injecting
    interpreter and their outcomes — return value, memory digest, trap
    behaviour — must agree.  See docs/ROBUSTNESS.md. *)

type outcome = Spf_valid.Model.outcome =
  | Returned of { retval : int option; digest : string }
  | Trapped of { pc : int; addr : int; is_store : bool }
  | Out_of_fuel
(** The concrete outcome the validator's counterexamples use too. *)

val outcome_to_string : outcome -> string

type divergence_kind =
  | Pass_raised of string
      (** an exception escaped [Pass.run]: never allowed *)
  | Verifier_broken of string  (** transformed IR fails [Verifier.check] *)
  | Outcome_mismatch of {
      original : outcome;
      transformed : outcome;
      introduced_fault : bool;
          (** the transformed run trapped at a pass-inserted instruction —
              the §4.2 fault-avoidance clamp failed *)
    }
  | Engine_mismatch of {
      on_transformed : bool;
      engine_a : Spf_sim.Engine.t;  (** the pair that disagreed... *)
      engine_b : Spf_sim.Engine.t;
      outcome_a : outcome;  (** ...and what each of them observed *)
      outcome_b : outcome;
      stat : (string * int * int) option;
          (** when outcomes agree, the first stats counter that does not *)
    }

val divergence_to_string : divergence_kind -> string

type agreement = {
  report : Spf_core.Pass.report;
  original : outcome;
  discarded : bool;
      (** the original itself trapped or spun: outcome comparison skipped
          (undefined input), though pass and verifier still had to hold *)
  dropped_prefetches : int;
  sw_prefetches : int;
}

type verdict =
  | Agree of agreement
  | Diverged of divergence_kind
  | Undecided of string
      (** symbolic oracle only: the validator could neither prove the
          transform correct on this program nor concretely confirm a
          counterexample.  Campaigns count these as give-ups, not
          failures. *)

(** How a campaign checks each case: the classic differential run
    (optionally pinning a simulator engine), the engine-vs-engine
    comparison, or the concrete run backed by a translation-validation
    proof-or-counterexample. *)
type mode =
  | Concrete of Spf_sim.Engine.t option
  | Cross_engine
  | Symbolic

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string}; [None] on an unrecognised mode string
    (e.g. a crash bundle recorded by a newer build). *)

val execute :
  ?engine:Spf_sim.Engine.t ->
  ?cancel:Spf_sim.Interp.cancel ->
  fuel:int ->
  Gen.built ->
  outcome * Spf_sim.Stats.t
(** {!Spf_valid.Model.execute} on a built case's memory and arguments. *)

val check :
  ?config:Spf_core.Config.t ->
  ?strict:bool ->
  ?engine:Spf_sim.Engine.t ->
  ?cancel:Spf_sim.Interp.cancel ->
  Gen.spec ->
  verdict
(** One differential run.  Never raises with [strict] false (the
    default): pass exceptions become {!Pass_raised} divergences.
    [cancel] is threaded into every simulation the run performs, so a
    supervisor's deadline cancels a hung case mid-oracle
    (@raise Spf_sim.Interp.Cancelled once it fires). *)

val check_engines :
  ?config:Spf_core.Config.t ->
  ?strict:bool ->
  ?cancel:Spf_sim.Interp.cancel ->
  Gen.spec ->
  verdict
(** One cross-engine differential run: the plain and pass-transformed
    twins each execute under both engines in {!Spf_sim.Engine.all},
    which must agree on the full observable behaviour — outcome {e and}
    every stats counter, cycles included.  A disagreement surfaces as
    {!Engine_mismatch} naming the engine pair. *)

val check_symbolic :
  ?config:Spf_core.Config.t ->
  ?strict:bool ->
  ?cancel:Spf_sim.Interp.cancel ->
  Gen.spec ->
  verdict
(** One symbolic run: the concrete differential {!check} first (pass
    containment, verifier, one concrete environment), then — if it
    agreed — the translation validator proves the pair equivalent over
    {e all} environments.  A proof keeps the agreement; a confirmed
    counterexample becomes an {!Outcome_mismatch} divergence exactly as
    a concrete disagreement would (so shrinking and crash bundles work
    unchanged); anything else is {!Undecided}. *)

val check_mode :
  ?config:Spf_core.Config.t ->
  ?strict:bool ->
  ?cancel:Spf_sim.Interp.cancel ->
  mode ->
  Gen.spec ->
  verdict
(** Dispatch one case through the oracle selected by [mode]. *)
