(** A small entailment prover for linear facts over opaque atoms.

    A fact is a term [t] asserting [t >= 0]; a goal is proved when it
    follows from the facts over the integers.  Case splits on
    min/max/select atoms plus Fourier–Motzkin refutation over the
    rationals: sound and incomplete — the validator reports a failed
    proof as a give-up, never as a counterexample on its own
    authority. *)

val assert_cond : Term.t -> bool -> Term.t list
(** Facts implied by branching on a condition term ("true" means
    non-zero, as in the interpreter's [Cbr]). *)

val prove_ge0 : facts:Term.t list -> Term.t -> bool
(** Does [facts |- goal >= 0] hold over the integers?  [false] means
    "not proved", not "false". *)

val prove_eq0 : facts:Term.t list -> Term.t -> bool
