(** Pass configuration.  {!default} matches the paper's evaluation setup
    ([c = 64], stride companions on, unbounded stagger, no calls, hoisting
    on).  The pass always requires direct induction-variable indexing
    (§4.2) and always sweeps dead code after emission. *)

type t = {
  c : int;  (** look-ahead constant of eq. (1) *)
  stride_companion : bool;
      (** also emit the staggered prefetch of the sequential look-ahead
          array (§4.3 / Fig 5) *)
  max_stagger : int;
      (** prefetch at most this many loads of a dependent chain (§6.2) *)
  allow_pure_calls : bool;
      (** permit side-effect-free calls inside prefetch slices — the
          extension discussed in §4.1 *)
  hoist : bool;  (** inner-loop prefetch hoisting (§4.6) *)
  assume_margin : int;
      (** offsets up to this margin skip the fault-avoidance clamp — only
          sound after {!Split} has peeled the last [margin] iterations
          (the hoisted-checks optimisation the paper attributes to ICC,
          §6.1) *)
  provider : Distance.provider;
      (** where each loop's eq. 1 constant term comes from; {!default} is
          {!Distance.Static}, the paper's setup *)
}

val default : t
val with_c : int -> t -> t
val with_provider : Distance.provider -> t -> t

val canonical : t -> string
(** Deterministic one-line rendering of every field — the pass half of a
    content-addressed result-cache key.  Exhaustive over the record, so a
    new field cannot be forgotten silently. *)

val digest : t -> string
(** Hex MD5 of {!canonical}. *)
