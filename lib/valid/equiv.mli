(** The symbolic equivalence checker: lockstep symbolic execution of an
    original program and its {!Spf_core.Pass}-transformed twin, proving
    they agree on all observable behaviour — demand loads and stores,
    traps, calls, allocations and the return value — modulo prefetch
    instructions, over {e every} environment.

    Loops are handled by widening at the header on first arrival: paired
    header phis get shared fresh symbols, loop-defined values are
    havocked, memory gets an opaque-write barrier when the loop stores,
    and closing the loop checks the paired phis' incoming values agree —
    an induction step.  Transformed-side loads with no original
    counterpart (the pass's look-ahead loads) become proof obligations
    discharged against the §4.2 safety argument: the address is a
    structurally-matching access the original performs at some covered
    iteration (array coverage), a field of a chain node the original
    walks (pointer-chase coverage, with the null-page axiom for null
    nodes), or already performed on this path.

    A [Mismatch] is the {e first failed check}, not yet a counterexample
    — the checker over-approximates — so {!Validate} confirms it
    concretely before reporting a refutation.  See docs/ROBUSTNESS.md. *)

type result =
  | Proved of { paths : int; obligations : int }
  | Mismatch of string  (** first failed check; unconfirmed *)
  | Gave_up of string  (** beyond the checker's fragment or budget *)

val check :
  ?cancel:Spf_sim.Exec_state.cancel ->
  orig:Spf_ir.Ir.func ->
  xform:Spf_ir.Ir.func ->
  unit ->
  result
(** Never raises; budget exhaustion, unsupported constructs and
    supervision cancellation all surface as [Gave_up]. *)
