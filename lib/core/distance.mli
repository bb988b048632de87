(** Look-ahead distance providers: where the constant term of eq. 1 comes
    from, per loop — the paper's static heuristic, explicit overrides, a
    profiling run, or an online tuner. *)

type choice = {
  c : int;  (** eq. 1 constant term, in iterations *)
  enabled : bool;  (** emit prefetches for this loop at all? *)
}

type adaptive_params = {
  window : int;  (** demand loads per tuning window *)
  min_c : int;
  max_c : int;
}

type provider =
  | Static  (** eq. 1 with the pass-wide [Config.c] — the paper's default *)
  | Fixed of { default_c : int option; per_loop : (int * int) list }
      (** per-loop-header choices, given explicitly or measured by a
          profiling run ({!Profdata.provider}); an entry [<= 0] disables
          prefetching for that loop; loops without an entry use
          [default_c] (falling back to [Config.c], eq. 1's default) *)
  | Adaptive of adaptive_params
      (** distances live in per-loop registers re-tuned online by the
          simulator's windowed controller ({!Spf_sim.Tuner}) *)

val default_adaptive : adaptive_params
(** window = 4096 demand loads, c clamped to [4, 512]. *)

val choose : provider -> default_c:int -> header:int -> choice
(** The provider's decision for the loop whose header block (in the
    pre-pass function) is [header]. *)

val kind : provider -> string
(** ["static" | "fixed" | "adaptive"]. *)

val pp : Format.formatter -> provider -> unit
