(* Pass configuration.  Defaults match the paper's evaluation setup:
   c = 64 for every system (§5), stride companion prefetches on (§4.3),
   unbounded stagger depth, and loop hoisting (§4.6) enabled.  The
   prototype's direct-induction-index restriction (§4.2) and the
   post-emission dead-code sweep are not knobs: the pass always applies
   them. *)

type t = {
  c : int; (* look-ahead constant of eq. (1) *)
  stride_companion : bool; (* also prefetch the sequential look-ahead array *)
  max_stagger : int; (* how many loads of a dependent chain to prefetch *)
  allow_pure_calls : bool; (* permit side-effect-free calls in slices (§4.1) *)
  hoist : bool; (* hoist inner-loop prefetches (§4.6) *)
  assume_margin : int; (* offsets <= this margin skip the fault-avoidance
                          clamp; only sound after Split has peeled the
                          last [margin] iterations (cf. ICC's hoisted
                          checks, §6.1) *)
  provider : Distance.provider; (* where each loop's eq. 1 constant term
                                   comes from (static | fixed | profile |
                                   adaptive) *)
}

let default =
  {
    c = 64;
    stride_companion = true;
    max_stagger = max_int;
    allow_pure_calls = false;
    hoist = true;
    assume_margin = 0;
    provider = Distance.Static;
  }

let with_c c t = { t with c }
let with_provider provider t = { t with provider }

(* Canonical one-line rendering of every field, the pass half of a
   content-addressed result-cache key: two configs with equal canonical
   strings drive the pass identically.  Every field is spelled out —
   adding a field without extending this function is a compile error
   (the record pattern below is exhaustive), so the serving cache can
   never conflate configs that differ in a new knob. *)
let canonical
    {
      c;
      stride_companion;
      max_stagger;
      allow_pure_calls;
      hoist;
      assume_margin;
      provider;
    } =
  Printf.sprintf
    "c=%d stride=%b stagger=%d pure=%b hoist=%b margin=%d provider=%s" c
    stride_companion max_stagger allow_pure_calls hoist assume_margin
    (Format.asprintf "%a" Distance.pp provider)

let digest t = Digest.to_hex (Digest.string (canonical t))
