(* Deterministic pseudo-random number generation (splitmix64-style) so that
   every experiment is exactly reproducible without OCaml's global Random
   state. *)

type t = { mutable state : int }

let create ~seed = { state = (seed * 2) + 1 }

(* splitmix64-style core with the multiplicative constants truncated to
   OCaml's 62-bit positive-int range. *)
let[@inline] next t =
  t.state <- (t.state + 0x1E3779B97F4A7C15) land max_int;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  z lxor (z lsr 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let float t = float_of_int (next t land 0xFFFFFFFFFFFF) /. float_of_int 0x1000000000000

(* Independent stream [index] of [seed]: the starting state is a full
   avalanche mix of (seed, index), so consecutive indices land in
   unrelated regions of the state space — stream i and stream i+1 do NOT
   overlap shifted by one draw, which matters when each fuzz case owns a
   stream and cases must be mutually independent. *)
let split ~seed index =
  let mixer = create ~seed:((seed * 0x3C79AC49) lxor index) in
  create ~seed:(next mixer)

(* In-place Fisher-Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
