(* Look-ahead distance providers.

   Eq. 1 gives a static distance from machine-independent heuristics; the
   provider interface lets the same pass consume better evidence when it
   exists — per-loop choices, given explicitly or measured by a profiling
   run of the simulator (both a [Fixed] table), or an online controller
   that re-tunes mid-run (the lotus SWPrefetching pass exposes the same
   axis as `-prefetch-distance-provider`).

   A provider answers one question per loop: with what constant term [c]
   should eq. 1 schedule this loop's chain, and should the loop be
   prefetched at all?  The adaptive provider additionally asks the code
   generator to read the distance from a per-loop register (an extra
   function parameter) instead of baking it into immediates, so the
   simulator's tuner can rewrite it between windows. *)

type choice = {
  c : int; (* eq. 1 constant term, in iterations *)
  enabled : bool; (* emit prefetches for this loop at all? *)
}

type adaptive_params = {
  window : int; (* demand loads per tuning window *)
  min_c : int;
  max_c : int;
}

type provider =
  | Static
  | Fixed of { default_c : int option; per_loop : (int * int) list }
  | Adaptive of adaptive_params

let default_adaptive = { window = 4096; min_c = 4; max_c = 512 }

let kind = function
  | Static -> "static"
  | Fixed _ -> "fixed"
  | Adaptive _ -> "adaptive"

(* [~default_c] is the pass-wide Config.c; [~header] identifies the loop by
   its header block in the pre-pass function (the pass never renumbers
   blocks, so profile data gathered on the plain program stays valid). *)
let choose provider ~default_c ~header =
  match provider with
  | Static -> { c = default_c; enabled = true }
  | Fixed { default_c = d; per_loop } -> (
      match List.assoc_opt header per_loop with
      | Some c when c <= 0 -> { c = 0; enabled = false } (* explicit off *)
      | Some c -> { c; enabled = true }
      | None -> { c = Option.value d ~default:default_c; enabled = true })
  | Adaptive _ ->
      (* Initial value only; the tuner owns the distance after that. *)
      { c = default_c; enabled = true }

let pp fmt = function
  | Static -> Format.fprintf fmt "static"
  | Fixed { default_c; per_loop } ->
      Format.fprintf fmt "fixed(%s%s)"
        (match default_c with Some c -> Printf.sprintf "c=%d" c | None -> "c=default")
        (String.concat ""
           (List.map (fun (h, c) -> Printf.sprintf ",bb%d=%d" h c) per_loop))
  | Adaptive p ->
      Format.fprintf fmt "adaptive(window=%d,c=%d..%d)" p.window p.min_c
        p.max_c
