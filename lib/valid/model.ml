module Interp = Spf_sim.Interp
module Memory = Spf_sim.Memory
module Machine = Spf_sim.Machine
module Engine = Spf_sim.Engine
module Ir = Spf_ir.Ir

(* Concrete confirmation of candidate counterexamples.

   The symbolic checker never reports [Refuted] on its own authority: a
   failed proof step only becomes a counterexample once the concrete
   interpreter observes the two programs diverge.  Divergences hide in
   two places: value bugs show up on the environment as given, and
   introduced faults (a §4.2 clamp that fails to keep a look-ahead load
   inside the mapping) show up once the mapping is tightened — so the
   portfolio also binary-searches the smallest break at which the
   original still completes and re-compares there. *)

type outcome =
  | Returned of { retval : int option; digest : string }
  | Trapped of { pc : int; addr : int; is_store : bool }
  | Out_of_fuel

let outcome_to_string = function
  | Returned { retval; digest } ->
      Printf.sprintf "returned %s, mem %s"
        (match retval with None -> "void" | Some v -> string_of_int v)
        (String.sub digest 0 (min 12 (String.length digest)))
  | Trapped { pc; addr; is_store } ->
      Printf.sprintf "trapped at pc %d (%s addr %d)" pc
        (if is_store then "store" else "load")
        addr
  | Out_of_fuel -> "out of fuel"

type env = { fresh : unit -> Memory.t * int array; fuel : int }
(** A reproducible concrete environment: every call to [fresh] must
    return an identical, unshared memory image and argument vector. *)

type cex = {
  brk : int;  (** break at which the divergence was confirmed *)
  original : outcome;
  transformed : outcome;
  introduced_fault : bool;
      (** the transformed run trapped at a pass-inserted instruction *)
}

(* A fixed, deterministic meaning for every intrinsic the program calls:
   a value-dependent mix of the callee name and the arguments.  The pass
   must be correct under every implementation of its pure calls, so
   confirming a divergence under this particular one is sound evidence —
   and both runs of a comparison see the same functions. *)
let register_default_intrinsics it func =
  let seed name = String.fold_left (fun h c -> (h * 131) + Char.code c) 7 name in
  Array.iter
    (fun (b : Ir.block) ->
      Array.iter
        (fun id ->
          match (Ir.instr func id).Ir.kind with
          | Ir.Call { callee; _ } ->
              let s = seed callee in
              Interp.register_intrinsic it callee (fun args ->
                  Array.fold_left
                    (fun h a -> (h * 1_000_003) lxor a)
                    s args
                  land 0x3FFF_FFFF)
          | _ -> ())
        b.Ir.instrs)
    func.Ir.blocks

(* The one create/run/classify sequence every concrete comparison uses.
   Callers run it many times per case (the break binary search, the
   fuzz twins): hand the tag arrays back on every exit so the next run
   reuses them. *)
let execute ?engine ?cancel ~fuel ~mem ~args func =
  let it =
    Interp.create ~machine:Machine.haswell ?engine ?cancel ~mem ~args func
  in
  register_default_intrinsics it func;
  Fun.protect
    ~finally:(fun () -> Interp.release it)
    (fun () ->
      let outcome =
        match Interp.run ~fuel it with
        | () ->
            Returned { retval = Interp.retval it; digest = Memory.digest mem }
        | exception Interp.Trap { pc; addr; is_store; _ } ->
            Trapped { pc; addr; is_store }
        | exception Interp.Fuel_exhausted -> Out_of_fuel
      in
      (outcome, Interp.stats it))

let run_one ?cancel ~env ~brk func =
  let mem, args = env.fresh () in
  if brk < Memory.size mem then Memory.truncate mem brk;
  fst
    (execute ~engine:Engine.Interp ?cancel ~fuel:env.fuel ~mem ~args func)

let completes ?cancel ~env ~brk func =
  match run_one ?cancel ~env ~brk func with Returned _ -> true | _ -> false

let outcomes_agree a b =
  match (a, b) with
  | Returned x, Returned y -> x.retval = y.retval && x.digest = y.digest
  | Trapped _, Trapped _ | Out_of_fuel, Out_of_fuel ->
      (* The oracle convention: once the original misbehaves the input is
         undefined and the comparison is discarded, so any transformed
         outcome agrees.  Only reached when the original did not return,
         which [confirm] treats as no evidence anyway. *)
      true
  | _ -> false

(* Smallest break at which the original still completes; completing is
   monotone in the break (shrinking the mapping only adds traps). *)
let min_completing_brk ?cancel ~env func ~full =
  if not (completes ?cancel ~env ~brk:full func) then None
  else begin
    let lo = ref 0 and hi = ref full in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if completes ?cancel ~env ~brk:mid func then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

(* Compare the two programs under [env] at the given break; evidence of
   divergence requires the original to complete there. *)
let compare_at ?cancel ~env ~brk ~n_orig orig xform =
  match run_one ?cancel ~env ~brk orig with
  | Returned _ as original ->
      let transformed = run_one ?cancel ~env ~brk xform in
      if outcomes_agree original transformed then None
      else
        let introduced_fault =
          match transformed with
          | Trapped { pc; _ } -> pc >= n_orig
          | _ -> false
        in
        Some { brk; original; transformed; introduced_fault }
  | _ -> None

let confirm ?cancel ~env ~orig ~xform () =
  let n_orig = Ir.n_instrs orig in
  let mem, _ = env.fresh () in
  let full = Memory.size mem in
  match compare_at ?cancel ~env ~brk:full ~n_orig orig xform with
  | Some cex -> Some cex
  | None -> (
      match min_completing_brk ?cancel ~env orig ~full with
      | Some b when b < full -> compare_at ?cancel ~env ~brk:b ~n_orig orig xform
      | _ -> None)
