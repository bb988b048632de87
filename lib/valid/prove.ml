(* A small entailment prover for linear facts over opaque atoms.

   A fact is a term [t] asserting [t >= 0]; a goal is proved when it
   follows from the facts over the integers.  Two mechanisms:

   - case splits on min/max/select atoms: [min(x,y)] equals one of its
     arms, so substituting each arm (with the arm's defining inequality
     as an extra fact) and proving all branches is sound;
   - Fourier–Motzkin refutation: negate the goal ([g <= -1], i.e.
     [-g - 1 >= 0]), treat every distinct atom as an opaque variable,
     and eliminate variables until a constant contradiction appears.
     Rational infeasibility implies integer infeasibility, so this is
     sound (and incomplete, which the validator reports as a give-up
     rather than a counterexample). *)

module Ir = Spf_ir.Ir

(* Search budgets: the deepest nest of min/max/select case splits, and
   the fact-set size past which an elimination round gives up. *)
let split_depth = 10
let fm_max_facts = 128

(* Facts implied by branching on [cond] (an arbitrary integer term;
   "true" means non-zero, as in the interpreter's [Cbr]). *)
let assert_cond cond (taken : bool) : Term.t list =
  match (Term.lin cond, Term.const cond) with
  | [ (Term.Acmp (pred, d), 1) ], 0 -> (
      match (pred, taken) with
      | Ir.Slt, true -> [ Term.add_const (-1) (Term.neg d) ] (* d <= -1 *)
      | Ir.Sle, true -> [ Term.neg d ] (* d <= 0 *)
      | Ir.Slt, false -> [ d ] (* d >= 0 *)
      | Ir.Sle, false -> [ Term.add_const (-1) d ] (* d >= 1 *)
      | Ir.Eq, true | Ir.Ne, false -> [ d; Term.neg d ] (* d = 0 *)
      | Ir.Eq, false | Ir.Ne, true -> []
      | _ -> [])
  | _ -> if taken then [] else [ cond; Term.neg cond ] (* cond = 0 *)

(* ------------------------------------------------------------------ *)
(* Fourier–Motzkin refutation                                          *)
(* ------------------------------------------------------------------ *)

let contradiction facts =
  List.exists (fun f -> Term.lin f = [] && Term.const f < 0) facts

let fm_refute (facts : Term.t list) =
  let atoms_of fs =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc (a, _) -> if List.exists (Term.equal_atom a) acc then acc else a :: acc)
          acc (Term.lin f))
      [] fs
  in
  let rec go facts rounds =
    if contradiction facts then true
    else if rounds <= 0 then false
    else
      match atoms_of facts with
      | [] -> false
      | atoms ->
          (* Eliminate the atom with the cheapest positive x negative
             pairing. *)
          let cost a =
            let p = ref 0 and n = ref 0 in
            List.iter
              (fun f ->
                let c = Term.coeff_of f a in
                if c > 0 then incr p else if c < 0 then incr n)
              facts;
            (!p * !n, a)
          in
          let costs = List.map cost atoms in
          let _, v =
            List.fold_left
              (fun (bc, bv) (c, a) -> if c < bc then (c, a) else (bc, bv))
              (List.hd costs) (List.tl costs)
          in
          let pos, rest =
            List.partition (fun f -> Term.coeff_of f v > 0) facts
          in
          let neg_, zero = List.partition (fun f -> Term.coeff_of f v < 0) rest in
          let combos =
            List.concat_map
              (fun f ->
                let p = Term.coeff_of f v in
                List.map
                  (fun g ->
                    let m = -Term.coeff_of g v in
                    Term.add (Term.mul_const m f) (Term.mul_const p g))
                  neg_)
              pos
          in
          let facts' = zero @ combos in
          if List.length facts' > fm_max_facts then false
          else go facts' (rounds - 1)
  in
  go facts 16

(* ------------------------------------------------------------------ *)
(* Top-level proving with case splits                                  *)
(* ------------------------------------------------------------------ *)

let rec prove_ge0 ~facts goal =
  match Term.as_const goal with
  | Some c -> c >= 0
  | None -> attempt split_depth facts goal

and attempt depth facts goal =
  let split_atom =
    match Term.find_split goal with
    | Some a -> Some a
    | None ->
        List.fold_left
          (fun acc f -> match acc with Some _ -> acc | None -> Term.find_split f)
          None facts
  in
  match split_atom with
  | Some atom when depth > 0 ->
      let arms =
        match atom with
        | Term.Amin (x, y) ->
            [ (x, [ Term.sub y x ]); (y, [ Term.sub x y ]) ]
        | Term.Amax (x, y) ->
            [ (x, [ Term.sub x y ]); (y, [ Term.sub y x ]) ]
        | Term.Asel (c, x, y) ->
            [ (x, assert_cond c true); (y, assert_cond c false) ]
        | _ -> []
      in
      arms <> []
      && List.for_all
           (fun (by, arm_facts) ->
             let s t = Term.subst_atom ~atom ~by t in
             let goal' = s goal in
             let facts' = arm_facts @ List.map s facts in
             match Term.as_const goal' with
             | Some c -> c >= 0 || fm_refute (Term.add_const (-1) (Term.neg goal') :: facts')
             | None -> attempt (depth - 1) facts' goal')
           arms
  | _ ->
      (* No splits left: refute facts ∧ goal <= -1. *)
      fm_refute (Term.add_const (-1) (Term.neg goal) :: facts)

let prove_eq0 ~facts t = prove_ge0 ~facts t && prove_ge0 ~facts (Term.neg t)
