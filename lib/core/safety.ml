module Ir = Spf_ir.Ir
module Loops = Spf_ir.Loops
module Dom = Spf_ir.Dom
module Indvar = Spf_ir.Indvar
module IntSet = Set.Make (Int)

(* Candidate vetting: the filters of Algorithm 1 (lines 34-40) and the
   fault-avoidance conditions of §4.2.

   A candidate survives only if
   - its slice contains no calls (side effects) and no non-induction phis;
   - every slice instruction executes unconditionally in each iteration of
     the induction variable's loop (its block dominates the single latch) —
     this is the "no loads conditional on loop-variant values" rule;
   - no store in the loop may alias an address-generating load's array;
   - a clamp bound for the look-ahead index can be established, either from
     the loop's (single) exit condition, when it steps by 1, or from the
     look-ahead array's allocation size. *)

type reject =
  | No_candidate (* DFS found no induction variable *)
  | Contains_call
  | Non_iv_phi
  | Conditional_code
  | Store_alias
  | No_clamp
  | Indirect_iv_use
  | Multi_latch
  | Bad_step
  | Pure_stride (* t = 1: left to the hardware prefetcher (§4.3) *)
  | Duplicate
  | Provider_disabled (* the distance provider turned this loop off *)
  | Non_unit_step
      (* only the exit bound gives a clamp, and the loop does not step by 1 *)

let string_of_reject = function
  | No_candidate -> "no induction variable reachable"
  | Contains_call -> "slice contains a (possibly impure) call"
  | Non_iv_phi -> "slice contains a non-induction phi"
  | Conditional_code -> "slice is conditional on loop-variant control flow"
  | Store_alias -> "a store in the loop may alias an address-generating load"
  | No_clamp -> "no safe look-ahead clamp could be established"
  | Indirect_iv_use -> "induction variable is not used as a direct array index"
  | Multi_latch -> "loop has multiple latches"
  | Bad_step -> "induction step is not a positive constant"
  | Pure_stride -> "pure stride access: left to the hardware prefetcher"
  | Duplicate -> "identical prefetch already emitted"
  | Provider_disabled -> "distance provider disabled prefetching for this loop"
  | Non_unit_step -> "loop-bound clamp needs a unit step"

(* How to clamp the looked-ahead induction value (line 49 of Algorithm 1):
   either a known constant limit, or [base + delta] for a loop-invariant
   bound operand. *)
type clamp = Clamp_imm of int | Clamp_expr of Ir.operand * int

let clamp_from_bound (iv : Indvar.ivar) =
  match (iv.bound, iv.bound_cmp) with
  | Some (Ir.Imm n), Some (Ir.Slt | Ir.Ne) -> Some (Clamp_imm (n - 1))
  | Some (Ir.Imm n), Some Ir.Sle -> Some (Clamp_imm n)
  | Some (Ir.Var _ as b), Some (Ir.Slt | Ir.Ne) -> Some (Clamp_expr (b, -1))
  | Some (Ir.Var _ as b), Some Ir.Sle -> Some (Clamp_expr (b, 0))
  | _, _ -> None

(* Clamp derived from the look-ahead array's allocation: safe only when the
   chain has at most one address-generating (real) load, because deeper
   loads would consume values from beyond the loop's own range (§4.2). *)
let clamp_from_alloc (a : Analysis.t) (cand : Dfs.candidate) ~n_chain_loads =
  if n_chain_loads > 2 then None
  else begin
    let func = a.Analysis.func in
    (* Find the gep(s) indexed directly by the induction variable. *)
    let limits =
      List.filter_map
        (fun id ->
          match (Ir.instr func id).kind with
          | Ir.Gep { base; index = Ir.Var v; scale }
            when v = cand.iv.iv_id -> (
              match Analysis.root_of a base with
              | Analysis.Ralloc alloc_id -> (
                  match (Ir.instr func alloc_id).kind with
                  | Ir.Alloc (Ir.Imm size) when scale > 0 ->
                      Some ((size / scale) - 1)
                  | _ -> None)
              | Analysis.Rparam _ | Analysis.Unknown -> None)
          | _ -> None)
        cand.slice
    in
    match limits with
    | [] -> None
    | l :: rest -> Some (Clamp_imm (List.fold_left min l rest))
  end

let vet (a : Analysis.t) (config : Config.t) (cand : Dfs.candidate) :
    (clamp, reject) result =
  let func = a.Analysis.func in
  let loop = Analysis.loop_of_iv a cand.iv in
  let instr_of id = Ir.instr func id in
  (* Filter: calls and non-induction phis (lines 34-40). *)
  let bad_call id =
    match (instr_of id).kind with
    | Ir.Call { pure; _ } -> not (pure && config.Config.allow_pure_calls)
    | _ -> false
  in
  let non_iv_phi id =
    match (instr_of id).kind with
    | Ir.Phi _ -> not (Indvar.is_ivar a.Analysis.ivs id)
    | _ -> false
  in
  if List.exists bad_call cand.slice then Error Contains_call
  else if List.exists non_iv_phi cand.slice then Error Non_iv_phi
  else if cand.iv.step < 1 then Error Bad_step
  else begin
    match loop.latches with
    | [] | _ :: _ :: _ -> Error Multi_latch
    | [ latch ] ->
        (* Unconditional execution within the loop iteration. *)
        let unconditional id =
          let b = (instr_of id).block in
          Loops.contains loop b && Dom.dominates a.Analysis.dom b latch
        in
        (* Mixed dependences: every operand of a slice instruction must be
           the induction variable, another slice member, or loop-invariant.
           A loop-variant input outside the slice (e.g. a second phi's
           value) would make the advanced clone read addresses that mix
           iteration i with iteration i+offset, voiding §4.2's
           exactly-as-later guarantee. *)
        let slice_set = List.fold_left (fun s id -> IntSet.add id s) IntSet.empty cand.slice in
        let clean_inputs id =
          List.for_all
            (fun (o : Ir.operand) ->
              match o with
              | Ir.Imm _ | Ir.Fimm _ -> true
              | Ir.Var v ->
                  v = cand.iv.iv_id || IntSet.mem v slice_set
                  || Indvar.is_loop_invariant func loop o)
            (Ir.srcs (instr_of id).kind)
        in
        if not (List.for_all unconditional cand.slice) then
          Error Conditional_code
        else if not (List.for_all clean_inputs cand.slice) then
          Error Conditional_code
        else begin
          (* Direct induction-variable indexing (§4.2 prototype rule):
             every slice use of the induction variable must be as the index
             of a gep whose base is loop-invariant. *)
          let uses_iv_ok id =
            let i = instr_of id in
            let uses_iv =
              List.exists
                (function Ir.Var v -> v = cand.iv.iv_id | _ -> false)
                (Ir.srcs i.kind)
            in
            (not uses_iv)
            ||
            match i.kind with
            | Ir.Gep { base; index = Ir.Var v; _ } ->
                v = cand.iv.iv_id && Indvar.is_loop_invariant func loop base
            | _ -> false
          in
          if not (List.for_all uses_iv_ok cand.slice) then
            Error Indirect_iv_use
          else begin
            (* Store-alias scan over the whole loop (§4.2): address-
               generating loads are every chain load except the final
               (prefetch-target) one. *)
            let chain = Dfs.chain_loads a cand in
            let feeding =
              match List.rev chain with [] -> [] | _ :: rest -> List.rev rest
            in
            let feeding_roots =
              List.map
                (fun id ->
                  match (instr_of id).kind with
                  | Ir.Load (_, addr) -> Analysis.root_of a addr
                  | _ -> Analysis.Unknown)
                feeding
            in
            let store_conflict = ref false in
            Ir.iter_blocks func (fun b ->
                if Loops.contains loop b.bid then
                  Array.iter
                    (fun id ->
                      match (instr_of id).kind with
                      | Ir.Store (_, addr, _) ->
                          let r = Analysis.root_of a addr in
                          if
                            List.exists
                              (fun fr -> Analysis.roots_may_alias r fr)
                              feeding_roots
                          then store_conflict := true
                      | _ -> ())
                    b.instrs);
            if !store_conflict then Error Store_alias
            else begin
              (* Establish the clamp. *)
              let single_exit =
                match Loops.exit_edges a.Analysis.cfg loop with
                | [ _ ] -> true
                | _ -> false
              in
              let from_bound =
                if single_exit then clamp_from_bound cand.iv else None
              in
              (* The bound clamp is the last value the exit test admits,
                 which a loop stepping by k > 1 need not visit: its
                 look-ahead could read past everything the loop reads.
                 The allocation clamp holds for any step. *)
              match from_bound with
              | Some c when cand.iv.step = 1 -> Ok c
              | _ -> (
                  match
                    clamp_from_alloc a cand ~n_chain_loads:(List.length chain)
                  with
                  | Some c -> Ok c
                  | None when Option.is_some from_bound -> Error Non_unit_step
                  | None -> Error No_clamp)
            end
          end
        end
  end
