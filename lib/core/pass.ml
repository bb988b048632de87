module Ir = Spf_ir.Ir
module Loops = Spf_ir.Loops

(* The pass driver: Algorithm 1 end to end.

   Phases:
   1. hoisting (§4.6) on the pristine function — inserts only load-free
      code, so it cannot perturb phase 2's candidate search;
   2. analysis + candidate collection + vetting, all read-only;
   3. code emission, which mutates the function.

   The returned report records, for every load inspected, either what was
   emitted or precisely why the load was rejected — tests and the CLI lean
   on this heavily.

   Robustness contract: [run] never raises (unless [~strict:true] asks it
   to).  A prefetch pass is an optimisation — the worst acceptable outcome
   on any input is "no prefetches emitted", never an exception that takes
   down the host compiler.  Exceptions from any phase are caught at the
   finest containing granularity (per load where possible), converted to
   {!Diag.t} values in [report.diags], and the rest of the work continues. *)

type decision =
  | Emitted of Codegen.emitted list
  | Hoisted of Hoist.hoisted
  | Rejected of Safety.reject
  | Skipped of Diag.t
      (* a phase failed internally on this load; contained, not raised *)

(* The distance decision the provider made for one loop, recorded for
   diagnostics and for building the adaptive tuner (the [dist_slot] is the
   distance-register parameter the tuner rewrites). *)
type loop_distance = {
  header : int; (* loop header block *)
  distance : int; (* eq. 1 constant term (initial value when adaptive) *)
  enabled : bool;
  dist_slot : int option; (* adaptive distance-register instr id *)
}

type report = {
  decisions : (int * decision) list; (* load id -> decision, program order *)
  n_prefetches : int;
  n_support : int; (* address-generation instructions added *)
  diags : Diag.t list; (* skips and contained failures, in discovery order *)
  loop_distances : loop_distance list; (* per prefetched loop, first-seen order *)
  adaptive : Distance.adaptive_params option; (* when the provider is adaptive *)
}

let count_prefetches decisions =
  List.fold_left
    (fun (npf, nsup) (_, d) ->
      match d with
      | Emitted groups ->
          ( npf + List.length groups,
            nsup
            + List.fold_left
                (fun acc (g : Codegen.emitted) ->
                  (* +2 for the advance and clamp of each group *)
                  acc + List.length g.support_ids + 2)
                0 groups )
      | Hoisted h -> (npf + 1, nsup + List.length h.support_ids)
      | Rejected _ | Skipped _ -> (npf, nsup))
    (0, 0) decisions

let run ?(config = Config.default) ?(exclude_blocks = []) ?(strict = false)
    (func : Ir.func) : report =
  let diags = ref [] in
  let record (d : Diag.t) =
    if strict && d.Diag.severity = Diag.Error then raise (Diag.Escalated d);
    diags := d :: !diags
  in
  (* Per-loop distance decisions, first-seen order, plus the lazily created
     distance registers of the adaptive provider. *)
  let loop_dists : (int, loop_distance) Hashtbl.t = Hashtbl.create 4 in
  let loop_order = ref [] in
  let record_loop (ld : loop_distance) =
    if not (Hashtbl.mem loop_dists ld.header) then begin
      Hashtbl.replace loop_dists ld.header ld;
      loop_order := ld.header :: !loop_order
    end
  in
  let finish decisions =
    let n_prefetches, n_support = count_prefetches decisions in
    {
      decisions;
      n_prefetches;
      n_support;
      diags = List.rev !diags;
      loop_distances =
        List.rev_map (fun h -> Hashtbl.find loop_dists h) !loop_order;
      adaptive =
        (match config.Config.provider with
        | Distance.Adaptive p -> Some p
        | _ -> None);
    }
  in
  let excluded b = List.mem b exclude_blocks in
  (* Phase 1: hoisting. *)
  let hoisted =
    if config.Config.hoist then (
      match Hoist.run ~exclude_blocks (Analysis.make func) config with
      | hs, ds ->
          List.iter record ds;
          hs
      | exception exn ->
          record (Diag.of_exn Diag.Hoist exn);
          [])
    else []
  in
  let hoist_decisions =
    List.map (fun (h : Hoist.hoisted) -> (h.load_id, Hoisted h)) hoisted
  in
  (* Phase 2: analyse and vet (read-only). *)
  match Analysis.make func with
  | exception exn ->
      (* Without analysis there are no candidates; report what phase 1 did. *)
      record (Diag.of_exn Diag.Analysis exn);
      finish hoist_decisions
  | a ->
      let loads = ref [] in
      Ir.iter_instrs func (fun i ->
          match i.kind with
          | Ir.Load _
            when Loops.in_any_loop a.Analysis.loops i.block
                 && not (excluded i.block) ->
              loads := i :: !loads
          | _ -> ());
      let loads =
        Analysis.sort_program_order a
          (List.rev_map (fun i -> i.Ir.id) !loads)
      in
      let vetted =
        List.map
          (fun load_id ->
            match
              let load = Ir.instr func load_id in
              match Dfs.find_candidate a load with
              | None -> Error Safety.No_candidate
              | Some cand -> (
                  if List.length (Dfs.chain_loads a cand) <= 1 then
                    Error Safety.Pure_stride
                  else
                    match Safety.vet a config cand with
                    | Error r -> Error r
                    | Ok clamp -> Ok (cand, clamp))
            with
            | verdict -> (load_id, `Vet verdict)
            | exception exn ->
                let d = Diag.of_exn ~load_id Diag.Vet exn in
                record d;
                (load_id, `Skip d))
          loads
      in
      (* Phase 3: emit.  The provider decides, per loop, the constant term
         of eq. 1 and whether to prefetch at all; the adaptive provider
         additionally materialises one distance register per loop — an
         extra function parameter appended to the entry block, which DCE
         spares ([param_ids]) and the simulator's tuner rewrites. *)
      let state = Codegen.create_state () in
      let dist_regs : (int, int) Hashtbl.t = Hashtbl.create 4 in
      let dist_reg ~header ~init_c =
        match Hashtbl.find_opt dist_regs header with
        | Some slot -> slot
        | None ->
            let n = Array.length func.Ir.param_ids in
            let i =
              Ir.append_instr func ~bid:func.Ir.entry ~name:"pf.dist"
                (Ir.Param n)
            in
            func.Ir.param_ids <- Array.append func.Ir.param_ids [| i.Ir.id |];
            ignore init_c;
            Hashtbl.replace dist_regs header i.Ir.id;
            i.Ir.id
      in
      let decisions =
        List.map
          (fun (load_id, v) ->
            match v with
            | `Skip d -> (load_id, Skipped d)
            | `Vet (Error r) -> (load_id, Rejected r)
            | `Vet (Ok (cand, clamp)) -> (
                let header = (Analysis.loop_of_iv a cand.Dfs.iv).Loops.header in
                let choice =
                  Distance.choose config.Config.provider
                    ~default_c:config.Config.c ~header
                in
                if not choice.Distance.enabled then begin
                  record_loop
                    { header; distance = 0; enabled = false; dist_slot = None };
                  (load_id, Rejected Safety.Provider_disabled)
                end
                else
                  let dist =
                    match config.Config.provider with
                    | Distance.Adaptive _ ->
                        let slot =
                          dist_reg ~header ~init_c:choice.Distance.c
                        in
                        Codegen.Dreg { slot; init_c = choice.Distance.c }
                    | _ -> Codegen.Dconst choice.Distance.c
                  in
                  match Codegen.emit a config cand clamp ~dist ~state with
                  | [] -> (load_id, Rejected Safety.Duplicate)
                  | groups ->
                      record_loop
                        {
                          header;
                          distance = choice.Distance.c;
                          enabled = true;
                          dist_slot =
                            (match dist with
                            | Codegen.Dreg { slot; _ } -> Some slot
                            | Codegen.Dconst _ -> None);
                        };
                      (load_id, Emitted groups)
                  | exception exn ->
                      let d = Diag.of_exn ~load_id Diag.Emit exn in
                      record d;
                      (load_id, Skipped d)))
          vetted
      in
      let decisions = hoist_decisions @ decisions in
      (* Duplicate-line elision can leave address-generation clones with no
         remaining users; sweep them so instruction-count reports (Fig 8)
         reflect the code a real backend would run. *)
      (try ignore (Spf_ir.Simplify.dce func)
       with exn -> record (Diag.of_exn Diag.Cleanup exn));
      finish decisions

let pp_report (func : Ir.func) fmt (r : report) =
  let pp_decision fmt = function
    | Emitted groups ->
        Format.fprintf fmt "emitted %d prefetch(es):" (List.length groups);
        List.iter
          (fun (g : Codegen.emitted) ->
            Format.fprintf fmt "@   load %%%s.%d at offset %d (+%d insts)"
              (Ir.instr func g.chain_load).name g.chain_load g.offset_iters
              (List.length g.support_ids + 2))
          groups
    | Hoisted h ->
        Format.fprintf fmt "hoisted prefetch into bb%d (+%d insts)"
          h.preheader
          (List.length h.support_ids)
    | Rejected r -> Format.fprintf fmt "rejected: %s" (Safety.string_of_reject r)
    | Skipped d -> Format.fprintf fmt "skipped: %s" (Diag.to_string d)
  in
  Format.fprintf fmt "prefetch pass: %d prefetches, %d support instructions@."
    r.n_prefetches r.n_support;
  (match r.adaptive with
  | Some p ->
      Format.fprintf fmt
        "  adaptive distances: window=%d demand loads, c in [%d, %d]@."
        p.Distance.window p.Distance.min_c p.Distance.max_c
  | None -> ());
  List.iter
    (fun ld ->
      if ld.enabled then
        Format.fprintf fmt "  loop bb%d: distance c=%d%s@." ld.header
          ld.distance
          (match ld.dist_slot with
          | Some s -> Printf.sprintf " (register %%%d)" s
          | None -> "")
      else
        Format.fprintf fmt "  loop bb%d: prefetching disabled by provider@."
          ld.header)
    r.loop_distances;
  List.iter
    (fun (load_id, d) ->
      Format.fprintf fmt "  load %%%s.%d: %a@."
        (Ir.instr func load_id).name load_id pp_decision d)
    r.decisions;
  List.iter
    (fun d ->
      match d.Diag.severity with
      | Diag.Error -> Format.fprintf fmt "  diag: %a@." Diag.pp d
      | Diag.Note -> ())
    r.diags
