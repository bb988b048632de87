module Machine = Spf_sim.Machine
module Interp = Spf_sim.Interp
module Multicore = Spf_sim.Multicore
module Dram = Spf_sim.Dram
module Workload = Spf_workloads.Workload
module Is = Spf_workloads.Is
module Hj = Spf_workloads.Hj
module Config = Spf_core.Config

(* Reproduction of every table and figure in the paper's evaluation
   (§5–§6).  Each function runs the relevant simulations — every run is
   checksum-validated — and prints the series the paper plots, alongside
   the approximate values read off the paper's charts so drift is obvious.

   Each figure is built as a list of independent cells, each a function
   of the per-job execution context ({!Runner.ctx}): unsupervised runs
   fan them out over {!Pool} directly; supervised runs hand them to
   {!Supervisor} as keyed jobs ("<fig>/<index>"), which adds deadlines,
   retry, checkpoint/resume and crash bundles.  Results are collected in
   submission order and printed serially, so the printed output is
   byte-identical to a serial run for every [jobs] value — and, because
   checkpointed payloads round-trip through Marshal exactly, for
   resumed runs too.  Each cell also returns the simulated cycles it
   executed, which is what [spf replay] reports for a re-run cell.

   The experiment index lives in DESIGN.md §3; paper-vs-measured narrative
   in EXPERIMENTS.md. *)

let fmt = Format.std_formatter

let hr title =
  Format.fprintf fmt "@.=== %s ===@." title

exception Campaign_failed of int

(* Checkpoint codec for cell payloads: Marshal round-trips OCaml floats
   and records bit-exactly, which is what makes resumed figure output
   byte-identical.  The journal's per-record checksum guards integrity;
   decode failure therefore means an incompatible build, not corruption. *)
let encode v = Marshal.to_string v []

let decode s = try Some (Marshal.from_string s 0) with _ -> None

(* Fan a figure's cells out — each takes the job context and returns
   (value, simulated cycles); the values come back in submission order.
   With [sup], cells run under the full supervision pipeline instead and
   a permanently-failed cell aborts the figure with {!Campaign_failed}
   (after every other cell has finished and been checkpointed). *)
let par ?sup ?jobs ?engine ~fig thunks =
  let rs =
    match sup with
    | None ->
        let ctx = Runner.ctx_of_engine engine in
        Pool.map ?jobs (fun f -> f ctx) thunks
    | Some opts ->
        let sjobs =
          List.mapi
            (fun i work ->
              {
                Supervisor.key = Printf.sprintf "%s/%d" fig i;
                work;
                binfo =
                  (* Enough for [spf replay] to re-run the cell from the
                     registry: figure name + index. *)
                  Some
                    (fun _ ->
                      {
                        Supervisor.b_meta =
                          [
                            ("kind", "fig-cell");
                            ("figure", fig);
                            ("index", string_of_int i);
                          ];
                        b_ir = None;
                        b_payload = None;
                      });
              })
            thunks
        in
        let results = Supervisor.run_jobs opts ~encode ~decode sjobs in
        let ok, failed = Supervisor.report_stderr results in
        if failed <> [] then raise (Campaign_failed (List.length failed));
        List.map (fun (o : _ Supervisor.outcome) -> o.value) ok
  in
  List.map fst rs

(* ------------------------------------------------------------------ *)

let table1 () =
  hr "Table 1: system setup for each processor evaluated";
  List.iter (fun m -> Format.fprintf fmt "  %a@." Machine.pp m) Machine.all

(* ------------------------------------------------------------------ *)

let fig2_schemes =
  [
    ("Intuitive", Is.intuitive, 1.08);
    ("Offset too small", Is.offset_too_small, 1.20);
    ("Offset too big", Is.offset_too_big, 1.25);
    ("Optimal", Is.optimal, 1.30);
  ]

let fig2_core () =
  let machine = Machine.haswell in
  (fun ctx ->
    let r = Runner.run_ctx ctx ~machine (Is.build Is.default) in
    (r, Runner.cycles r))
  :: List.map
       (fun (_, m, _) ctx ->
         let r = Runner.run_ctx ctx ~machine (Is.build ~manual:m Is.default) in
         (r, Runner.cycles r))
       fig2_schemes

let fig2 ?sup ?jobs ?engine () =
  hr "Fig 2: manual prefetch schemes for IS on Haswell";
  let runs = par ?sup ?jobs ?engine ~fig:"fig2" (fig2_core ()) in
  let base, scheme_runs =
    match runs with b :: rest -> (b, rest) | [] -> assert false
  in
  List.iter2
    (fun (label, _, paper) r ->
      Format.fprintf fmt "  %-16s %5.2fx   (paper ~%.2fx)@." label
        (Runner.speedup ~baseline:base r)
        paper)
    fig2_schemes scheme_runs

(* ------------------------------------------------------------------ *)

type fig4_row = {
  bench : string;
  icc : float option;
  auto : float;
  manual : float;
}

(* The auto-pass cell body shared by the provider-aware figures: apply
   the pass under [config] (any {!Spf_core.Distance.provider}, adaptive
   included — {!Profile_guided.run_auto} attaches the tuner) and run.
   With the default config this is bit-identical to the historical
   [Benches.auto] path. *)
let run_auto_cfg (ctx : Runner.ctx) ~machine ?provider (b : Benches.bench) =
  let config =
    match provider with
    | None -> Config.default
    | Some p -> Config.with_provider p Config.default
  in
  Profile_guided.run_auto ~ctx ~config ~machine b

(* One (machine, bench) cell of the Fig 4 grid: base + variants, run
   inside a single job. *)
let fig4_cell ?provider (ctx : Runner.ctx) ~(machine : Machine.t)
    (b : Benches.bench) =
  let with_icc = machine.name = "XeonPhi" in
  let base = Runner.run_ctx ctx ~machine (b.plain ()) in
  let auto_r = run_auto_cfg ctx ~machine ?provider b in
  let manual_r = Runner.run_ctx ctx ~machine (b.manual ~machine ~c:None) in
  let icc_r =
    if with_icc then Some (Runner.run_ctx ctx ~machine (Benches.icc (b.plain ())))
    else None
  in
  let cycles =
    Runner.cycles base + Runner.cycles auto_r + Runner.cycles manual_r
    + (match icc_r with Some r -> Runner.cycles r | None -> 0)
  in
  ( {
      bench = b.id;
      icc = Option.map (fun r -> Runner.speedup ~baseline:base r) icc_r;
      auto = Runner.speedup ~baseline:base auto_r;
      manual = Runner.speedup ~baseline:base manual_r;
    },
    cycles )

let fig4_core ?provider () =
  let benches = Benches.all () in
  List.concat_map
    (fun machine ->
      List.map (fun b ctx -> fig4_cell ?provider ctx ~machine b) benches)
    Machine.all

let fig4 ?sup ?jobs ?engine ?provider () =
  hr "Fig 4: autogenerated and manual software-prefetch speedups";
  let benches = Benches.all () in
  let cells = par ?sup ?jobs ?engine ~fig:"fig4" (fig4_core ?provider ()) in
  (* Regroup the machine-major job list into per-machine panels. *)
  let nb = List.length benches in
  let rows_of k = List.filteri (fun i _ -> i / nb = k) cells in
  List.iteri
    (fun k machine ->
      let rows = rows_of k in
      Format.fprintf fmt "  --- %s ---@." machine.Machine.name;
      Format.fprintf fmt "  %-10s %s%8s %8s@." "bench"
        (if machine.name = "XeonPhi" then "     icc" else "        ")
        "auto" "manual";
      List.iter
        (fun r ->
          Format.fprintf fmt "  %-10s %s%7.2fx %7.2fx@." r.bench
            (match r.icc with
            | Some v -> Printf.sprintf "%7.2fx" v
            | None -> "        ")
            r.auto r.manual)
        rows;
      let geo f = Benches.geomean (List.map f rows) in
      Format.fprintf fmt "  %-10s %s%7.2fx %7.2fx@." "geomean"
        (match machine.name with
        | "XeonPhi" ->
            Printf.sprintf "%7.2fx"
              (geo (fun r -> Option.value r.icc ~default:1.0))
        | _ -> "        ")
        (geo (fun r -> r.auto))
        (geo (fun r -> r.manual));
      let paper_geo =
        match machine.Machine.name with
        | "Haswell" -> "1.3"
        | "A57" -> "1.1"
        | "A53" -> "2.1"
        | "XeonPhi" -> "2.7"
        | _ -> "?"
      in
      Format.fprintf fmt "  (paper autogenerated geomean ~%sx)@." paper_geo)
    Machine.all

(* ------------------------------------------------------------------ *)

let fig5_core ?provider () =
  let machine = Machine.haswell in
  let cfg =
    match provider with
    | None -> Config.default
    | Some p -> Config.with_provider p Config.default
  in
  List.map
    (fun (b : Benches.bench) ctx ->
      let base = Runner.run_ctx ctx ~machine (b.plain ()) in
      let ind_r =
        Profile_guided.run_auto ~ctx
          ~config:{ cfg with Config.stride_companion = false }
          ~machine b
      in
      let both_r = Profile_guided.run_auto ~ctx ~config:cfg ~machine b in
      ( ( b.id,
          Runner.speedup ~baseline:base ind_r,
          Runner.speedup ~baseline:base both_r ),
        Runner.cycles base + Runner.cycles ind_r + Runner.cycles both_r ))
    (Benches.all ())

let fig5 ?sup ?jobs ?engine ?provider () =
  hr "Fig 5: indirect-only vs indirect+stride prefetches (auto, Haswell)";
  let rows = par ?sup ?jobs ?engine ~fig:"fig5" (fig5_core ?provider ()) in
  List.iter
    (fun (id, indirect_only, both) ->
      Format.fprintf fmt "  %-10s indirect=%5.2fx  indirect+stride=%5.2fx@."
        id indirect_only both)
    rows

(* ------------------------------------------------------------------ *)

let fig6_cs = [ 4; 8; 16; 32; 64; 128; 256 ]

let fig6_core () =
  let benches = Benches.sweepable () in
  let pairs =
    List.concat_map
      (fun (b : Benches.bench) ->
        List.map (fun machine -> (b, machine)) Machine.all)
      benches
  in
  List.map
    (fun ((b : Benches.bench), machine) ctx ->
      let base = Runner.run_ctx ctx ~machine (b.plain ()) in
      let acc = ref (Runner.cycles base) in
      let speedups =
        List.map
          (fun c ->
            let r =
              Runner.run_ctx ctx ~machine (b.manual ~machine ~c:(Some c))
            in
            acc := !acc + Runner.cycles r;
            Runner.speedup ~baseline:base r)
          fig6_cs
      in
      (speedups, !acc))
    pairs

let fig6 ?sup ?jobs ?engine () =
  hr "Fig 6: speedup vs look-ahead distance c (manual prefetches)";
  let benches = Benches.sweepable () in
  let rows = par ?sup ?jobs ?engine ~fig:"fig6" (fig6_core ()) in
  let nm = List.length Machine.all in
  List.iteri
    (fun k (b : Benches.bench) ->
      Format.fprintf fmt "  --- %s ---@." b.id;
      Format.fprintf fmt "  %-8s" "machine";
      List.iter (fun c -> Format.fprintf fmt " c=%-5d" c) fig6_cs;
      Format.fprintf fmt "@.";
      List.iteri
        (fun j machine ->
          let speedups = List.nth rows ((k * nm) + j) in
          Format.fprintf fmt "  %-8s" machine.Machine.name;
          List.iter (fun s -> Format.fprintf fmt " %6.2f " s) speedups;
          Format.fprintf fmt "@.")
        Machine.all)
    benches

(* ------------------------------------------------------------------ *)

let fig7_core () =
  let depths = [ 1; 2; 3; 4 ] in
  List.map
    (fun machine ctx ->
      let base = Runner.run_ctx ctx ~machine (Hj.build Hj.default_hj8) in
      let acc = ref (Runner.cycles base) in
      let speedups =
        List.map
          (fun depth ->
            let r =
              Runner.run_ctx ctx ~machine
                (Hj.build ~manual:{ Hj.c = 64; depth } Hj.default_hj8)
            in
            acc := !acc + Runner.cycles r;
            Runner.speedup ~baseline:base r)
          depths
      in
      (speedups, !acc))
    Machine.all

let fig7 ?sup ?jobs ?engine () =
  hr "Fig 7: prefetching progressively more dependent loads (HJ-8)";
  let rows = par ?sup ?jobs ?engine ~fig:"fig7" (fig7_core ()) in
  Format.fprintf fmt "  %-8s depth=1 depth=2 depth=3 depth=4@." "machine";
  List.iter2
    (fun machine speedups ->
      Format.fprintf fmt "  %-8s" machine.Machine.name;
      List.iter (fun s -> Format.fprintf fmt " %6.2f " s) speedups;
      Format.fprintf fmt "@.")
    Machine.all rows

(* ------------------------------------------------------------------ *)

let fig8_core () =
  let machine = Machine.haswell in
  List.map
    (fun (b : Benches.bench) ctx ->
      let base = Runner.run_ctx ctx ~machine (b.plain ()) in
      let manual = Runner.run_ctx ctx ~machine (b.manual ~machine ~c:None) in
      ( (b.id, Runner.extra_instructions ~baseline:base manual),
        Runner.cycles base + Runner.cycles manual ))
    (Benches.all ())

let fig8 ?sup ?jobs ?engine () =
  hr "Fig 8: % extra dynamic instructions, optimal scheme, Haswell";
  let rows = par ?sup ?jobs ?engine ~fig:"fig8" (fig8_core ()) in
  List.iter
    (fun (id, extra) -> Format.fprintf fmt "  %-10s +%.0f%%@." id extra)
    rows

(* ------------------------------------------------------------------ *)

(* Fig 9: n independent copies of IS on cores sharing one DRAM channel.
   Throughput is normalised to one copy on one core without prefetching:
   thr(n) = n * makespan(1 core, no pf) / makespan(n cores). *)
let fig9_run_cores (ctx : Runner.ctx) ~n ~prefetched =
  let machine = Machine.haswell in
  let params = Is.default in
  let builts =
    Array.init n (fun k ->
        let b = Is.build { params with seed = params.seed + k } in
        if prefetched then ignore (Spf_core.Pass.run b.Workload.func);
        b)
  in
  let mc =
    Multicore.create ~machine ~n_cores:n ~make_instance:(fun ~core_id ~dram ~tscale ->
        let b = builts.(core_id) in
        Interp.create ~machine ~tscale ~dram ?engine:ctx.engine
          ?cancel:ctx.cancel ~mem:b.Workload.mem ~args:b.Workload.args
          b.Workload.func)
  in
  Multicore.run mc;
  Array.iteri
    (fun k core -> Workload.validate builts.(k) ~retval:(Interp.retval core))
    (Multicore.cores mc);
  Multicore.total_cycles mc

let fig9_core_counts = [ 1; 2; 4 ]

let fig9_core () =
  let configs =
    (1, false)
    :: List.concat_map (fun n -> [ (n, false); (n, true) ]) fig9_core_counts
  in
  List.map
    (fun (n, prefetched) ctx ->
      let m = fig9_run_cores ctx ~n ~prefetched in
      (m, m))
    configs

let fig9 ?sup ?jobs ?engine () =
  hr "Fig 9: IS multicore throughput on Haswell (shared DRAM)";
  let makespans = par ?sup ?jobs ?engine ~fig:"fig9" (fig9_core ()) in
  let base1, rest =
    match makespans with b :: rest -> (b, rest) | [] -> assert false
  in
  Format.fprintf fmt "  %-7s %-14s %-14s@." "cores" "no-prefetch" "prefetch";
  List.iteri
    (fun k n ->
      let thr makespan =
        float_of_int (n * base1) /. float_of_int makespan
      in
      Format.fprintf fmt "  %-7d %-14.2f %-14.2f@." n
        (thr (List.nth rest (2 * k)))
        (thr (List.nth rest ((2 * k) + 1))))
    fig9_core_counts

(* ------------------------------------------------------------------ *)

let fig10_core ?provider () =
  let benches =
    [ Benches.is_bench (); Benches.ra_bench (); Benches.hj2_bench () ]
  in
  List.map
    (fun (b : Benches.bench) ctx ->
      let acc = ref 0 in
      let speedup_with pages =
        let machine = Machine.with_pages Machine.haswell pages in
        let base = Runner.run_ctx ctx ~machine (b.plain ()) in
        let r = run_auto_cfg ctx ~machine ?provider b in
        acc := !acc + Runner.cycles base + Runner.cycles r;
        Runner.speedup ~baseline:base r
      in
      let small = speedup_with Machine.Small_pages in
      let huge = speedup_with Machine.Huge_pages in
      ((b.id, small, huge), !acc))
    benches

let fig10 ?sup ?jobs ?engine ?provider () =
  hr "Fig 10: huge-page impact (auto, Haswell; speedup vs same page policy)";
  let rows = par ?sup ?jobs ?engine ~fig:"fig10" (fig10_core ?provider ()) in
  Format.fprintf fmt "  %-10s %-12s %-12s@." "bench" "small-pages" "huge-pages";
  List.iter
    (fun (id, small, huge) ->
      Format.fprintf fmt "  %-10s %-12.2f %-12.2f@." id small huge)
    rows

(* ------------------------------------------------------------------ *)

(* Ablation: clamped prefetches vs Split's peeled clamp-free main loop
   (the hoisted-checks optimisation the paper attributes to ICC, §6.1). *)
let ablation_split_core () =
  List.map
    (fun machine ctx ->
      let base = Runner.run_ctx ctx ~machine (Is.build Is.default) in
      let clamped =
        let b = Is.build Is.default in
        ignore (Spf_core.Pass.run b.Workload.func);
        Runner.run_ctx ctx ~machine b
      in
      let split =
        let b = Is.build Is.default in
        ignore (Spf_core.Split.split_and_prefetch b.Workload.func);
        Runner.run_ctx ctx ~machine b
      in
      ( (base, clamped, split),
        Runner.cycles base + Runner.cycles clamped + Runner.cycles split ))
    Machine.all

let ablation_split ?sup ?jobs ?engine () =
  hr "Ablation: clamped prefetches vs loop splitting (IS, all machines)";
  let rows =
    par ?sup ?jobs ?engine ~fig:"ablation-split" (ablation_split_core ())
  in
  List.iter2
    (fun machine (base, clamped, split) ->
      Format.fprintf fmt
        "  %-8s clamped=%5.2fx (%+.0f%% insts)  split=%5.2fx (%+.0f%% insts)@."
        machine.Machine.name
        (Runner.speedup ~baseline:base clamped)
        (Runner.extra_instructions ~baseline:base clamped)
        (Runner.speedup ~baseline:base split)
        (Runner.extra_instructions ~baseline:base split))
    Machine.all rows

(* Ablation (DESIGN.md §5): eq. 1's staggered offsets vs a flat offset for
   every load in the chain. *)
let ablation_flat_offsets_core () =
  List.map
    (fun machine ctx ->
      let base = Runner.run_ctx ctx ~machine (Hj.build Hj.default_hj8) in
      let staggered_r =
        Runner.run_ctx ctx ~machine
          (Hj.build ~manual:{ Hj.c = 64; depth = 3 } Hj.default_hj8)
      in
      (* Flat: all prefetches at the same distance — dependent
         prefetches miss on their own address loads. *)
      let flat_r =
        Runner.run_ctx ctx ~machine
          (Hj.build ~manual:{ Hj.c = 1; depth = 3 } Hj.default_hj8)
      in
      ( ( Runner.speedup ~baseline:base staggered_r,
          Runner.speedup ~baseline:base flat_r ),
        Runner.cycles base + Runner.cycles staggered_r + Runner.cycles flat_r
      ))
    Machine.all

let ablation_flat_offsets ?sup ?jobs ?engine () =
  hr "Ablation: eq. 1 staggered offsets vs flat offsets (HJ-8, all machines)";
  let rows =
    par ?sup ?jobs ?engine ~fig:"ablation-flat"
      (ablation_flat_offsets_core ())
  in
  List.iter2
    (fun machine (staggered, flat) ->
      Format.fprintf fmt "  %-8s staggered=%5.2fx  flat(c=1)=%5.2fx@."
        machine.Machine.name staggered flat)
    Machine.all rows

(* ------------------------------------------------------------------ *)

(* Distance sweep: the acceptance figure for the distance-provider
   subsystem.  A look-ahead × workload heatmap of auto-pass speedups on
   each machine, the per-workload profile pick (ties resolve toward the
   head of [cs], which is eq. 1's c = 64), the adaptive provider's
   speedup (the runtime tuner, seeded from the eq. 1 cost model), and
   the geomean comparison of the static equation, the profile picks and
   the adaptive runs. *)

let adaptive_provider =
  Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive

(* Each variant's (cs, machines, benches): the full figure, and the
   4-cell smoke behind the tier-1 @distance-smoke alias (2 workloads x 2
   distances on one machine). *)
let distance_sweep_spec () =
  ( Profile_guided.candidates,
    [ Machine.haswell; Machine.a53 ],
    Benches.sweepable () )

let distance_smoke_spec () =
  ([ 64; 16 ], [ Machine.haswell ], [ Benches.is_bench (); Benches.hj2_bench () ])

let distance_sweep_core (cs, machines, benches) =
  List.concat_map
    (fun machine ->
      List.map
        (fun (b : Benches.bench) ctx ->
          let plain =
            Runner.cycles (Runner.run_ctx ctx ~machine (b.Benches.plain ()))
          in
          let sweep =
            List.map
              (fun c -> (c, Profile_guided.measure ~ctx ~machine b ~c))
              cs
          in
          let adaptive =
            Runner.cycles
              (run_auto_cfg ctx ~machine ~provider:adaptive_provider b)
          in
          ( (b.Benches.id, plain, sweep, adaptive),
            List.fold_left (fun acc (_, cy) -> acc + cy) (plain + adaptive)
              sweep ))
        benches)
    machines

let sweep_figure ?sup ?jobs ?engine ~fig ((cs, machines, benches) as spec) =
  hr "Distance sweep: auto-pass speedup by look-ahead c (profile vs eq. 1)";
  let rows = par ?sup ?jobs ?engine ~fig (distance_sweep_core spec) in
  let nb = List.length benches in
  List.iteri
    (fun k (machine : Machine.t) ->
      let mrows = List.filteri (fun i _ -> i / nb = k) rows in
      Format.fprintf fmt "  --- %s ---@." machine.Machine.name;
      Format.fprintf fmt "  %-10s" "bench";
      List.iter (fun c -> Format.fprintf fmt "  c=%-5d" c) cs;
      Format.fprintf fmt "  pick   adaptive@.";
      let speedup plain cy = float_of_int plain /. float_of_int cy in
      let static_sp = ref [] and pick_sp = ref [] and adaptive_sp = ref [] in
      List.iter
        (fun (id, plain, sweep, adaptive) ->
          let pick, pick_cy =
            List.fold_left
              (fun (bc, bcy) (c, cy) ->
                if cy < bcy then (c, cy) else (bc, bcy))
              (List.hd sweep) sweep
          in
          let static_cy =
            match List.assoc_opt Config.default.Config.c sweep with
            | Some cy -> cy
            | None -> snd (List.hd sweep)
          in
          static_sp := speedup plain static_cy :: !static_sp;
          pick_sp := speedup plain pick_cy :: !pick_sp;
          adaptive_sp := speedup plain adaptive :: !adaptive_sp;
          Format.fprintf fmt "  %-10s" id;
          List.iter
            (fun (_, cy) -> Format.fprintf fmt " %6.2fx " (speedup plain cy))
            sweep;
          Format.fprintf fmt " c=%-5d %7.2fx@." pick (speedup plain adaptive))
        mrows;
      Format.fprintf fmt
        "  geomean    eq.1(c=%d)=%.3fx  profile-guided=%.3fx  adaptive=%.3fx@."
        Config.default.Config.c
        (Benches.geomean !static_sp)
        (Benches.geomean !pick_sp)
        (Benches.geomean !adaptive_sp))
    machines

let distance_sweep ?sup ?jobs ?engine () =
  sweep_figure ?sup ?jobs ?engine ~fig:"distance-sweep" (distance_sweep_spec ())

let distance_smoke ?sup ?jobs ?engine () =
  sweep_figure ?sup ?jobs ?engine ~fig:"distance-smoke" (distance_smoke_spec ())

(* ------------------------------------------------------------------ *)

(* Replay registry: every figure's default cell list with the payload
   type erased (a crash bundle records only "fig <name>/<index>"; replay
   re-runs that one cell and reports its simulated cycles). *)
let erase cells = List.map (fun f ctx -> snd (f ctx)) cells

let replay_registry : (string * (unit -> (Runner.ctx -> int) list)) list =
  [
    ("fig2", fun () -> erase (fig2_core ()));
    ("fig4", fun () -> erase (fig4_core ()));
    ("fig5", fun () -> erase (fig5_core ()));
    ("fig6", fun () -> erase (fig6_core ()));
    ("fig7", fun () -> erase (fig7_core ()));
    ("fig8", fun () -> erase (fig8_core ()));
    ("fig9", fun () -> erase (fig9_core ()));
    ("fig10", fun () -> erase (fig10_core ()));
    ("ablation-split", fun () -> erase (ablation_split_core ()));
    ("ablation-flat", fun () -> erase (ablation_flat_offsets_core ()));
    ( "distance-sweep",
      fun () -> erase (distance_sweep_core (distance_sweep_spec ())) );
    ( "distance-smoke",
      fun () -> erase (distance_sweep_core (distance_smoke_spec ())) );
  ]

let replay_cell ~figure ~index ?engine () =
  match List.assoc_opt figure replay_registry with
  | None ->
      failwith
        (Printf.sprintf "unknown figure %S (known: %s)" figure
           (String.concat ", " (List.map fst replay_registry)))
  | Some mk ->
      let cells = mk () in
      let n = List.length cells in
      if index < 0 || index >= n then
        failwith
          (Printf.sprintf "figure %s has cells 0..%d, not %d" figure (n - 1)
             index);
      (List.nth cells index) (Runner.ctx_of_engine engine)
