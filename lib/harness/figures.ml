module Machine = Spf_sim.Machine
module Interp = Spf_sim.Interp
module Multicore = Spf_sim.Multicore
module Workload = Spf_workloads.Workload
module Is = Spf_workloads.Is
module Hj = Spf_workloads.Hj
module Config = Spf_core.Config
module Distance = Spf_core.Distance

(* Reproduction of every table and figure in the paper's evaluation
   (§5–§6), as one ordered table.  Each entry is a name, a title, its
   cells as a function of the distance provider, and a printer.  A cell
   is a function of the per-job execution context ({!Runner.ctx}) that
   makes the figure's runs — every one checksum-validated — and returns
   them; the printer derives the series the paper plots from those runs,
   alongside the approximate values read off the paper's charts so drift
   is obvious.

   Two walkers read the table.  [run] hands a figure's cells to
   {!Supervisor.run_campaign} as keyed jobs ("<name>/<index>"), which
   adds deadlines, retry, checkpoint/resume and crash bundles as the
   options ask, and prints the runs that come back in submission order —
   so the output is byte-identical to a serial run for every [jobs]
   value, and, because checkpointed payloads round-trip through Marshal
   exactly, for resumed runs too.  [cell] hands one cell to [spf replay],
   which re-runs it from a crash bundle.

   The experiment index lives in DESIGN.md §3; paper-vs-measured narrative
   in EXPERIMENTS.md. *)

type cell = Runner.ctx -> Runner.result list

type figure = {
  name : string;
  title : string;
  cells : Distance.provider -> cell list;
  print : Format.formatter -> Runner.result list list -> unit;
      (* one run list per cell, in cell order *)
}

let name f = f.name

(* Most cells run a baseline first, then its variants: the variants'
   speedups over that baseline, in run order. *)
let speedups = function
  | base :: variants -> List.map (Runner.speedup ~baseline:base) variants
  | [] -> []

let pp_speedups fmt label sps =
  Format.fprintf fmt "  %-8s" label;
  List.iter (fun s -> Format.fprintf fmt " %6.2f " s) sps;
  Format.fprintf fmt "@."

(* The auto-pass run shared by the provider-aware figures: apply the pass
   under [provider] ({!Profile_guided.run_auto} attaches the tuner when
   it is adaptive) and run. *)
let run_auto (ctx : Runner.ctx) ~machine ~provider (b : Benches.bench) =
  Profile_guided.run_auto ~ctx
    ~config:(Config.with_provider provider Config.default)
    ~machine b

(* ------------------------------------------------------------------ *)

let table1 =
  {
    name = "table1";
    title = "Table 1: system setup for each processor evaluated";
    cells = (fun _ -> []);
    print =
      (fun fmt _ ->
        List.iter
          (fun m -> Format.fprintf fmt "  %a@." Machine.pp m)
          Machine.all);
  }

(* ------------------------------------------------------------------ *)

let fig2_schemes =
  [
    ("Intuitive", Is.intuitive, 1.08);
    ("Offset too small", Is.offset_too_small, 1.20);
    ("Offset too big", Is.offset_too_big, 1.25);
    ("Optimal", Is.optimal, 1.30);
  ]

(* One cell per scheme, after the unprefetched baseline's. *)
let fig2 =
  let machine = Machine.haswell in
  let cell build ctx = [ Runner.run_ctx ctx ~machine (build ()) ] in
  {
    name = "fig2";
    title = "Fig 2: manual prefetch schemes for IS on Haswell";
    cells =
      (fun _ ->
        cell (fun () -> Is.build Is.default)
        :: List.map
             (fun (_, m, _) -> cell (fun () -> Is.build ~manual:m Is.default))
             fig2_schemes);
    print =
      (fun fmt cells ->
        List.iter2
          (fun (label, _, paper) sp ->
            Format.fprintf fmt "  %-16s %5.2fx   (paper ~%.2fx)@." label sp
              paper)
          fig2_schemes
          (speedups (List.concat cells)));
  }

(* ------------------------------------------------------------------ *)

(* One (machine, bench) cell of the Fig 4 grid runs base, auto, manual
   and, on Xeon Phi, icc. *)
let fig4 =
  {
    name = "fig4";
    title = "Fig 4: autogenerated and manual software-prefetch speedups";
    cells =
      (fun provider ->
        List.concat_map
          (fun (machine : Machine.t) ->
            List.map
              (fun (b : Benches.bench) ctx ->
                let base = Runner.run_ctx ctx ~machine (b.plain ()) in
                let auto = run_auto ctx ~machine ~provider b in
                let manual =
                  Runner.run_ctx ctx ~machine (b.manual ~machine ~c:None)
                in
                base :: auto :: manual
                ::
                (if machine.name = "XeonPhi" then
                   [ Runner.run_ctx ctx ~machine (Benches.icc (b.plain ())) ]
                 else []))
              (Benches.all ()))
          Machine.all);
    print =
      (fun fmt cells ->
        let benches = Benches.all () in
        let nb = List.length benches in
        List.iteri
          (fun k (machine : Machine.t) ->
            (* Each row: auto, manual, then icc where it ran. *)
            let rows =
              List.filteri (fun i _ -> i / nb = k) cells |> List.map speedups
            in
            let auto r = List.nth r 0 and manual r = List.nth r 1 in
            let icc r = List.nth_opt r 2 in
            Format.fprintf fmt "  --- %s ---@." machine.name;
            Format.fprintf fmt "  %-10s %s%8s %8s@." "bench"
              (if machine.name = "XeonPhi" then "     icc" else "        ")
              "auto" "manual";
            List.iter2
              (fun (b : Benches.bench) r ->
                Format.fprintf fmt "  %-10s %s%7.2fx %7.2fx@." b.id
                  (match icc r with
                  | Some v -> Printf.sprintf "%7.2fx" v
                  | None -> "        ")
                  (auto r) (manual r))
              benches rows;
            let geo f = Benches.geomean (List.map f rows) in
            Format.fprintf fmt "  %-10s %s%7.2fx %7.2fx@." "geomean"
              (match machine.name with
              | "XeonPhi" ->
                  Printf.sprintf "%7.2fx"
                    (geo (fun r -> Option.value (icc r) ~default:1.0))
              | _ -> "        ")
              (geo auto) (geo manual);
            let paper_geo =
              match machine.name with
              | "Haswell" -> "1.3"
              | "A57" -> "1.1"
              | "A53" -> "2.1"
              | "XeonPhi" -> "2.7"
              | _ -> "?"
            in
            Format.fprintf fmt "  (paper autogenerated geomean ~%sx)@."
              paper_geo)
          Machine.all);
  }

(* ------------------------------------------------------------------ *)

let fig5 =
  let machine = Machine.haswell in
  {
    name = "fig5";
    title =
      "Fig 5: indirect-only vs indirect+stride prefetches (auto, Haswell)";
    cells =
      (fun provider ->
        let cfg = Config.with_provider provider Config.default in
        List.map
          (fun (b : Benches.bench) ctx ->
            let base = Runner.run_ctx ctx ~machine (b.plain ()) in
            let indirect =
              Profile_guided.run_auto ~ctx
                ~config:{ cfg with Config.stride_companion = false }
                ~machine b
            in
            let both = Profile_guided.run_auto ~ctx ~config:cfg ~machine b in
            [ base; indirect; both ])
          (Benches.all ()));
    print =
      (fun fmt cells ->
        List.iter2
          (fun (b : Benches.bench) runs ->
            let sp = speedups runs in
            Format.fprintf fmt
              "  %-10s indirect=%5.2fx  indirect+stride=%5.2fx@." b.id
              (List.nth sp 0) (List.nth sp 1))
          (Benches.all ()) cells);
  }

(* ------------------------------------------------------------------ *)

let fig6_cs = [ 4; 8; 16; 32; 64; 128; 256 ]

(* One (bench, machine) cell: base, then the manual scheme at each c. *)
let fig6 =
  {
    name = "fig6";
    title = "Fig 6: speedup vs look-ahead distance c (manual prefetches)";
    cells =
      (fun _ ->
        List.concat_map
          (fun (b : Benches.bench) ->
            List.map
              (fun machine ctx ->
                let base = Runner.run_ctx ctx ~machine (b.plain ()) in
                let manual c = b.manual ~machine ~c:(Some c) in
                base
                :: List.map
                     (fun c -> Runner.run_ctx ctx ~machine (manual c))
                     fig6_cs)
              Machine.all)
          (Benches.sweepable ()));
    print =
      (fun fmt cells ->
        let nm = List.length Machine.all in
        List.iteri
          (fun k (b : Benches.bench) ->
            Format.fprintf fmt "  --- %s ---@." b.id;
            Format.fprintf fmt "  %-8s" "machine";
            List.iter (fun c -> Format.fprintf fmt " c=%-5d" c) fig6_cs;
            Format.fprintf fmt "@.";
            List.iteri
              (fun j (machine : Machine.t) ->
                pp_speedups fmt machine.name
                  (speedups (List.nth cells ((k * nm) + j))))
              Machine.all)
          (Benches.sweepable ()));
  }

(* ------------------------------------------------------------------ *)

(* One cell per machine: HJ-8's base, then the manual scheme prefetching
   1..4 loads of the chain. *)
let fig7 =
  {
    name = "fig7";
    title = "Fig 7: prefetching progressively more dependent loads (HJ-8)";
    cells =
      (fun _ ->
        List.map
          (fun machine ctx ->
            let base = Runner.run_ctx ctx ~machine (Hj.build Hj.default_hj8) in
            base
            :: List.map
                 (fun depth ->
                   Runner.run_ctx ctx ~machine
                     (Hj.build ~manual:{ Hj.c = 64; depth } Hj.default_hj8))
                 [ 1; 2; 3; 4 ])
          Machine.all);
    print =
      (fun fmt cells ->
        Format.fprintf fmt "  %-8s depth=1 depth=2 depth=3 depth=4@." "machine";
        List.iter2
          (fun (machine : Machine.t) runs ->
            pp_speedups fmt machine.name (speedups runs))
          Machine.all cells);
  }

(* ------------------------------------------------------------------ *)

let fig8 =
  let machine = Machine.haswell in
  {
    name = "fig8";
    title = "Fig 8: % extra dynamic instructions, optimal scheme, Haswell";
    cells =
      (fun _ ->
        List.map
          (fun (b : Benches.bench) ctx ->
            let base = Runner.run_ctx ctx ~machine (b.plain ()) in
            [ base; Runner.run_ctx ctx ~machine (b.manual ~machine ~c:None) ])
          (Benches.all ()));
    print =
      (fun fmt cells ->
        List.iter2
          (fun (b : Benches.bench) runs ->
            Format.fprintf fmt "  %-10s +%.0f%%@." b.id
              (Runner.extra_instructions ~baseline:(List.nth runs 0)
                 (List.nth runs 1)))
          (Benches.all ()) cells);
  }

(* ------------------------------------------------------------------ *)

(* Fig 9: n independent copies of IS on cores sharing one DRAM channel;
   a cell's runs are its cores.  Throughput is normalised to one copy on
   one core without prefetching:
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
    Multicore.create ~machine ~n_cores:n
      ~make_instance:(fun ~core_id ~dram ~tscale ->
        let b = builts.(core_id) in
        Interp.create ~machine ~tscale ~dram ?engine:ctx.engine
          ?cancel:ctx.cancel ~mem:b.Workload.mem ~args:b.Workload.args
          b.Workload.func)
  in
  Multicore.run mc;
  Array.to_list
    (Array.mapi
       (fun k core ->
         let b = builts.(k) in
         Workload.validate b ~retval:(Interp.retval core);
         {
           Runner.stats = Interp.stats core;
           machine = machine.name;
           bench = b.Workload.name;
         })
       (Multicore.cores mc))

let fig9_core_counts = [ 1; 2; 4 ]

(* The cycle at which a cell's last core finished. *)
let makespan runs = List.fold_left (fun m r -> max m (Runner.cycles r)) 0 runs

let fig9 =
  {
    name = "fig9";
    title = "Fig 9: IS multicore throughput on Haswell (shared DRAM)";
    cells =
      (fun _ ->
        List.map
          (fun (n, prefetched) ctx -> fig9_run_cores ctx ~n ~prefetched)
          ((1, false)
          :: List.concat_map
               (fun n -> [ (n, false); (n, true) ])
               fig9_core_counts));
    print =
      (fun fmt cells ->
        let base1, rest =
          match List.map makespan cells with
          | b :: rest -> (b, rest)
          | [] -> invalid_arg "Figures.fig9: no cells"
        in
        Format.fprintf fmt "  %-7s %-14s %-14s@." "cores" "no-prefetch"
          "prefetch";
        List.iteri
          (fun k n ->
            let thr makespan =
              float_of_int (n * base1) /. float_of_int makespan
            in
            Format.fprintf fmt "  %-7d %-14.2f %-14.2f@." n
              (thr (List.nth rest (2 * k)))
              (thr (List.nth rest ((2 * k) + 1))))
          fig9_core_counts);
  }

(* ------------------------------------------------------------------ *)

let fig10_benches () =
  [ Benches.is_bench (); Benches.ra_bench (); Benches.hj2_bench () ]

(* One cell per bench: base and auto with small pages, then with huge
   pages. *)
let fig10 =
  {
    name = "fig10";
    title =
      "Fig 10: huge-page impact (auto, Haswell; speedup vs same page policy)";
    cells =
      (fun provider ->
        List.map
          (fun (b : Benches.bench) ctx ->
            List.concat_map
              (fun pages ->
                let machine = Machine.with_pages Machine.haswell pages in
                let base = Runner.run_ctx ctx ~machine (b.plain ()) in
                [ base; run_auto ctx ~machine ~provider b ])
              [ Machine.Small_pages; Machine.Huge_pages ])
          (fig10_benches ()));
    print =
      (fun fmt cells ->
        Format.fprintf fmt "  %-10s %-12s %-12s@." "bench" "small-pages"
          "huge-pages";
        List.iter2
          (fun (b : Benches.bench) runs ->
            let sp i =
              Runner.speedup ~baseline:(List.nth runs i) (List.nth runs (i + 1))
            in
            Format.fprintf fmt "  %-10s %-12.2f %-12.2f@." b.id (sp 0) (sp 2))
          (fig10_benches ()) cells);
  }

(* ------------------------------------------------------------------ *)

(* Ablation (DESIGN.md §5): eq. 1's staggered offsets vs a flat offset for
   every load in the chain. *)
let ablation =
  {
    name = "ablation";
    title =
      "Ablation: eq. 1 staggered offsets vs flat offsets (HJ-8, all machines)";
    cells =
      (fun _ ->
        List.map
          (fun machine ctx ->
            let run manual =
              Runner.run_ctx ctx ~machine (Hj.build ?manual Hj.default_hj8)
            in
            let base = run None in
            let staggered = run (Some { Hj.c = 64; depth = 3 }) in
            (* Flat: all prefetches at the same distance — dependent
               prefetches miss on their own address loads. *)
            [ base; staggered; run (Some { Hj.c = 1; depth = 3 }) ])
          Machine.all);
    print =
      (fun fmt cells ->
        List.iter2
          (fun (machine : Machine.t) runs ->
            let sp = speedups runs in
            Format.fprintf fmt "  %-8s staggered=%5.2fx  flat(c=1)=%5.2fx@."
              machine.name (List.nth sp 0) (List.nth sp 1))
          Machine.all cells);
  }

(* Ablation: clamped prefetches vs Split's peeled clamp-free main loop
   (the hoisted-checks optimisation the paper attributes to ICC, §6.1). *)
let ablation_split =
  {
    name = "ablation-split";
    title = "Ablation: clamped prefetches vs loop splitting (IS, all machines)";
    cells =
      (fun _ ->
        List.map
          (fun machine ctx ->
            let run transform =
              let b = Is.build Is.default in
              transform b.Workload.func;
              Runner.run_ctx ctx ~machine b
            in
            let base = run ignore in
            let clamped = run (fun f -> ignore (Spf_core.Pass.run f)) in
            let split =
              run (fun f -> ignore (Spf_core.Split.split_and_prefetch f))
            in
            [ base; clamped; split ])
          Machine.all);
    print =
      (fun fmt cells ->
        List.iter2
          (fun (machine : Machine.t) runs ->
            let base = List.nth runs 0 in
            let clamped = List.nth runs 1 and split = List.nth runs 2 in
            Format.fprintf fmt
              "  %-8s clamped=%5.2fx (%+.0f%% insts)  split=%5.2fx (%+.0f%% \
               insts)@."
              machine.name
              (Runner.speedup ~baseline:base clamped)
              (Runner.extra_instructions ~baseline:base clamped)
              (Runner.speedup ~baseline:base split)
              (Runner.extra_instructions ~baseline:base split))
          Machine.all cells);
  }

(* ------------------------------------------------------------------ *)

(* Distance sweep: the acceptance figure for the distance-provider
   subsystem.  A look-ahead × workload heatmap of auto-pass speedups on
   each machine, the per-workload profile pick (ties resolve toward the
   head of [cs], which is eq. 1's c = 64), the adaptive provider's
   speedup (the runtime tuner, seeded from the eq. 1 cost model), and
   the geomean comparison of the static equation, the profile picks and
   the adaptive runs.  A (machine, bench) cell runs plain, the pass at
   each c of [cs], then the pass under the adaptive provider. *)
let sweep ~name ~cs ~machines ~benches =
  let adaptive = Distance.Adaptive Distance.default_adaptive in
  {
    name;
    title =
      "Distance sweep: auto-pass speedup by look-ahead c (profile vs eq. 1)";
    cells =
      (fun _ ->
        List.concat_map
          (fun machine ->
            List.map
              (fun (b : Benches.bench) ctx ->
                let plain = Runner.run_ctx ctx ~machine (b.plain ()) in
                let sweep =
                  List.map
                    (fun c -> Profile_guided.measure ~ctx ~machine b ~c)
                    cs
                in
                let adaptive = run_auto ctx ~machine ~provider:adaptive b in
                (plain :: sweep) @ [ adaptive ])
              (benches ()))
          machines);
    print =
      (fun fmt cells ->
        let benches = benches () in
        let nb = List.length benches in
        List.iteri
          (fun k (machine : Machine.t) ->
            let mcells = List.filteri (fun i _ -> i / nb = k) cells in
            Format.fprintf fmt "  --- %s ---@." machine.name;
            Format.fprintf fmt "  %-10s" "bench";
            List.iter (fun c -> Format.fprintf fmt "  c=%-5d" c) cs;
            Format.fprintf fmt "  pick   adaptive@.";
            let static_sp = ref [] and pick_sp = ref [] in
            let adaptive_sp = ref [] in
            List.iter2
              (fun (b : Benches.bench) runs ->
                let cycles = Array.of_list (List.map Runner.cycles runs) in
                let plain = cycles.(0) in
                let sweep = List.mapi (fun i c -> (c, cycles.(i + 1))) cs in
                let adaptive = cycles.(List.length cs + 1) in
                let speedup cy = float_of_int plain /. float_of_int cy in
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
                static_sp := speedup static_cy :: !static_sp;
                pick_sp := speedup pick_cy :: !pick_sp;
                adaptive_sp := speedup adaptive :: !adaptive_sp;
                Format.fprintf fmt "  %-10s" b.id;
                List.iter
                  (fun (_, cy) -> Format.fprintf fmt " %6.2fx " (speedup cy))
                  sweep;
                Format.fprintf fmt " c=%-5d %7.2fx@." pick (speedup adaptive))
              benches mcells;
            Format.fprintf fmt
              "  geomean    eq.1(c=%d)=%.3fx  profile-guided=%.3fx  \
               adaptive=%.3fx@."
              Config.default.Config.c
              (Benches.geomean !static_sp)
              (Benches.geomean !pick_sp)
              (Benches.geomean !adaptive_sp))
          machines);
  }

(* ------------------------------------------------------------------ *)

(* [spf fig all] prints the figures in this order. *)
let table =
  [
    table1;
    fig2;
    fig4;
    fig5;
    fig6;
    fig7;
    fig8;
    fig9;
    fig10;
    ablation;
    ablation_split;
    sweep ~name:"distance-sweep" ~cs:Profile_guided.candidates
      ~machines:[ Machine.haswell; Machine.a53 ] ~benches:Benches.sweepable;
    (* The 4-cell tier-1 [@distance-smoke] figure: 2 workloads x 2
       distances on one machine. *)
    sweep ~name:"distance-smoke" ~cs:[ 64; 16 ] ~machines:[ Machine.haswell ]
      ~benches:(fun () -> [ Benches.is_bench (); Benches.hj2_bench () ]);
  ]

let run ?(out = Format.std_formatter) sup ~provider fig =
  Format.fprintf out "@.=== %s ===@." fig.title;
  let job i work =
    {
      Supervisor.key = Printf.sprintf "%s/%d" fig.name i;
      work;
      binfo =
        (* Enough for [spf replay] to rebuild the cell from the table. *)
        Some
          (fun _ ->
            {
              Supervisor.b_meta =
                [
                  ("kind", "fig-cell");
                  ("figure", fig.name);
                  ("index", string_of_int i);
                  ("provider", Distance.kind provider);
                ];
              b_ir = None;
              b_payload = None;
            });
    }
  in
  let runs = Supervisor.run_campaign sup (List.mapi job (fig.cells provider)) in
  fig.print out runs;
  runs

let cell ~figure ~index ~provider =
  match List.find_opt (fun f -> f.name = figure) table with
  | None ->
      Error
        (Printf.sprintf "unknown figure %S (known: %s)" figure
           (String.concat ", " (List.map name table)))
  | Some f -> (
      let cells = f.cells provider in
      match if index < 0 then None else List.nth_opt cells index with
      | Some c -> Ok c
      | None ->
          Error
            (Printf.sprintf "figure %s has %d cell(s), so no cell %d" figure
               (List.length cells) index))
