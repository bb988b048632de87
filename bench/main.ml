(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5–§6) through the simulator, then microbenchmarks the
   compiler pass and the simulator's memory system with Bechamel.

   Figure pieces run their independent simulations concurrently on a
   domain pool (output stays byte-identical to a serial run — see
   docs/PERFORMANCE.md), and every invocation writes BENCH.json next to
   the human-readable output so the performance trajectory is tracked.
   Each piece is timed over several trials (min and median recorded) so a
   one-off scheduling hiccup cannot masquerade as a regression.

   Usage:
     main.exe [-j N] [--trials T] [--engine E]         run everything
     main.exe [...] quick           skip the slowest figures (fig6, fig9)
     main.exe [...] fig4 fig7 ...   run selected pieces only              *)

module Figures = Spf_harness.Figures
module Pool = Spf_harness.Pool
module Engine = Spf_sim.Engine
module Profile_guided = Spf_harness.Profile_guided
module Runner = Spf_harness.Runner
module Bench_json = Spf_harness.Bench_json

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks. *)

open Bechamel
open Toolkit

(* Compile-time cost of the pass (analysis + code generation) on each
   kernel's IR.  One Test.make per kernel; the IR is rebuilt inside the
   staged closure because the pass mutates it. *)
let pass_test ~name build_func =
  Test.make ~name
    (Staged.stage (fun () ->
         let f = build_func () in
         ignore (Spf_core.Pass.run f)))

let pass_tests () =
  let module Is = Spf_workloads.Is in
  let module Cg = Spf_workloads.Cg in
  let module Ra = Spf_workloads.Ra in
  let module Hj = Spf_workloads.Hj in
  let module G500 = Spf_workloads.G500 in
  let g =
    G500.kronecker { G500.scale = 8; edge_factor = 8; seed = 1; max_vertices = None }
  in
  Test.make_grouped ~name:"pass"
    [
      pass_test ~name:"IS" (fun () -> Is.build_func Is.default);
      pass_test ~name:"CG" (fun () -> Cg.build_func Cg.default);
      pass_test ~name:"RA" (fun () -> Ra.build_func Ra.default);
      pass_test ~name:"HJ-2" (fun () -> Hj.build_func Hj.default_hj2);
      pass_test ~name:"HJ-8" (fun () -> Hj.build_func Hj.default_hj8);
      pass_test ~name:"G500" (fun () -> G500.build_func g);
    ]

(* Memory-system fast paths: one [Memsys.access] per run.  "l1-hit"
   exercises the dominant path of every cache-friendly phase (TLB hit +
   L1 hit, no in-flight probe); "l1-miss-dram" pays the whole walk —
   in-flight table, L2/L3 scans, MSHR pacing and the DRAM channel.  The
   miss case strides through lines so each access misses a cold set. *)
let memsys_tests () =
  let module Machine = Spf_sim.Machine in
  let module Memsys = Spf_sim.Memsys in
  let module Dram = Spf_sim.Dram in
  let module Stats = Spf_sim.Stats in
  let module Interp = Spf_sim.Interp in
  let machine = Machine.haswell in
  let tscale = Interp.default_tscale in
  let mk () =
    let dram = Dram.create machine.Machine.dram ~tscale in
    Memsys.create machine ~tscale ~dram ~stats:(Stats.create ()) ()
  in
  let hit =
    let ms = mk () in
    ignore (Memsys.access ms ~kind:Memsys.Demand ~pc:0 ~addr:4096 ~now:0);
    Test.make ~name:"l1-hit"
      (Staged.stage (fun () ->
           ignore (Memsys.access ms ~kind:Memsys.Demand ~pc:0 ~addr:4096 ~now:0)))
  in
  let miss =
    let ms = mk () in
    let line = ref 0 in
    Test.make ~name:"l1-miss-dram"
      (Staged.stage (fun () ->
           (* A large prime stride in lines defeats every cache level
              without staying in one page: each access is a fresh DRAM
              fill, like the random phases of RA / HJ. *)
           line := !line + 8191;
           ignore
             (Memsys.access ms ~kind:Memsys.Demand ~pc:0
                ~addr:(!line * Machine.line_size)
                ~now:0)))
  in
  (* Per-instance set-up: [Interp.create] of an empty function, whose
     cost is dominated by the cache tag arrays (1 MiB for Haswell's L3).
     "fresh" drops every instance, so each create allocates; "reused"
     releases each one, so the next create takes the domain's spares. *)
  let create_tests =
    let func =
      let b = Spf_ir.Builder.create ~name:"empty" ~nparams:0 in
      Spf_ir.Builder.ret b None;
      Spf_ir.Builder.finish b
    in
    let mem = Spf_sim.Memory.create () in
    let create machine = Interp.create ~machine ~mem ~args:[||] func in
    List.concat_map
      (fun (m : Machine.t) ->
        [
          Test.make
            ~name:("interp-create-fresh/" ^ m.Machine.name)
            (Staged.stage (fun () -> ignore (create m)));
          Test.make
            ~name:("interp-create-reused/" ^ m.Machine.name)
            (Staged.stage (fun () -> Interp.release (create m)));
        ])
      Machine.all
  in
  Test.make_grouped ~name:"memsys" ([ hit; miss ] @ create_tests)

let run_bechamel () =
  Format.printf "@.=== Microbenchmarks (Bechamel) ===@.";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  List.iter
    (fun tests ->
      let raw = Benchmark.all cfg instances tests in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      (* Hashtbl.iter order is unspecified; sort for stable output. *)
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (t :: _) ->
              Format.printf "  %-20s %10.1f ns/run  (r² %s)@." name t
                (match Analyze.OLS.r_square ols with
                | Some r -> Printf.sprintf "%.3f" r
                | None -> "n/a")
          | Some [] | None -> Format.printf "  %-20s (no estimate)@." name)
        rows)
    [ pass_tests (); memsys_tests () ];
  0

(* ------------------------------------------------------------------ *)

(* Distance providers: the per-commit acceptance gate for the
   profile-guided subsystem — static (eq. 1, c = 64) vs profile-guided vs
   adaptive geomean speedups over the plain builds on Haswell and A53,
   with the chosen per-workload distances.  The evals are stashed so
   write_bench_json can emit them as "distance_providers". *)

let provider_evals : Profile_guided.eval list ref = ref []

let run_distance_providers ~engine =
  let ctx = Runner.ctx_of_engine (Some engine) in
  let machines = [ Spf_sim.Machine.haswell; Spf_sim.Machine.a53 ] in
  let evals =
    List.map
      (fun machine ->
        Profile_guided.evaluate ~ctx ~machine
          (Spf_harness.Benches.sweepable ()))
      machines
  in
  provider_evals := evals;
  List.iter
    (fun (e : Profile_guided.eval) ->
      Format.printf "  --- %s ---@." e.machine;
      List.iter
        (fun (r : Profile_guided.row) ->
          Format.printf
            "  %-10s static=%5.2fx  profile=%5.2fx (c=%d)  adaptive=%5.2fx@."
            r.bench
            (float_of_int r.plain_cycles /. float_of_int r.static_cycles)
            (float_of_int r.plain_cycles /. float_of_int r.profile_cycles)
            r.profile_c
            (float_of_int r.plain_cycles /. float_of_int r.adaptive_cycles))
        e.rows;
      Format.printf "  geomean    static=%.3fx  profile=%.3fx  adaptive=%.3fx@."
        e.geo_static e.geo_profile e.geo_adaptive)
    evals;
  List.fold_left
    (fun acc (e : Profile_guided.eval) ->
      List.fold_left
        (fun acc (r : Profile_guided.row) ->
          acc + r.plain_cycles + r.adaptive_cycles
          + List.fold_left (fun a (_, cy) -> a + cy) 0 r.sweep)
        acc e.rows)
    0 evals

(* ------------------------------------------------------------------ *)

(* The serve piece: start the compile-and-simulate service in-process on
   a temp Unix socket and replay the standard loadtest against it — 1000
   fuzz-generated programs, 50% duplication, concurrency 8.  The result
   (latency split, throughput, cache hit rate, corruption counters) is
   stashed for BENCH.json's "serve" section; the piece's own wall time is
   the loadtest wall plus server start/stop.

   The run is journaled: after the loadtest the server drains (which
   snapshots the cache journal), a second server starts on the same
   journal, and a shorter replay over a prefix of the same program pool
   measures the warm-start hit rate — how much of the cache a restart
   actually keeps. *)

let serve_result : Spf_serve.Loadtest.result option ref = ref None
let serve_warm : (float * int) option ref = ref None

let run_serve ~jobs ~engine =
  let sock = Filename.temp_file "spf-bench-serve" ".sock" in
  Sys.remove sock;
  let jdir = Filename.temp_file "spf-bench-journal" "" in
  Sys.remove jdir;
  let cfg =
    {
      (Spf_serve.Server.default_cfg (Unix_sock sock)) with
      jobs;
      journal_dir = Some jdir;
    }
  in
  let opts = [ ("engine", Engine.to_string engine) ] in
  let connect () = Spf_serve.Client.connect_unix sock in
  let server = Spf_serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Spf_serve.Server.stop server;
      Spf_serve.Server.wait server)
    (fun () ->
      let r =
        Spf_serve.Loadtest.run ~count:1000 ~dup:0.5 ~concurrency:8 ~opts
          ~connect ()
      in
      serve_result := Some r;
      Format.printf "  %a@." Spf_serve.Loadtest.pp r);
  (* Warm restart on the journal the drain just snapshotted.  The
     replay uses the same seed, so its 100-program pool is a prefix of
     the 500 distinct programs above: every request has been seen. *)
  let server2 = Spf_serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Spf_serve.Server.stop server2;
      Spf_serve.Server.wait server2)
    (fun () ->
      let js = Spf_serve.Rcache.journal_stats (Spf_serve.Server.cache server2) in
      let replayed =
        js.Spf_serve.Rcache.replayed_pass + js.Spf_serve.Rcache.replayed_sim
      in
      let wr =
        Spf_serve.Loadtest.run ~count:200 ~dup:0.5 ~concurrency:8 ~opts
          ~connect ()
      in
      serve_warm := Some (wr.Spf_serve.Loadtest.hit_rate, replayed);
      Format.printf
        "  warm restart: hit rate %.1f%% over %d requests (journal replayed \
         %d records)@."
        (100. *. wr.Spf_serve.Loadtest.hit_rate)
        wr.Spf_serve.Loadtest.programs replayed);
  (try Sys.remove (Filename.concat jdir "cache-journal") with Sys_error _ -> ());
  (try Unix.rmdir jdir with Unix.Unix_error _ -> ());
  0

(* ------------------------------------------------------------------ *)

(* Each piece returns the simulated cycles it executed.  [timed] is false
   for pieces that run no timing simulation (table1 profiles instruction
   mixes only) — those are recorded as skipped in BENCH.json rather than
   reported with a meaningless 0.000s wall. *)
type piece = {
  pname : string;
  timed : bool;
  run : jobs:int -> engine:Engine.t -> int;
}

let pieces : piece list =
  [
    {
      pname = "table1";
      timed = false;
      run = (fun ~jobs:_ ~engine:_ -> Figures.table1 (); 0);
    };
    { pname = "fig2"; timed = true; run = (fun ~jobs ~engine -> Figures.fig2 ~jobs ~engine ()) };
    {
      pname = "fig2-supervised";
      timed = true;
      run =
        (fun ~jobs ~engine ->
          (* The same cells as fig2, but under the whole supervision
             pipeline with a deadline armed (one no job hits) —
             no journal or bundles, so the piece isolates supervision
             overhead; BENCH.json reports it vs the raw fig2 walls. *)
          let sup =
            Spf_harness.Supervisor.(
              options
                ~policy:{ default_policy with deadline_s = Some 3600.0 }
                ~jobs ~engine ())
          in
          Figures.fig2 ~sup ());
    };
    { pname = "fig4"; timed = true; run = (fun ~jobs ~engine -> Figures.fig4 ~jobs ~engine ()) };
    { pname = "fig5"; timed = true; run = (fun ~jobs ~engine -> Figures.fig5 ~jobs ~engine ()) };
    { pname = "fig6"; timed = true; run = (fun ~jobs ~engine -> Figures.fig6 ~jobs ~engine ()) };
    { pname = "fig7"; timed = true; run = (fun ~jobs ~engine -> Figures.fig7 ~jobs ~engine ()) };
    { pname = "fig8"; timed = true; run = (fun ~jobs ~engine -> Figures.fig8 ~jobs ~engine ()) };
    { pname = "fig9"; timed = true; run = (fun ~jobs ~engine -> Figures.fig9 ~jobs ~engine ()) };
    { pname = "fig10"; timed = true; run = (fun ~jobs ~engine -> Figures.fig10 ~jobs ~engine ()) };
    {
      pname = "ablation";
      timed = true;
      run = (fun ~jobs ~engine -> Figures.ablation_flat_offsets ~jobs ~engine ());
    };
    {
      pname = "ablation-split";
      timed = true;
      run = (fun ~jobs ~engine -> Figures.ablation_split ~jobs ~engine ());
    };
    {
      pname = "distance-providers";
      timed = true;
      run = (fun ~jobs:_ ~engine -> run_distance_providers ~engine);
    };
    {
      pname = "serve";
      timed = true;
      run = (fun ~jobs ~engine -> run_serve ~jobs ~engine);
    };
    { pname = "bechamel"; timed = true; run = (fun ~jobs:_ ~engine:_ -> run_bechamel ()) };
  ]

let quick_set =
  [
    "table1";
    "fig2";
    "fig2-supervised";
    "fig4";
    "fig5";
    "fig7";
    "fig8";
    "fig10";
    "distance-providers";
    "serve";
    "bechamel";
  ]

(* Measurement record-keeping and BENCH.json rendering live in
   Spf_harness.Bench_json so the field semantics are unit-tested. *)

let write_bench_json ~jobs ~engine ~trials ~total_s ms =
  let serve =
    Option.map
      (fun (r : Spf_serve.Loadtest.result) ->
        {
          Bench_json.sv_requests = r.programs;
          sv_distinct = r.distinct;
          sv_concurrency = r.concurrency;
          sv_errors = r.errors;
          sv_dropped = r.dropped;
          sv_corrupted = r.corrupted;
          sv_cold = r.cold;
          sv_pass_hits = r.pass_hits;
          sv_sim_hits = r.sim_hits;
          sv_p50_us = r.p50_us;
          sv_p99_us = r.p99_us;
          sv_cold_p50_us = r.cold_p50_us;
          sv_hit_p50_us = r.hit_p50_us;
          sv_throughput_rps = r.throughput_rps;
          sv_hit_rate = r.hit_rate;
          sv_warm_hit_rate =
            (match !serve_warm with Some (hr, _) -> hr | None -> 0.);
          sv_journal_replayed =
            (match !serve_warm with Some (_, n) -> n | None -> 0);
        })
      !serve_result
  in
  Bench_json.write ~path:"BENCH.json" ~jobs ~engine ~trials ~total_s
    ~providers:!provider_evals ?serve ms

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Parse -j/--jobs N, --trials T and --engine E anywhere on the command
     line; remaining words select pieces. *)
  let jobs = ref None and trials = ref 3 and engine = ref Engine.default in
  let rec split acc = function
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := Some j;
            split acc rest
        | _ ->
            Format.eprintf "invalid jobs count %S@." n;
            exit 2)
    | "--trials" :: n :: rest -> (
        match int_of_string_opt n with
        | Some t when t >= 1 ->
            trials := t;
            split acc rest
        | _ ->
            Format.eprintf "invalid trial count %S@." n;
            exit 2)
    | "--engine" :: e :: rest -> (
        match Engine.of_string e with
        | Some e ->
            engine := e;
            split acc rest
        | None ->
            Format.eprintf "invalid engine %S (expected %s)@." e
              (String.concat "|" (List.map Engine.to_string Engine.all));
            exit 2)
    | x :: rest -> split (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = split [] args in
  let jobs = match !jobs with Some j -> j | None -> Pool.default_jobs () in
  let trials = !trials and engine = !engine in
  let selected =
    match args with
    | [] -> List.map (fun p -> p.pname) pieces
    | [ "quick" ] -> quick_set
    | names -> names
  in
  let t0 = Unix.gettimeofday () in
  let measurements = ref [] in
  let timed_run p =
    let t = Unix.gettimeofday () in
    let cycles = p.run ~jobs ~engine in
    (Unix.gettimeofday () -. t, cycles)
  in
  let record (m : Bench_json.measurement) n =
    measurements := m :: !measurements;
    if not m.skipped then
      Format.printf "  [%s: min %.1fs, median %.1fs over %d trials]@." m.name
        (Bench_json.min_wall m) (Bench_json.median_wall m) n
  in
  let find_piece name = List.find_opt (fun p -> p.pname = name) pieces in
  (* fig2 and fig2-supervised exist to be compared, so when both are
     selected their trials interleave (raw, supervised, raw, ...) after
     one shared warmup run that no sample keeps: measuring one piece
     cold and the other warm once produced a negative "overhead". *)
  let handled = ref [] in
  List.iter
    (fun name ->
      if List.mem name !handled then ()
      else
        match find_piece name with
        | Some p ->
            let partner =
              match name with
              | "fig2" -> Some "fig2-supervised"
              | "fig2-supervised" -> Some "fig2"
              | _ -> None
            in
            (match partner with
            | Some other when List.mem other selected ->
                handled := other :: !handled;
                let praw = Option.get (find_piece "fig2") in
                let psup = Option.get (find_piece "fig2-supervised") in
                ignore (timed_run praw) (* shared warmup, excluded *);
                let wraw = ref [] and wsup = ref [] in
                let craw = ref 0 and csup = ref 0 in
                for _ = 1 to trials do
                  let w, c = timed_run praw in
                  wraw := w :: !wraw;
                  craw := c;
                  let w, c = timed_run psup in
                  wsup := w :: !wsup;
                  csup := c
                done;
                record
                  {
                    Bench_json.name = "fig2";
                    skipped = false;
                    walls_s = List.rev !wraw;
                    cycles = !craw;
                  }
                  trials;
                record
                  {
                    Bench_json.name = "fig2-supervised";
                    skipped = false;
                    walls_s = List.rev !wsup;
                    cycles = !csup;
                  }
                  trials
            | _ ->
                (* Untimed pieces run once (their output is the point);
                   timed pieces run [trials] times and record every wall
                   sample. *)
                let n = if p.timed then trials else 1 in
                let walls = ref [] and cycles = ref 0 in
                for _ = 1 to n do
                  let w, c = timed_run p in
                  walls := w :: !walls;
                  cycles := c
                done;
                record
                  {
                    Bench_json.name;
                    skipped = not p.timed;
                    walls_s = List.rev !walls;
                    cycles = !cycles;
                  }
                  n)
        | None ->
            Format.eprintf "unknown piece %S; known: quick %s@." name
              (String.concat " " (List.map (fun p -> p.pname) pieces)))
    selected;
  let total_s = Unix.gettimeofday () -. t0 in
  Format.printf "@.total wall time: %.1fs (jobs=%d, trials=%d, engine=%s)@."
    total_s jobs trials (Engine.to_string engine);
  write_bench_json ~jobs ~engine ~trials ~total_s (List.rev !measurements);
  Format.printf "wrote BENCH.json@."
