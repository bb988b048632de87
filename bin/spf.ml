(* spf — command-line driver for the software-prefetching reproduction.

   Subcommands:
     list                      available benchmarks and machines
     show <bench>              dump a benchmark's IR before/after the pass
     run <bench>               simulate one benchmark on one machine
     fig <id>|all              regenerate a paper figure/table
     sweep <bench>             look-ahead sweep for one benchmark
     profile <bench>           per-pc hit/miss attribution from one timed run
     split <bench>             loop splitting + clamp-free prefetching
     fuzz                      differential fuzzing of the pass
     validate <case>           translation validation: proof or counterexample
     replay <bundle>           re-run a crash bundle offline
     serve / loadtest / chaos  the simulation service and its drivers

   Campaign subcommands (fig, fuzz, validate --golden/--corpus) run their
   jobs through Spf_harness.Supervisor, which retries a transient failure
   once; --resume DIR / --deadline / --retries add checkpoint/resume
   (byte-identical stdout) with replayable crash bundles under
   DIR/bundles, per-job deadlines, and a retry budget.  Exit codes: 0
   success, 1 fuzz divergence or refutation, 2 usage error (an unknown
   figure, a stale profile...) or validation give-up, 3 campaign
   incomplete (fig, fuzz: a job failed permanently). *)

module Machine = Spf_sim.Machine
module Workload = Spf_workloads.Workload
module Benches = Spf_harness.Benches
module Figures = Spf_harness.Figures
module Runner = Spf_harness.Runner
open Cmdliner

let bench_conv =
  let parse s =
    match
      List.find_opt
        (fun (b : Benches.bench) ->
          String.lowercase_ascii b.id = String.lowercase_ascii s)
        (Benches.all ())
    with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (try: %s)" s
               (String.concat ", "
                  (List.map (fun (b : Benches.bench) -> b.id) (Benches.all ())))))
  in
  Arg.conv (parse, fun fmt (b : Benches.bench) -> Format.pp_print_string fmt b.id)

let machine_conv =
  let parse s =
    match Machine.by_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown machine %S (try: %s)" s
               (String.concat ", " (List.map (fun m -> m.Machine.name) Machine.all))))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt m.Machine.name)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Machine.haswell
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Target machine model (haswell, a57, a53, xeonphi).")

let engine_arg =
  let alts =
    List.map
      (fun e -> (Spf_sim.Engine.to_string e, e))
      Spf_sim.Engine.all
  in
  Arg.(
    value
    & opt (enum alts) Spf_sim.Engine.default
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulator engine: $(b,interp) (classic instruction walker, \
           the reference semantics) or $(b,tape) (struct-of-arrays \
           micro-op tape with superblock fall-through, the default).  \
           The two are bit-identical; tape is faster.")

type variant = Baseline | Auto | Icc | Manual

let variant_arg =
  let alts =
    [ ("baseline", Baseline); ("auto", Auto); ("icc", Icc); ("manual", Manual) ]
  in
  Arg.(
    value
    & opt (enum alts) Auto
    & info [ "v"; "variant" ] ~docv:"VARIANT"
        ~doc:"baseline | auto (our pass) | icc (restricted model) | manual.")

let c_arg =
  Arg.(
    value
    & opt int 64
    & info [ "c" ] ~docv:"C" ~doc:"Look-ahead constant of eq. (1).")

let assume_margin_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "assume-margin" ] ~docv:"BYTES"
        ~doc:
          "(testing) Deliberately unsound pass variant: look-ahead \
           address offsets of at most $(docv) bytes skip the §4.2 \
           fault-avoidance clamp.  Exists so the validator and the \
           symbolic fuzz oracle can be shown to catch the faults this \
           introduces.")

let with_margin margin config =
  match margin with
  | None -> config
  | Some m -> { config with Spf_core.Config.assume_margin = m }

(* --- distance-provider flags ------------------------------------------ *)

let provider_kind_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [
                ("static", `Static);
                ("fixed", `Fixed);
                ("profile", `Profile);
                ("adaptive", `Adaptive);
              ]))
        None
    & info [ "distance-provider" ] ~docv:"PROVIDER"
        ~doc:
          "Where each loop's look-ahead distance comes from: $(b,static) \
           (eq. 1 with $(b,--c), the paper's default), $(b,fixed) \
           (per-loop $(b,--dist-loop) overrides), $(b,profile) (a signed \
           profile file from $(b,spf profile -o), via $(b,--profile-in)), \
           or $(b,adaptive) (per-loop distance registers re-tuned online \
           by the simulator's windowed controller).")

let profile_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-in" ] ~docv:"FILE"
        ~doc:
          "Profile file for $(b,--distance-provider=profile), as written \
           by $(b,spf profile BENCH -o FILE).  Profiles are stamped with \
           a digest of the plain program and the machine model; a stale \
           or mismatched file is rejected with a diagnostic (exit 2).")

let dist_loop_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' int int) []
    & info [ "dist-loop" ] ~docv:"HEADER=C"
        ~doc:
          "With $(b,--distance-provider=fixed): look-ahead constant for \
           the loop whose pre-pass header block is $(i,HEADER) \
           (repeatable).  A value <= 0 disables prefetching for that \
           loop.")

let die fmtstr =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit 2)
    fmtstr

(* Resolve the provider flags against the plain (pre-pass) program —
   profile files are validated here, so a stale file dies with its
   diagnostic before any simulation runs. *)
let resolve_provider kind ~dist_loops ~profile_in ~c ~(machine : Machine.t)
    ~(func : Spf_ir.Ir.func) =
  match kind with
  | None | Some `Static -> Spf_core.Distance.Static
  | Some `Fixed ->
      Spf_core.Distance.Fixed { default_c = Some c; per_loop = dist_loops }
  | Some `Adaptive ->
      Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive
  | Some `Profile -> (
      match profile_in with
      | None -> die "spf: --distance-provider=profile needs --profile-in FILE"
      | Some file -> (
          match Spf_core.Profdata.load file with
          | Error msg -> die "spf: %s" msg
          | Ok pd -> (
              match
                Spf_core.Profdata.check pd ~func ~machine:machine.Machine.name
              with
              | Error msg -> die "spf: %s: %s" file msg
              | Ok () -> Spf_core.Profdata.provider pd)))

let build_variant (b : Benches.bench) variant ~machine ~c =
  match variant with
  | Baseline -> b.Benches.plain ()
  | Auto ->
      Benches.auto
        ~config:(Spf_core.Config.with_c c Spf_core.Config.default)
        (b.Benches.plain ())
  | Icc ->
      Benches.icc
        ~config:(Spf_core.Config.with_c c Spf_core.Config.default)
        (b.Benches.plain ())
  | Manual -> b.Benches.manual ~machine ~c:(Some c)

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let doc = "List benchmarks and machine models." in
  let run () =
    Format.printf "benchmarks:@.";
    List.iter
      (fun (b : Benches.bench) -> Format.printf "  %s@." b.id)
      (Benches.all ());
    Format.printf "machines:@.";
    List.iter (fun m -> Format.printf "  %a@." Machine.pp m) Machine.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- show ------------------------------------------------------------- *)

let show_cmd =
  let doc = "Dump a benchmark's IR before and after the prefetching pass." in
  let run bench c =
    let b = bench.Benches.plain () in
    Format.printf "=== %s: IR before the pass ===@.%s@." b.Workload.name
      (Spf_ir.Printer.func_to_string b.Workload.func);
    let report =
      Spf_core.Pass.run
        ~config:(Spf_core.Config.with_c c Spf_core.Config.default)
        b.Workload.func
    in
    Format.printf "=== pass report ===@.%a@."
      (Spf_core.Pass.pp_report b.Workload.func)
      report;
    Format.printf "=== IR after the pass ===@.%s@."
      (Spf_ir.Printer.func_to_string b.Workload.func)
  in
  Cmd.v
    (Cmd.info "show" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")
      $ c_arg)

(* --- run -------------------------------------------------------------- *)

let run_cmd =
  let doc = "Simulate one benchmark variant on one machine." in
  let run bench machine variant c engine pkind profile_in dist_loops =
    let built, tuner =
      match pkind with
      | None -> (build_variant bench variant ~machine ~c, None)
      | Some _ ->
          if variant <> Auto then
            die "spf run: --distance-provider applies to the auto variant only";
          let plain = bench.Benches.plain () in
          let provider =
            resolve_provider pkind ~dist_loops ~profile_in ~c ~machine
              ~func:plain.Workload.func
          in
          let config =
            Spf_core.Config.with_provider provider
              (Spf_core.Config.with_c c Spf_core.Config.default)
          in
          let built, report = Benches.auto_with_report ~config plain in
          List.iter
            (fun (ld : Spf_core.Pass.loop_distance) ->
              if ld.enabled then
                Format.printf "  loop bb%d: distance c=%d%s@." ld.header
                  ld.distance
                  (if ld.dist_slot <> None then " (adaptive register)" else "")
              else Format.printf "  loop bb%d: prefetching disabled@." ld.header)
            report.Spf_core.Pass.loop_distances;
          ( built,
            Spf_harness.Profile_guided.tuner_of_report ~machine
              built.Workload.func report )
    in
    let r = Runner.run ~engine ?tuner ~machine built in
    (match tuner with
    | Some tu ->
        List.iter
          (fun (header, final_c) ->
            Format.printf "  loop bb%d: final adaptive c=%d (%d windows)@."
              header final_c (Spf_sim.Tuner.windows tu))
          (Spf_sim.Tuner.final tu)
    | None -> ());
    Format.printf "%s on %s: %a@." built.Workload.name machine.Machine.name
      Spf_sim.Stats.pp r.Runner.stats;
    if variant <> Baseline then begin
      let base = Runner.run ~engine ~machine (bench.Benches.plain ()) in
      Format.printf "speedup vs baseline: %.2fx (insts %+.0f%%)@."
        (Runner.speedup ~baseline:base r)
        (Runner.extra_instructions ~baseline:base r)
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")
      $ machine_arg $ variant_arg $ c_arg $ engine_arg $ provider_kind_arg
      $ profile_in_arg $ dist_loop_arg)

(* --- fig -------------------------------------------------------------- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of domains for the simulation pool (default: the \
           machine's recommended domain count).  Output is byte-identical \
           for every value.")

(* --- supervision flags shared by the campaign subcommands -------------- *)

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"DIR"
        ~doc:
          "Campaign directory: completed cells are journalled to \
           $(docv)/journal as they finish, so re-running the same command \
           with the same $(docv) and the same build of $(b,spf) skips \
           them and produces byte-identical output (a journal written by \
           another build is refused); permanently-failed jobs leave \
           replayable crash bundles under $(docv)/bundles (see \
           $(b,spf replay)).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Per-job wall-clock budget.  A job that exceeds it is \
           cancelled cooperatively: the simulator checks the clock \
           every 1024 basic blocks (the validator every symbolic step) \
           and stops at the first check past the deadline.  Timeouts \
           are retried, then reported.")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-runs allowed per job after transient failures or timeouts \
           (exponential backoff; default 1).")

(* Every campaign runs under the supervisor; the flags tune it.
   [campaign] is the identity line the journal pins (with the build's
   digest), so a journal cannot silently be reused across a different
   seed/figure/engine or build.  A journal that refuses to load (another
   campaign's, or damaged) is a usage error: its diagnostic, exit 2. *)
let supervision ~campaign ~jobs ~engine ~resume ~deadline ~retries =
  let journal =
    Option.map
      (fun dir ->
        try Spf_harness.Journal.start ~dir ~campaign
        with Failure msg -> die "spf: %s" msg)
      resume
  in
  let bundle_root =
    Option.map (fun dir -> Filename.concat dir "bundles") resume
  in
  let policy =
    {
      Spf_harness.Supervisor.default_policy with
      deadline_s = deadline;
      retries =
        Option.value retries
          ~default:Spf_harness.Supervisor.default_policy.retries;
    }
  in
  Spf_harness.Supervisor.options ~policy ?jobs ~engine ?journal ?bundle_root
    ()

(* Run a fig or fuzz campaign; when jobs failed permanently (already
   reported on stderr), say so and exit 3.  Checkpoints are mentioned
   only when a journal was kept. *)
let campaign_exit ~what ~noun ~resume f =
  try f ()
  with Spf_harness.Supervisor.Campaign_failed n ->
    Format.eprintf "%s: %d %s(s) failed permanently%s@." what n noun
      (match resume with
      | Some dir ->
          Printf.sprintf
            "; completed %ss are checkpointed in %s — rerun the same \
             command to retry only the failures"
            noun dir
      | None -> "");
    exit 3

let fig_cmd =
  let doc = "Regenerate a figure/table from the paper's evaluation." in
  let run which jobs engine resume deadline retries pkind =
    (* Providers needing per-program inputs (fixed's loop headers, a
       profile file measured for one benchmark) cannot apply across a
       whole figure grid; [spf run] is their consumption path. *)
    let provider =
      match pkind with
      | None | Some `Static -> Spf_core.Distance.Static
      | Some `Adaptive ->
          Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive
      | Some (`Fixed | `Profile) ->
          die
            "spf fig: --distance-provider=%s needs per-program inputs \
             (--dist-loop headers / a --profile-in file); figures accept \
             static or adaptive — use spf run for per-program providers"
            (match pkind with Some `Fixed -> "fixed" | _ -> "profile")
    in
    let figs =
      if which = "all" then Figures.table
      else
        match List.find_opt (fun f -> Figures.name f = which) Figures.table with
        | Some f -> [ f ]
        | None ->
            die "unknown figure %S; known: all %s" which
              (String.concat " " (List.map Figures.name Figures.table))
    in
    let campaign =
      Printf.sprintf "fig %s engine=%s provider=%s" which
        (Spf_sim.Engine.to_string engine)
        (Spf_core.Distance.kind provider)
    in
    let sup =
      supervision ~campaign ~jobs ~engine ~resume ~deadline ~retries
    in
    campaign_exit ~what:("fig " ^ which) ~noun:"cell" ~resume (fun () ->
        List.iter (fun f -> ignore (Figures.run sup ~provider f)) figs)
  in
  Cmd.v
    (Cmd.info "fig" ~doc)
    Term.(
      const run
      $ Arg.(value & pos 0 string "all" & info [] ~docv:"FIG")
      $ jobs_arg $ engine_arg $ resume_arg $ deadline_arg $ retries_arg
      $ provider_kind_arg)

(* --- split ------------------------------------------------------------ *)

let split_cmd =
  let doc =
    "Apply loop splitting + clamp-free prefetching (the hoisted-checks      optimisation, §6.1) to a benchmark and show the result."
  in
  let run bench machine c =
    let b = bench.Benches.plain () in
    let config = Spf_core.Config.with_c c Spf_core.Config.default in
    let splits, report =
      Spf_core.Split.split_and_prefetch ~config b.Workload.func
    in
    Format.printf "%d loop(s) split@." (List.length splits);
    Format.printf "=== pass report ===@.%a@."
      (Spf_core.Pass.pp_report b.Workload.func)
      report;
    Format.printf "=== IR after split + prefetch ===@.%s@."
      (Spf_ir.Printer.func_to_string b.Workload.func);
    let r = Runner.run ~machine b in
    let base = Runner.run ~machine (bench.Benches.plain ()) in
    Format.printf "speedup vs baseline on %s: %.2fx (insts %+.0f%%)@."
      machine.Machine.name
      (Runner.speedup ~baseline:base r)
      (Runner.extra_instructions ~baseline:base r)
  in
  Cmd.v
    (Cmd.info "split" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")
      $ machine_arg $ c_arg)

(* --- profile ---------------------------------------------------------- *)

let profile_cmd =
  let doc =
    "Profile a benchmark's memory accesses per instruction site: one \
     timed run of the variant, then for each load, store and prefetch \
     where its accesses were satisfied (L1, L2, L3, a fill still in \
     flight, a DRAM fill, or dropped under DRAM backlog) and how many of \
     its prefetches were late or unused, followed by the per-loop \
     totals.  With $(b,-o FILE), measure a signed distance profile \
     instead: per-loop attribution of the plain program plus a \
     look-ahead sweep of the transformed one, consumable via $(b,spf \
     run --distance-provider=profile --profile-in FILE)."
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write a distance profile to $(docv): the per-loop chosen \
             look-ahead constants, stamped with a digest of the plain \
             program and the machine model so stale profiles are \
             rejected at consumption time.")
  in
  let run bench machine variant c out =
    match out with
    | Some file ->
        let pd, sweep =
          Spf_harness.Profile_guided.profile ~machine bench
        in
        List.iter
          (fun (c, cy) -> Format.printf "  c=%-4d %d cycles@." c cy)
          sweep;
        List.iter
          (fun (l : Spf_core.Profdata.loop_entry) ->
            Format.printf "  loop bb%d: c=%d (%d accesses, %d misses)@."
              l.header l.c l.accesses l.misses)
          pd.Spf_core.Profdata.loops;
        Spf_core.Profdata.save file pd;
        Format.printf "wrote %s (machine %s)@." file
          pd.Spf_core.Profdata.machine
    | None ->
        let built = build_variant bench variant ~machine ~c in
        let attrib = Spf_sim.Attrib.create built.Workload.func in
        ignore (Runner.run ~attrib ~machine built);
        Format.printf "%a%a" Spf_sim.Attrib.pp_sites attrib Spf_sim.Attrib.pp
          attrib
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")
      $ machine_arg $ variant_arg $ c_arg $ out_arg)

(* --- sweep ------------------------------------------------------------ *)

let sweep_cmd =
  let doc = "Sweep the look-ahead constant for one benchmark (manual scheme)." in
  let run bench machine =
    let base = Runner.run ~machine (bench.Benches.plain ()) in
    List.iter
      (fun c ->
        let r = Runner.run ~machine (bench.Benches.manual ~machine ~c:(Some c)) in
        Format.printf "c=%-4d speedup %.2fx@." c (Runner.speedup ~baseline:base r))
      [ 4; 8; 16; 32; 64; 128; 256 ]
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")
      $ machine_arg)

(* --- fuzz ------------------------------------------------------------- *)

let fuzz_cmd =
  let doc =
    "Differentially fuzz the prefetching pass: random indirect-access \
     programs run original vs. transformed under fault-injection \
     semantics; outcomes must agree, no exception may escape the pass, \
     and wild prefetches must be dropped non-faulting (§4.2/§4.4)."
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Campaign RNG seed.")
  in
  let count_arg =
    Arg.(
      value & opt int 500
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of generated programs.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily shrink failing cases to minimal reproducers.")
  in
  let oracle_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("concrete", `Concrete);
               ("cross-engine", `Cross);
               ("symbolic", `Symbolic);
             ])
          `Concrete
      & info [ "oracle" ] ~docv:"MODE"
          ~doc:
            "Oracle mode: $(b,concrete) (the default differential run), \
             $(b,cross-engine) (every generated program, plain and \
             transformed, runs under $(b,interp) and $(b,tape), which must \
             agree on the outcome and on every stats counter, cycles \
             included; a divergence names the first differing counter), \
             or $(b,symbolic) — the concrete run backed by a \
             translation-validation proof over all environments.  \
             Symbolic counterexamples shrink and bundle exactly like \
             concrete divergences; cases the validator can neither prove \
             nor refute are counted (and a give-up rate printed), not \
             failed.")
  in
  let inject_hang_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-hang" ] ~docv:"N"
          ~doc:
            "(testing) Replace case $(docv) with an infinite simulator \
             loop, exercising the deadline cancellation path.  Requires \
             $(b,--deadline).")
  in
  let inject_crash_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-crash" ] ~docv:"N"
          ~doc:
            "(testing) Make case $(docv) raise, exercising the failure \
             report and, with $(b,--resume), the crash-bundle path.")
  in
  let run seed count shrink c margin jobs engine oracle resume deadline
      retries inject_hang inject_crash pkind =
    (* Provider-preservation fuzzing: any provider must leave the
       transformation semantics-preserving.  Profile is per-program
       (there is no profile file for a generated case), so only the
       synthesisable providers are accepted. *)
    let provider =
      match pkind with
      | None | Some `Static -> Spf_core.Distance.Static
      | Some `Fixed ->
          Spf_core.Distance.Fixed { default_c = None; per_loop = [] }
      | Some `Adaptive ->
          Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive
      | Some `Profile ->
          die
            "spf fuzz: --distance-provider=profile is per-program (a \
             generated case has no profile file); fuzz accepts static, \
             fixed or adaptive"
    in
    let config =
      Spf_core.Config.with_provider provider
        (with_margin margin (Spf_core.Config.with_c c Spf_core.Config.default))
    in
    let mode =
      match oracle with
      | `Concrete -> Spf_fuzz.Oracle.Concrete (Some engine)
      | `Cross -> Spf_fuzz.Oracle.Cross_engine
      | `Symbolic -> Spf_fuzz.Oracle.Symbolic
    in
    let campaign =
      Printf.sprintf "fuzz seed=%d count=%d c=%d oracle=%s margin=%s \
                      provider=%s"
        seed count c
        (Spf_fuzz.Oracle.mode_to_string mode)
        (match margin with Some m -> string_of_int m | None -> "-")
        (Spf_core.Distance.kind provider)
    in
    (* Without a deadline an injected hang would never end. *)
    if inject_hang <> None && deadline = None then
      die "spf fuzz: --inject-hang needs --deadline";
    let inject =
      match (inject_hang, inject_crash) with
      | Some n, _ -> Some (n, Spf_fuzz.Driver.Hang)
      | None, Some n -> Some (n, Spf_fuzz.Driver.Crash)
      | None, None -> None
    in
    let sup = supervision ~campaign ~jobs ~engine ~resume ~deadline ~retries in
    campaign_exit ~what:"fuzz" ~noun:"case" ~resume (fun () ->
        let s =
          Spf_fuzz.Driver.run ~config ~oracle:mode ~shrink ~seed ~sup ?inject
            ~count ()
        in
        Format.printf "%a" Spf_fuzz.Driver.pp_summary s;
        if not (Spf_fuzz.Driver.ok s) then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seed_arg $ count_arg $ shrink_arg $ c_arg
      $ assume_margin_arg $ jobs_arg $ engine_arg $ oracle_arg $ resume_arg $ deadline_arg $ retries_arg
      $ inject_hang_arg $ inject_crash_arg $ provider_kind_arg)

(* --- validate ---------------------------------------------------------- *)

let validate_cmd =
  let doc =
    "Translation validation: symbolically prove the prefetch pass \
     semantics-preserving on a program, or print a confirmed, runnable \
     counterexample.  Exit 0: proved; 1: refuted; 2: gave up (the \
     checker over-approximates, so an unconfirmed proof failure is a \
     give-up, never a refutation).  See docs/ROBUSTNESS.md."
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A runnable $(b,.case) file (program + concrete environment; \
             the format $(b,spf validate) itself prints counterexamples \
             in).")
  in
  let golden_arg =
    Arg.(
      value & flag
      & info [ "golden" ]
          ~doc:
            "Validate the six distinct (program, transformed) pairs \
             behind the golden timing suite (34 rows under both engines, \
             68 cells): IS, CG, RA, HJ-2 and HJ-8 under the automatic \
             pass, plus HJ-8 under the manual scheme.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Validate every $(b,*.case) file under $(docv).  Each file \
             runs as a campaign job ($(b,validate/<file>)): a file that \
             does not parse, or a proof search that exceeds the \
             deadline, is a give-up row naming the reason instead of \
             poisoning the sweep, and completed files checkpoint/resume \
             through the journal.")
  in
  let gen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "gen-corpus" ] ~docv:"DIR"
          ~doc:
            "Generate a validation corpus under $(docv): random \
             generated programs whose original run completes, which the \
             pass actually transforms, and which the validator proves, \
             written as $(b,NNN.case) until $(b,--count) are collected.")
  in
  let count_arg =
    Arg.(
      value & opt int 25
      & info [ "n"; "count" ] ~docv:"N"
          ~doc:"Cases to collect with $(b,--gen-corpus).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Generation seed for $(b,--gen-corpus).")
  in
  let run file golden corpus gen count seed margin jobs engine resume deadline
      retries =
    let config = with_margin margin Spf_core.Config.default in
    let sup what =
      let campaign =
        Printf.sprintf "validate %s margin=%s" what
          (match margin with Some m -> string_of_int m | None -> "-")
      in
      supervision ~campaign ~jobs ~engine ~resume ~deadline ~retries
    in
    (* Fold a batch of per-pair statuses into output + exit code:
       refutation dominates give-up dominates proved. *)
    let finish rows =
      let proved = ref 0 and refuted = ref 0 and gave_up = ref 0 in
      List.iter
        (fun (name, st) ->
          (match st with
          | Spf_valid.Validate.S_proved _ -> incr proved
          | Spf_valid.Validate.S_refuted _ -> incr refuted
          | Spf_valid.Validate.S_gave_up _ -> incr gave_up);
          Format.printf "%s: %s@." name
            (Spf_valid.Validate.status_to_string st))
        rows;
      Format.printf "validate: %d proved, %d refuted, %d gave up@." !proved
        !refuted !gave_up;
      if !refuted > 0 then exit 1 else if !gave_up > 0 then exit 2
    in
    match (file, golden, corpus, gen) with
    | Some f, false, None, None -> (
        let case =
          try Spf_valid.Case.load f
          with
          | Spf_ir.Parser.Parse_error { line; msg } ->
              Format.eprintf "spf validate: %s:%d: %s@." f line msg;
              exit 2
          | Sys_error m ->
              Format.eprintf "spf validate: %s@." m;
              exit 2
        in
        match Spf_valid.Validate.check_case ~config case with
        | Spf_valid.Validate.Proved { paths; obligations } ->
            Format.printf "%s: proved (%d paths, %d look-ahead obligations)@."
              f paths obligations
        | Spf_valid.Validate.Refuted { detail; cex; case } ->
            Format.printf "%s: refuted: %s@." f detail;
            Format.printf
              "  confirmed at brk=%d: original %s, transformed %s%s@."
              cex.Spf_valid.Model.brk
              (Spf_valid.Model.outcome_to_string cex.Spf_valid.Model.original)
              (Spf_valid.Model.outcome_to_string
                 cex.Spf_valid.Model.transformed)
              (if cex.Spf_valid.Model.introduced_fault then
                 " (fault at a pass-inserted instruction)"
               else "");
            Format.printf ";; counterexample as a runnable case:@.%s@."
              (Spf_valid.Case.to_string case);
            exit 1
        | Spf_valid.Validate.Gave_up r ->
            Format.printf "%s: gave up: %s@." f r;
            exit 2)
    | None, true, None, None ->
        finish (Spf_valid.Validate.check_golden ~config ~sup:(sup "golden") ())
    | None, false, Some dir, None ->
        (* Before [sup]: a --resume journal must not outlive a bad DIR. *)
        (try ignore (Sys.readdir dir)
         with Sys_error m -> die "spf validate: %s" m);
        finish
          (Spf_valid.Validate.check_corpus ~config ~sup:(sup ("corpus=" ^ dir))
             dir)
    | None, false, None, Some dir -> (
        (try if not (Sys.is_directory dir) then begin
           Format.eprintf "spf validate: %s exists and is not a directory@." dir;
           exit 2
         end
         with Sys_error _ -> Sys.mkdir dir 0o755);
        let kept = ref 0 and tried = ref 0 in
        while !kept < count do
          let spec =
            Spf_fuzz.Gen.random (Spf_workloads.Rng.split ~seed !tried)
          in
          incr tried;
          (* Three gates: the original completes and the concrete oracle
             agrees; the pass emits at least one prefetch (an untouched
             program proves trivially and tests nothing); and the
             validator proves the file as it will be re-read — saved
             first, then loaded back, so the corpus check in CI exercises
             the exact parse-validate path. *)
          match Spf_fuzz.Oracle.check spec with
          | Spf_fuzz.Oracle.Agree a
            when (not a.Spf_fuzz.Oracle.discarded)
                 && a.Spf_fuzz.Oracle.report.Spf_core.Pass.n_prefetches > 0 ->
              let b = Spf_fuzz.Gen.build spec in
              let case =
                Spf_valid.Case.of_concrete ~func:b.Spf_fuzz.Gen.func
                  ~mem:b.Spf_fuzz.Gen.mem ~args:b.Spf_fuzz.Gen.args
                  ~fuel:(Spf_fuzz.Gen.fuel spec)
              in
              let path =
                Filename.concat dir (Printf.sprintf "%03d.case" !kept)
              in
              Spf_valid.Case.save path case;
              (match
                 Spf_valid.Validate.check_case ~config
                   (Spf_valid.Case.load path)
               with
              | Spf_valid.Validate.Proved { paths; obligations } ->
                  Format.printf "%s: proved (%d paths, %d obligations) — %s@."
                    path paths obligations
                    (Spf_fuzz.Gen.to_string spec);
                  incr kept
              | _ -> Sys.remove path)
          | _ -> ()
        done;
        Format.printf "gen-corpus: kept %d/%d generated programs in %s@."
          !kept !tried dir)
    | _ ->
        Format.eprintf
          "spf validate: give exactly one of FILE, --golden, --corpus or \
           --gen-corpus@.";
        exit 2
  in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(
      const run $ file_arg $ golden_arg $ corpus_arg $ gen_arg $ count_arg
      $ seed_arg $ assume_margin_arg $ jobs_arg $ engine_arg $ resume_arg
      $ deadline_arg $ retries_arg)

(* --- replay ------------------------------------------------------------ *)

let replay_cmd =
  let doc =
    "Re-run a crash bundle captured by a supervised campaign.  Exit 0: \
     the recorded job ran clean (the failure was transient or injected); \
     exit 1: the failure reproduced (fuzz divergence or crash); exit 2: \
     the bundle itself is unusable."
  in
  let run dir =
    let b =
      try Spf_harness.Bundle.read dir
      with Failure msg ->
        Format.eprintf "spf replay: %s@." msg;
        exit 2
    in
    match Spf_harness.Bundle.meta_value b "kind" with
    | Some "fuzz-case" -> (
        match Spf_fuzz.Replay.replay b with
        | Spf_fuzz.Replay.Clean ->
            Format.printf "replay %s: clean — the recorded case no longer \
                           fails@." dir
        | Spf_fuzz.Replay.Divergence d ->
            Format.printf "replay %s: divergence reproduced: %s@." dir d;
            exit 1
        | Spf_fuzz.Replay.Undecided r ->
            Format.printf "replay %s: undecided — the validator gave up \
                           re-checking this case: %s@." dir r;
            exit 2
        | exception Failure msg ->
            Format.eprintf "spf replay: %s@." msg;
            exit 2
        | exception e ->
            Format.printf "replay %s: crash reproduced: %s@." dir
              (Printexc.to_string e);
            exit 1)
    | Some "fig-cell" -> (
        let req k =
          match Spf_harness.Bundle.meta_value b k with
          | Some v -> v
          | None ->
              Format.eprintf "spf replay: bundle records no %S@." k;
              exit 2
        in
        let figure = req "figure" in
        let index =
          match int_of_string_opt (req "index") with
          | Some i -> i
          | None ->
              Format.eprintf "spf replay: bad index %S@." (req "index");
              exit 2
        in
        let engine =
          Option.bind
            (Spf_harness.Bundle.meta_value b "engine")
            Spf_sim.Engine.of_string
        in
        (* The campaign's provider, which [spf fig] accepts only as
           static or adaptive; a bundle without one predates the record
           and came from a static campaign. *)
        let provider =
          match Spf_harness.Bundle.meta_value b "provider" with
          | None | Some "static" -> Spf_core.Distance.Static
          | Some "adaptive" ->
              Spf_core.Distance.Adaptive Spf_core.Distance.default_adaptive
          | Some p ->
              Format.eprintf "spf replay: bundle records provider %S@." p;
              exit 2
        in
        match Figures.cell ~figure ~index ~provider with
        | Error msg ->
            Format.eprintf "spf replay: %s@." msg;
            exit 2
        | Ok cell -> (
            match cell (Runner.ctx_of_engine engine) with
            | runs ->
                Format.printf
                  "replay %s: clean — %s/%d re-ran (%d simulated cycles)@."
                  dir figure index
                  (List.fold_left (fun n r -> n + Runner.cycles r) 0 runs)
            | exception e ->
                Format.printf "replay %s: crash reproduced: %s@." dir
                  (Printexc.to_string e);
                exit 1))
    | Some k ->
        Format.eprintf "spf replay: unknown bundle kind %S@." k;
        exit 2
    | None ->
        Format.eprintf "spf replay: bundle records no kind@.";
        exit 2
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"BUNDLE"))

(* --- serve / loadtest -------------------------------------------------- *)

let serve_addr ~socket ~port =
  match (socket, port) with
  | Some path, None -> Spf_serve.Server.Unix_sock path
  | None, Some p -> Spf_serve.Server.Tcp p
  | Some _, Some _ -> die "spf serve: --socket and --port are exclusive"
  | None, None -> die "spf serve: one of --socket PATH or --port N is required"

let socket_arg cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:(Printf.sprintf "Unix-domain socket for %s." cmd))

let port_arg cmd =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:(Printf.sprintf "Loopback TCP port for %s." cmd))

let serve_cmd =
  let doc = "Long-running compile-and-simulate service with a shared cache." in
  let run socket port jobs batch deadline pass_cap sim_cap journal max_conns
      max_queue idle_timeout max_request_bytes drain_deadline =
    let addr = serve_addr ~socket ~port in
    let cfg =
      {
        (Spf_serve.Server.default_cfg addr) with
        Spf_serve.Server.jobs;
        batch_max = batch;
        deadline_s = (if deadline <= 0. then None else Some deadline);
        pass_cap;
        sim_cap;
        journal_dir = journal;
        max_conns;
        max_queue;
        idle_timeout_s = idle_timeout;
        max_request_bytes;
        drain_deadline_s = drain_deadline;
      }
    in
    (* Route SIGTERM/SIGINT into a graceful drain: block them before any
       server thread exists (threads inherit the mask), then park one
       thread in wait_signal.  A handler could not call Server.stop
       safely — stop takes mutexes. *)
    ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
    let t =
      match Spf_serve.Server.start cfg with
      | t -> t
      | exception Failure msg -> die "spf serve: %s" msg
    in
    ignore
      (Thread.create
         (fun () ->
           let _ = Thread.wait_signal [ Sys.sigterm; Sys.sigint ] in
           Format.eprintf "spf serve: draining@.";
           Spf_serve.Server.stop t)
         ());
    Format.printf "spf serve: listening on %s (jobs=%d batch=%d%s)@."
      (match addr with
      | Spf_serve.Server.Unix_sock p -> p
      | Spf_serve.Server.Tcp p -> Printf.sprintf "localhost:%d" p)
      jobs batch
      (match journal with
      | Some dir -> Printf.sprintf " journal=%s" dir
      | None -> "");
    Spf_serve.Server.wait t
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ socket_arg "the service to bind"
      $ port_arg "the service to bind"
      $ Arg.(
          value
          & opt int (Spf_harness.Pool.default_jobs ())
          & info [ "j"; "jobs" ] ~docv:"N"
              ~doc:"Domain-pool size per simulation batch.")
      $ Arg.(
          value
          & opt int 32
          & info [ "batch" ] ~docv:"N"
              ~doc:"Max requests fused into one supervised batch.")
      $ Arg.(
          value
          & opt float 30.
          & info [ "deadline" ] ~docv:"SECONDS"
              ~doc:
                "Per-request wall-clock budget (0 disables).  A simulation \
                 that exceeds it stops at its next clock check (every \
                 1024 basic blocks) and, after one retry, the client gets \
                 $(b,ERR <id> timeout deadline exceeded).")
      $ Arg.(
          value
          & opt int 512
          & info [ "pass-cache" ] ~docv:"N"
              ~doc:"Pass-level result-cache capacity, entries.")
      $ Arg.(
          value
          & opt int 2048
          & info [ "sim-cache" ] ~docv:"N"
              ~doc:"Sim-level result-cache capacity, entries.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "cache-journal" ] ~docv:"DIR"
              ~doc:
                "Crash-safe result-cache journal directory: replayed on \
                 start for a warm cache, appended per insertion, \
                 snapshotted on drain.")
      $ Arg.(
          value
          & opt int 256
          & info [ "max-conns" ] ~docv:"N"
              ~doc:
                "Live-connection budget; excess connections are answered \
                 with a classified busy reply and closed.")
      $ Arg.(
          value
          & opt int 1024
          & info [ "max-queue" ] ~docv:"N"
              ~doc:
                "Queued-request budget; excess SUBMITs get ERR busy \
                 retry-after instead of queueing without bound.")
      $ Arg.(
          value
          & opt float 30.
          & info [ "idle-timeout" ] ~docv:"SECONDS"
              ~doc:"Per-read idle deadline on client input.")
      $ Arg.(
          value
          & opt int (4 * 1024 * 1024)
          & info [ "max-request-bytes" ] ~docv:"N"
              ~doc:"SUBMIT payload budget, bytes.")
      $ Arg.(
          value
          & opt float 10.
          & info [ "drain-deadline" ] ~docv:"SECONDS"
              ~doc:
                "How long in-flight work may run after SIGTERM/SIGINT/\
                 SHUTDOWN before remaining sockets are force-closed."))

let chaos_cmd =
  let doc =
    "Chaos-test a spawned serve daemon: mixed honest + fault traffic, \
     SIGTERM drain, SIGKILL crash, journal warm restarts, leak check."
  in
  let run seed count concurrency jobs keep =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "spf-chaos-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let sock = Filename.concat dir "chaos.sock" in
    let journal = Filename.concat dir "journal" in
    let idle_timeout = 1.0 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid = ref None in
    let start () =
      (try if Sys.file_exists sock then Sys.remove sock with Sys_error _ -> ());
      pid :=
        Some
          (Unix.create_process Sys.executable_name
             [|
               Sys.executable_name;
               "serve";
               "--socket";
               sock;
               "--jobs";
               string_of_int jobs;
               "--batch";
               "8";
               "--deadline";
               "10";
               "--cache-journal";
               journal;
               "--max-conns";
               "64";
               "--max-queue";
               "64";
               "--idle-timeout";
               Printf.sprintf "%g" idle_timeout;
               "--max-request-bytes";
               "65536";
               "--drain-deadline";
               "5";
             |]
             devnull devnull devnull)
    in
    let signal s =
      match !pid with
      | Some p -> ( try Unix.kill p s with Unix.Unix_error _ -> ())
      | None -> ()
    in
    let wait_exit () =
      match !pid with
      | None -> -1
      | Some p -> (
          pid := None;
          match Unix.waitpid [] p with
          | _, Unix.WEXITED n -> n
          | _, Unix.WSIGNALED s | _, Unix.WSTOPPED s -> 128 + s
          | exception Unix.Unix_error _ -> -1)
    in
    (* The harness pokes sockets of a daemon it just killed: EPIPE,
       not process death. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let cfg =
      {
        Spf_serve.Chaos.seed;
        count;
        concurrency;
        fault_wait_s = 4. *. idle_timeout;
        connect = (fun () -> Spf_serve.Client.connect_unix sock);
        raw_connect =
          (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            (try Unix.connect fd (Unix.ADDR_UNIX sock)
             with e ->
               (try Unix.close fd with Unix.Unix_error _ -> ());
               raise e);
            fd);
        ctl =
          {
            Spf_serve.Chaos.start;
            term = (fun () -> signal Sys.sigterm);
            kill = (fun () -> signal Sys.sigkill);
            wait_exit;
          };
        log = (fun m -> Format.printf "chaos: %s@." m);
      }
    in
    let r = Spf_serve.Chaos.run cfg in
    (try Unix.close devnull with Unix.Unix_error _ -> ());
    Format.printf "%a@." Spf_serve.Chaos.pp r;
    if keep then Format.printf "chaos: workspace kept at %s@." dir
    else
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [
          sock;
          Filename.concat journal "cache-journal";
          Filename.concat journal "cache-journal.tmp";
        ]
      |> fun () ->
      List.iter
        (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
        [ journal; dir ];
    if not r.Spf_serve.Chaos.passed then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt int 9
          & info [ "seed" ] ~docv:"SEED" ~doc:"Program-pool seed.")
      $ Arg.(
          value & opt int 120
          & info [ "count" ] ~docv:"N"
              ~doc:"Honest requests in the mixed phase.")
      $ Arg.(
          value & opt int 6
          & info [ "concurrency" ] ~docv:"N" ~doc:"Client threads.")
      $ Arg.(
          value & opt int 2
          & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Daemon pool domains.")
      $ Arg.(
          value & flag
          & info [ "keep" ]
              ~doc:"Keep the temp workspace (socket + journal) afterwards."))

let loadtest_cmd =
  let doc =
    "Replay fuzz-generated programs against a serve daemon, measuring \
     latency, throughput and cache hit rate."
  in
  let run socket port spawn seed count dup concurrency machine engine =
    let addr =
      match (socket, port, spawn) with
      | None, None, true ->
          Spf_serve.Server.Unix_sock
            (Filename.temp_file "spf-loadtest" ".sock")
      | _ -> serve_addr ~socket ~port
    in
    let server =
      if spawn then begin
        (match addr with
        | Spf_serve.Server.Unix_sock p when Sys.file_exists p -> Sys.remove p
        | _ -> ());
        Some (Spf_serve.Server.start (Spf_serve.Server.default_cfg addr))
      end
      else None
    in
    let connect () =
      match addr with
      | Spf_serve.Server.Unix_sock p -> Spf_serve.Client.connect_unix p
      | Spf_serve.Server.Tcp p -> Spf_serve.Client.connect_tcp ~port:p
    in
    let r =
      Spf_serve.Loadtest.run ~seed ~count ~dup ~concurrency
        ~opts:
          [
            ("machine", machine.Machine.name);
            ("engine", Spf_sim.Engine.to_string engine);
          ]
        ~connect ()
    in
    Format.printf "%a@." Spf_serve.Loadtest.pp r;
    (match server with
    | Some t ->
        let c = connect () in
        ignore (Spf_serve.Client.shutdown c);
        Spf_serve.Client.close c;
        Spf_serve.Server.wait t
    | None -> ());
    if r.Spf_serve.Loadtest.dropped > 0 || r.Spf_serve.Loadtest.corrupted > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "loadtest" ~doc)
    Term.(
      const run
      $ socket_arg "an already-running daemon"
      $ port_arg "an already-running daemon"
      $ Arg.(
          value & flag
          & info [ "spawn" ]
              ~doc:
                "Start an in-process server for the duration of the test \
                 (on a temp socket unless --socket/--port is given).")
      $ Arg.(
          value & opt int 7
          & info [ "seed" ] ~docv:"SEED" ~doc:"Program-pool seed.")
      $ Arg.(
          value & opt int 1000
          & info [ "count" ] ~docv:"N" ~doc:"Requests to replay.")
      $ Arg.(
          value & opt float 0.5
          & info [ "dup" ] ~docv:"RATE"
              ~doc:
                "Duplication rate in [0,1): the distinct-program pool has \
                 size count*(1-RATE).")
      $ Arg.(
          value & opt int 8
          & info [ "concurrency" ] ~docv:"N" ~doc:"Client connections.")
      $ machine_arg $ engine_arg)

let () =
  let doc = "Software prefetching for indirect memory accesses (CGO'17) — reproduction" in
  let info = Cmd.info "spf" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            show_cmd;
            run_cmd;
            fig_cmd;
            sweep_cmd;
            profile_cmd;
            split_cmd;
            fuzz_cmd;
            validate_cmd;
            replay_cmd;
            serve_cmd;
            loadtest_cmd;
            chaos_cmd;
          ]))
