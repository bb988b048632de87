module Pass = Spf_core.Pass
module Rng = Spf_workloads.Rng
module Supervisor = Spf_harness.Supervisor
module Bundle = Spf_harness.Bundle
module Runner = Spf_harness.Runner

(* Campaign driver: generate [count] specs from [seed], run each through
   the differential oracle, shrink any failure, and summarise.

   The headline robustness claims this enforces (ISSUE acceptance):
   - zero semantic divergences between original and transformed runs;
   - zero exceptions escaping [Pass.run] (the oracle wraps it; any escape
     is a [Pass_raised] divergence);
   - zero demand-side faults introduced by the transform under tight
     bounds ([introduced_fault] divergences);
   - §4.4 drops actually observed: wild prefetches land in the
     [dropped_prefetches] stat instead of trapping.

   Every case draws from its own [Rng.split]-derived stream, so cases are
   independent of each other and of the execution order: a campaign fanned
   out over N domains produces the same summary as a serial one.  Cases
   run as keyed {!Supervisor} jobs ("case/<n>"), so the supervisor's
   options decide the pool width, the engine, deadlines, retries,
   checkpoint/resume and crash bundles. *)

type failure = {
  case : int;  (* 0-based index into the campaign *)
  spec : Gen.spec;
  shrunk : Gen.spec option;  (* smaller reproducer, when shrinking is on *)
  divergence : Oracle.divergence_kind;
}

type summary = {
  seed : int;
  count : int;
  runs : int;
  transformed : int;  (* programs where the pass emitted >= 1 prefetch *)
  rejected_only : int;  (* pass inspected loads but declined them all *)
  discarded : int;  (* original itself trapped or spun: comparison skipped *)
  dropped_prefetches : int;  (* §4.4 non-faulting drops, summed *)
  sw_prefetches : int;
  introduced_faults : int;  (* clamp failures (subset of failures) *)
  undecided : int;  (* symbolic oracle give-ups: neither proof nor cex *)
  failures : failure list;
}

let pp_summary fmt (s : summary) =
  Format.fprintf fmt
    "fuzz: %d/%d cases (seed %d): %d transformed, %d rejected-only, %d \
     discarded; %d prefetches issued, %d dropped non-faulting; %d \
     divergences, %d introduced faults@."
    s.runs s.count s.seed s.transformed s.rejected_only s.discarded
    s.sw_prefetches s.dropped_prefetches
    (List.length s.failures)
    s.introduced_faults;
  if s.undecided > 0 then
    Format.fprintf fmt
      "  %d undecided (validator gave up: %.1f%% give-up rate)@." s.undecided
      (100. *. float_of_int s.undecided /. float_of_int (max 1 s.runs));
  List.iter
    (fun f ->
      Format.fprintf fmt "  case %d: %s@.    spec %s@." f.case
        (Oracle.divergence_to_string f.divergence)
        (Gen.to_string f.spec);
      match f.shrunk with
      | Some sh -> Format.fprintf fmt "    shrunk to %s@." (Gen.to_string sh)
      | None -> ())
    s.failures

let ok (s : summary) = s.failures = []

(* Re-check a spec and report whether it still fails the same way (used as
   the shrinking predicate — any divergence counts, not just an identical
   one, which keeps shrinking aggressive).  The re-check runs under the
   same oracle [mode] that found the failure: a symbolic counterexample
   must stay a counterexample *under the symbolic oracle* at every
   shrinking step, not merely under one concrete run — and an [Undecided]
   shrink candidate is not a failure, so shrinking never trades a proven
   divergence for an unprovable program. *)
let fails ?config ?cancel ~mode spec =
  match Oracle.check_mode ?config ?cancel mode spec with
  | Oracle.Diverged _ -> true
  | Oracle.Agree _ | Oracle.Undecided _ -> false

(* Compact per-case result.  An [Oracle.Agree] verdict retains the whole
   pass report and the outcome's memory digest; holding [count] of those
   until the final fold keeps the entire campaign's heap live and major
   GC time swamps the run (measured ~1.7x wall on a 10k campaign).  Each
   job therefore boils its verdict down to these few words before
   returning — only the (rare) failures keep their spec alive. *)
type case_result = {
  c_transformed : bool;
  c_discarded : bool;
  c_dropped : int;
  c_issued : int;
  c_undecided : string option;  (* symbolic give-up reason *)
  c_failure : (Gen.spec * Oracle.divergence_kind * Gen.spec option) option;
}

(* One whole case — generation, oracle, shrinking — as a self-contained
   job: everything that depends on the per-case RNG stream happens here,
   so the result is a pure function of (seed, case). *)
let run_case ?config ?cancel ~mode ~shrink ~seed case =
  let rng = Rng.split ~seed case in
  let spec = Gen.random rng in
  match Oracle.check_mode ?config ?cancel mode spec with
  | Oracle.Agree a ->
      {
        c_transformed = a.Oracle.report.Pass.n_prefetches > 0;
        c_discarded = a.Oracle.discarded;
        c_dropped = a.Oracle.dropped_prefetches;
        c_issued = a.Oracle.sw_prefetches;
        c_undecided = None;
        c_failure = None;
      }
  | Oracle.Undecided reason ->
      {
        c_transformed = false;
        c_discarded = false;
        c_dropped = 0;
        c_issued = 0;
        c_undecided = Some reason;
        c_failure = None;
      }
  | Oracle.Diverged d ->
      let shrunk =
        if shrink then
          Some
            (Shrink.shrink spec ~still_fails:(fails ?config ?cancel ~mode))
        else None
      in
      {
        c_transformed = false;
        c_discarded = false;
        c_dropped = 0;
        c_issued = 0;
        c_undecided = None;
        c_failure = Some (spec, d, shrunk);
      }

type injected_fault = Hang | Crash

(* Fault-injection hooks for the resilience tests: [Hang] runs an
   infinite IR loop under the simulator with the job's own cancellation
   token — so an injected hang exercises the very deadline-expires-token
   path a real runaway simulation would — and [Crash] is a plain
   deterministic exception. *)
let hang_forever (ctx : Runner.ctx) =
  let b = Spf_ir.Builder.create ~name:"injected_hang" ~nparams:0 in
  let loop = Spf_ir.Builder.new_block b "loop" in
  Spf_ir.Builder.br b loop;
  Spf_ir.Builder.set_block b loop;
  Spf_ir.Builder.br b loop;
  let func = Spf_ir.Builder.finish b in
  let interp =
    Spf_sim.Interp.create ~machine:Spf_sim.Machine.haswell
      ?engine:ctx.Runner.engine ?cancel:ctx.Runner.cancel
      ~mem:(Spf_sim.Memory.create ()) ~args:[||] func
  in
  Fun.protect
    ~finally:(fun () -> Spf_sim.Interp.release interp)
    (fun () -> Spf_sim.Interp.run interp)

(* The per-case job.  The work function honours the supervisor's context
   (engine override, cancellation token); a divergence — a result, not an
   exception — writes its own crash bundle since the supervisor only
   bundles exceptional failures; [binfo] supplies the reproduction
   payload for those (crashes, hangs). *)
let job ?config ?inject sup ~mode ~shrink ~seed case =
  let key = Printf.sprintf "case/%d" case in
  let work (ctx : Runner.ctx) =
    (match inject with
    | Some (n, Hang) when case = n -> hang_forever ctx
    | Some (n, Crash) when case = n -> failwith "injected crash"
    | _ -> ());
    (* The supervisor's engine override only makes sense for the concrete
       oracle — the other modes pick their own engines — and, as before
       the oracle became selectable, it takes precedence over the
       campaign's choice. *)
    let mode =
      match (mode, ctx.Runner.engine) with
      | Oracle.Concrete _, (Some _ as e) -> Oracle.Concrete e
      | _ -> mode
    in
    let r = run_case ?config ?cancel:ctx.Runner.cancel ~mode ~shrink ~seed case in
    (match (r.c_failure, Supervisor.bundle_root sup) with
    | Some (spec, d, shrunk), Some root ->
        let best = Option.value shrunk ~default:spec in
        let p = Replay.payload ?config ~mode best in
        ignore
          (Bundle.write ~root ~name:key
             ~meta:
               (("key", key)
               :: ("divergence", Oracle.divergence_to_string d)
               :: Replay.meta_of_payload p)
             ~ir:(Replay.ir_of_spec best)
             ~payload:(Replay.encode_payload p) ())
    | _ -> ());
    r
  in
  let binfo _exn =
    let spec = Gen.random (Rng.split ~seed case) in
    let p = Replay.payload ?config ~mode spec in
    {
      Supervisor.b_meta = ("case", string_of_int case) :: Replay.meta_of_payload p;
      b_ir = Some (Replay.ir_of_spec spec);
      b_payload = Some (Replay.encode_payload p);
    }
  in
  { Supervisor.key; work; binfo = Some binfo }

let run ?config ?oracle ?(shrink = false) ?(seed = 0)
    ?(sup = Supervisor.options ()) ?inject ~count () : summary =
  let mode =
    Option.value oracle ~default:(Oracle.Concrete (Supervisor.engine sup))
  in
  let results =
    Supervisor.run_campaign sup
      (List.init count (job ?config ?inject sup ~mode ~shrink ~seed))
  in
  let transformed = ref 0
  and rejected_only = ref 0
  and discarded = ref 0
  and dropped = ref 0
  and issued = ref 0
  and introduced = ref 0
  and undecided = ref 0
  and failures = ref [] in
  List.iteri
    (fun case r ->
      match r.c_failure with
      | None when r.c_undecided <> None -> incr undecided
      | None ->
          if r.c_transformed then incr transformed else incr rejected_only;
          if r.c_discarded then incr discarded;
          dropped := !dropped + r.c_dropped;
          issued := !issued + r.c_issued
      | Some (spec, d, shrunk) ->
          (match d with
          | Oracle.Outcome_mismatch { introduced_fault = true; _ } ->
              incr introduced
          | _ -> ());
          failures := { case; spec; shrunk; divergence = d } :: !failures)
    results;
  {
    seed;
    count;
    runs = count;
    transformed = !transformed;
    rejected_only = !rejected_only;
    discarded = !discarded;
    dropped_prefetches = !dropped;
    sw_prefetches = !issued;
    introduced_faults = !introduced;
    undecided = !undecided;
    failures = List.rev !failures;
  }
