module Ir = Spf_ir.Ir
module Pass = Spf_core.Pass

(* The differential oracle.

   A prefetch pass must be semantically invisible: for any program, the
   transformed version must return the same value, leave memory in the same
   state, and trap exactly when the original would (§4.2, §4.4).  We check
   this by rebuilding the program from its spec (the pass mutates IR in
   place), running both versions under the interpreter with fault-injection
   semantics, and comparing outcomes.

   Programs whose *original* runs trap or exhaust fuel are discarded as
   invalid inputs — their behaviour is undefined, so nothing is owed — but
   the pass and verifier must still succeed on them: a never-crash pass
   does not get to assume well-formed input data. *)

type outcome = Spf_valid.Model.outcome =
  | Returned of { retval : int option; digest : string }
  | Trapped of { pc : int; addr : int; is_store : bool }
  | Out_of_fuel

let outcome_to_string = Spf_valid.Model.outcome_to_string

type divergence_kind =
  | Pass_raised of string  (* exception escaped Pass.run: never allowed *)
  | Verifier_broken of string  (* transformed IR fails Verifier.check *)
  | Outcome_mismatch of {
      original : outcome;
      transformed : outcome;
      introduced_fault : bool;
          (* the transformed run trapped at an instruction the pass
             inserted: the §4.2 fault-avoidance clamp itself failed *)
    }
  | Engine_mismatch of {
      on_transformed : bool;  (* which twin disagreed across engines *)
      engine_a : Spf_sim.Engine.t;  (* the pair that disagreed... *)
      engine_b : Spf_sim.Engine.t;
      outcome_a : outcome;  (* ...and what each of them observed *)
      outcome_b : outcome;
      stat : (string * int * int) option;
          (* when the outcomes agree, the first stats counter that does
             not: the engines computed the same answer but not the same
             execution (timing/cache divergence) *)
    }

let divergence_to_string = function
  | Pass_raised e -> "pass raised: " ^ e
  | Verifier_broken v -> "transformed function fails the verifier: " ^ v
  | Outcome_mismatch { original; transformed; introduced_fault } ->
      Printf.sprintf "outcome mismatch: original %s, transformed %s%s"
        (outcome_to_string original)
        (outcome_to_string transformed)
        (if introduced_fault then
           " (demand fault at a pass-inserted instruction: clamp failure)"
         else "")
  | Engine_mismatch { on_transformed; engine_a; engine_b; outcome_a; outcome_b; stat }
    ->
      let na = Spf_sim.Engine.to_string engine_a in
      let nb = Spf_sim.Engine.to_string engine_b in
      Printf.sprintf "engine mismatch on the %s program: %s %s, %s %s%s"
        (if on_transformed then "transformed" else "plain")
        na
        (outcome_to_string outcome_a)
        nb
        (outcome_to_string outcome_b)
        (match stat with
        | Some (name, a, b) ->
            Printf.sprintf " (first differing counter: %s %s=%d %s=%d)" name na
              a nb b
        | None -> "")

(* What a single differential run yields when the pass behaved. *)
type agreement = {
  report : Pass.report;
  original : outcome;
  discarded : bool;  (* original trapped/spun: outcome comparison skipped *)
  dropped_prefetches : int;  (* §4.4 drops observed in the transformed run *)
  sw_prefetches : int;  (* prefetches actually issued *)
}

(* [Undecided] is specific to the symbolic oracle: the validator could
   neither prove the transform correct on this program nor concretely
   confirm a counterexample.  Campaigns count these as give-ups, not
   failures. *)
type verdict =
  | Agree of agreement
  | Diverged of divergence_kind
  | Undecided of string

(* How a campaign checks each case.  [Concrete] is the classic
   differential run (optionally pinning a simulator engine);
   [Cross_engine] compares the tape engine against the interpreter;
   [Symbolic] backs the concrete run with a translation-validation
   proof-or-counterexample. *)
type mode =
  | Concrete of Spf_sim.Engine.t option
  | Cross_engine
  | Symbolic

let mode_to_string = function
  | Concrete None -> "concrete"
  | Concrete (Some e) -> "concrete:" ^ Spf_sim.Engine.to_string e
  | Cross_engine -> "cross-engine"
  | Symbolic -> "symbolic"

let mode_of_string s =
  match s with
  | "concrete" -> Some (Concrete None)
  | "cross-engine" -> Some Cross_engine
  | "symbolic" -> Some Symbolic
  | _ ->
      let pre = "concrete:" in
      let n = String.length pre in
      if String.length s > n && String.sub s 0 n = pre then
        Option.map
          (fun e -> Concrete (Some e))
          (Spf_sim.Engine.of_string (String.sub s n (String.length s - n)))
      else None

let execute ?engine ?cancel ~fuel (b : Gen.built) =
  Spf_valid.Model.execute ?engine ?cancel ~fuel ~mem:b.Gen.mem ~args:b.Gen.args
    b.Gen.func

let check ?config ?(strict = false) ?engine ?cancel (spec : Gen.spec) : verdict =
  let fuel = Gen.fuel spec in
  let original = Gen.build spec in
  let o1, _ = execute ?engine ?cancel ~fuel original in
  let transformed = Gen.build spec in
  let n_orig_instrs = Ir.n_instrs transformed.Gen.func in
  match Pass.run ?config ~strict transformed.Gen.func with
  | exception exn -> Diverged (Pass_raised (Printexc.to_string exn))
  | report -> (
      match Spf_ir.Verifier.check transformed.Gen.func with
      | v :: _ ->
          Diverged
            (Verifier_broken (Format.asprintf "%a" Spf_ir.Verifier.pp_violation v))
      | [] -> (
          let o2, stats2 = execute ?engine ?cancel ~fuel transformed in
          let agreement discarded =
            Agree
              {
                report;
                original = o1;
                discarded;
                dropped_prefetches = stats2.Spf_sim.Stats.dropped_prefetches;
                sw_prefetches = stats2.Spf_sim.Stats.sw_prefetches;
              }
          in
          let mismatch ~introduced_fault =
            Diverged
              (Outcome_mismatch
                 { original = o1; transformed = o2; introduced_fault })
          in
          match (o1, o2) with
          | (Trapped _ | Out_of_fuel), _ ->
              (* Undefined original behaviour: transformed outcome owes
                 nothing, but pass + verifier above still had to hold. *)
              agreement true
          | Returned r1, Returned r2 ->
              if r1.retval = r2.retval && r1.digest = r2.digest then
                agreement false
              else mismatch ~introduced_fault:false
          | Returned _, Trapped { pc; _ } ->
              (* A clean program now faults.  When the faulting instruction
                 is one the pass inserted (ids beyond the original count),
                 the §4.2 fault-avoidance clamp itself is broken. *)
              mismatch ~introduced_fault:(pc >= n_orig_instrs)
          | Returned _, Out_of_fuel -> mismatch ~introduced_fault:false))

(* --- cross-engine differential mode ------------------------------------ *)

(* Run the same program (one identical build per engine) under every
   engine in {!Spf_sim.Engine.all} and require the full observable
   behaviour to match the first (the reference interpreter): outcome
   (return value, memory digest, trap site) and every stats counter,
   timing included.  This is a stronger check than the semantic oracle
   above -- the engines must agree cycle-for-cycle, not just
   value-for-value.  A disagreement names the engine pair and, when the
   outcomes agree, the first stats counter that does not. *)
let compare_engines ?cancel ~fuel ~on_transformed builds =
  let runs =
    List.map2
      (fun engine b -> (engine, execute ~engine ?cancel ~fuel b))
      Spf_sim.Engine.all builds
  in
  let mismatch (ea, (oa, sa)) (eb, (ob, sb)) =
    if oa <> ob then
      Some
        (Engine_mismatch
           {
             on_transformed;
             engine_a = ea;
             engine_b = eb;
             outcome_a = oa;
             outcome_b = ob;
             stat = None;
           })
    else
      match Spf_sim.Stats.first_mismatch sa sb with
      | Some m ->
          Some
            (Engine_mismatch
               {
                 on_transformed;
                 engine_a = ea;
                 engine_b = eb;
                 outcome_a = oa;
                 outcome_b = ob;
                 stat = Some m;
               })
      | None -> None
  in
  let reference = List.hd runs in
  match List.find_map (mismatch reference) (List.tl runs) with
  | Some d -> Error d
  | None ->
      let _, (o, s) = reference in
      Ok (o, s)

let check_engines ?config ?(strict = false) ?cancel (spec : Gen.spec) : verdict =
  let fuel = Gen.fuel spec in
  let fresh_builds () =
    List.map (fun _ -> Gen.build spec) Spf_sim.Engine.all
  in
  (* The plain twin first: the per-engine builds of the same spec are
     structurally identical, so any disagreement is an engine bug. *)
  match compare_engines ?cancel ~fuel ~on_transformed:false (fresh_builds ()) with
  | Error d -> Diverged d
  | Ok (o_plain, _) -> (
      (* Then the transformed twin: apply the (deterministic) pass to
         every build and compare the engines on the prefetch-bearing
         program, which exercises Prefetch uops, clamps and
         dropped-prefetch accounting. *)
      let ts = fresh_builds () in
      match
        List.map (fun t -> Pass.run ?config ~strict t.Gen.func) ts |> List.hd
      with
      | exception exn -> Diverged (Pass_raised (Printexc.to_string exn))
      | report -> (
          match compare_engines ?cancel ~fuel ~on_transformed:true ts with
          | Error d -> Diverged d
          | Ok (_, stats2) ->
              let discarded =
                match o_plain with
                | Trapped _ | Out_of_fuel -> true
                | Returned _ -> false
              in
              Agree
                {
                  report;
                  original = o_plain;
                  discarded;
                  dropped_prefetches = stats2.Spf_sim.Stats.dropped_prefetches;
                  sw_prefetches = stats2.Spf_sim.Stats.sw_prefetches;
                }))

(* --- symbolic (translation validation) mode ----------------------------- *)

(* The symbolic oracle runs the concrete differential check first (which
   also exercises pass containment and the static verifier), then backs
   an agreeing run with a proof: the validator either proves the pair
   equivalent over ALL environments, confirms a concrete counterexample
   the single concrete run missed (e.g. a fault only a tighter mapping
   exposes), or gives up — reported as [Undecided], never as agreement. *)
let check_symbolic ?config ?strict ?cancel (spec : Gen.spec) : verdict =
  match check ?config ?strict ?cancel spec with
  | (Diverged _ | Undecided _) as v -> v
  | Agree a -> (
      let original = Gen.build spec in
      let transformed = Gen.build spec in
      match Spf_core.Pass.run ?config transformed.Gen.func with
      | exception exn -> Diverged (Pass_raised (Printexc.to_string exn))
      | _report -> (
          let env =
            {
              Spf_valid.Model.fresh =
                (fun () ->
                  let b = Gen.build spec in
                  (b.Gen.mem, b.Gen.args));
              fuel = Gen.fuel spec;
            }
          in
          match
            Spf_valid.Validate.check ?cancel ~env ~orig:original.Gen.func
              ~xform:transformed.Gen.func ()
          with
          | Spf_valid.Validate.Proved _ -> Agree a
          | Spf_valid.Validate.Refuted { cex; _ } ->
              Diverged
                (Outcome_mismatch
                   {
                     original = cex.Spf_valid.Model.original;
                     transformed = cex.Spf_valid.Model.transformed;
                     introduced_fault = cex.Spf_valid.Model.introduced_fault;
                   })
          | Spf_valid.Validate.Gave_up r -> Undecided r))

let check_mode ?config ?strict ?cancel mode (spec : Gen.spec) : verdict =
  match mode with
  | Concrete engine -> check ?config ?strict ?engine ?cancel spec
  | Cross_engine -> check_engines ?config ?strict ?cancel spec
  | Symbolic -> check_symbolic ?config ?strict ?cancel spec
