module Ir = Spf_ir.Ir
module Pass = Spf_core.Pass
module Config = Spf_core.Config
module Benches = Spf_harness.Benches
module Supervisor = Spf_harness.Supervisor
module Runner = Spf_harness.Runner
module Workload = Spf_workloads.Workload

(* Translation validation: proof-or-counterexample for one (program,
   transformed program) pair.

   The symbolic checker ({!Equiv}) either proves the pair equivalent or
   reports the first failed check.  A failed check is {e not} yet a
   counterexample — the checker over-approximates (widening, opaque
   memory reads, an incomplete prover) — so it must be confirmed by the
   concrete interpreter ({!Model.confirm}) before this module reports
   [Refuted]; an unconfirmed failure is a [Gave_up].  [Refuted] carries
   the runnable {!Case} so callers (the CLI, the fuzz oracle) can hand
   the user a self-contained reproducer. *)

type outcome =
  | Proved of { paths : int; obligations : int }
  | Refuted of { detail : string; cex : Model.cex; case : Case.t }
  | Gave_up of string

let outcome_to_string = function
  | Proved { paths; obligations } ->
      Printf.sprintf "proved (%d paths, %d look-ahead obligations)" paths
        obligations
  | Refuted { detail; cex; _ } ->
      Printf.sprintf
        "refuted: %s\n  confirmed at brk=%d: original %s, transformed %s%s"
        detail cex.Model.brk
        (Model.outcome_to_string cex.Model.original)
        (Model.outcome_to_string cex.Model.transformed)
        (if cex.Model.introduced_fault then
           " (fault at a pass-inserted instruction)"
         else "")
  | Gave_up r -> "gave up: " ^ r

(* ------------------------------------------------------------------ *)
(* Core pair check                                                     *)
(* ------------------------------------------------------------------ *)

let check ?cancel ~(env : Model.env) ~orig ~xform () =
  match Equiv.check ?cancel ~orig ~xform () with
  | Equiv.Proved { paths; obligations } -> Proved { paths; obligations }
  | Equiv.Gave_up r -> Gave_up r
  | Equiv.Mismatch detail -> (
      match Model.confirm ?cancel ~env ~orig ~xform () with
      | Some cex ->
          let mem, args = env.Model.fresh () in
          let case =
            Case.of_concrete ~func:orig ~mem ~args ~fuel:env.Model.fuel
          in
          Refuted { detail; cex; case }
      | None -> Gave_up ("unconfirmed symbolic mismatch: " ^ detail))

let transform ?(config = Config.default) func =
  let x = Ir.clone_func func in
  match Pass.run ~config x with
  | _report -> Ok x
  | exception exn -> Error (Printexc.to_string exn)

let check_case ?cancel ?config (c : Case.t) =
  match transform ?config c.Case.func with
  | Error e -> Gave_up ("pass raised: " ^ e)
  | Ok xform ->
      check ?cancel ~env:(Case.to_env c) ~orig:c.Case.func ~xform ()

(* ------------------------------------------------------------------ *)
(* The golden suite                                                    *)
(* ------------------------------------------------------------------ *)

(* Every distinct (program, transformed program) pair behind the golden
   timing suite (34 rows under both engines, 68 cells): the five
   timing-golden benchmarks under the automatic pass, plus the one manual
   scheme the suite pins (HJ-8). *)

let golden_fuel = 200_000_000

let golden_pairs () =
  let bench id =
    List.find (fun (b : Benches.bench) -> b.Benches.id = id) (Benches.all ())
  in
  List.map (fun id -> (bench id, `Auto)) [ "IS"; "CG"; "RA"; "HJ-2"; "HJ-8" ]
  @ [ (bench "HJ-8", `Manual) ]

(* ------------------------------------------------------------------ *)
(* Sweeps: the golden suite and corpus batch mode                      *)
(* ------------------------------------------------------------------ *)

(* Compact, journal-able per-row result of a sweep. *)
type status =
  | S_proved of { paths : int; obligations : int }
  | S_refuted of string
  | S_gave_up of string

let status_of_outcome = function
  | Proved { paths; obligations } -> S_proved { paths; obligations }
  | Refuted { detail; cex; _ } ->
      S_refuted
        (Printf.sprintf "%s (confirmed at brk=%d)" detail cex.Model.brk)
  | Gave_up r -> S_gave_up r

let status_to_string = function
  | S_proved { paths; obligations } ->
      Printf.sprintf "proved (%d paths, %d obligations)" paths obligations
  | S_refuted d -> "REFUTED: " ^ d
  | S_gave_up r -> "gave up: " ^ r

(* A sweep row's keyed job: [check] runs under the job's cancellation
   token. *)
let job ~key ?binfo check =
  {
    Supervisor.key;
    work =
      (fun (ctx : Runner.ctx) -> status_of_outcome (check ctx.Runner.cancel));
    binfo;
  }

(* One sweep over named rows, run as one campaign.  A job that fails (a
   crash, a deadline past its retries, a file that does not parse) is
   reported to stderr like any campaign failure and becomes a give-up
   row carrying its reason, rather than poisoning the sweep. *)
let sweep ?(sup = Supervisor.options ()) rows =
  let results = Supervisor.run_jobs sup (List.map snd rows) in
  Supervisor.report_stderr results;
  List.map2
    (fun (name, _) r ->
      match r with
      | Ok (o : status Supervisor.outcome) -> (name, o.Supervisor.value)
      | Error (f : Supervisor.failure) ->
          ( name,
            S_gave_up
              (Printf.sprintf "supervision: %s after %d attempt(s): %s"
                 (Supervisor.classification_to_string f.Supervisor.f_class)
                 f.Supervisor.f_attempts
                 (Printexc.to_string f.Supervisor.f_exn)) ))
    rows results

let check_golden ?config ?sup () =
  sweep ?sup
    (List.map
       (fun ((b : Benches.bench), variant) ->
         let name =
           b.Benches.id ^ "/"
           ^ match variant with `Auto -> "auto" | `Manual -> "manual"
         in
         ( name,
           job ~key:("validate/" ^ name) (fun cancel ->
               let orig = (b.Benches.plain ()).Workload.func in
               let xform =
                 match variant with
                 | `Auto ->
                     (Benches.auto ?config (b.Benches.plain ())).Workload.func
                 | `Manual ->
                     (b.Benches.manual ~machine:Spf_sim.Machine.haswell
                        ~c:None)
                       .Workload.func
               in
               let env =
                 {
                   Model.fresh =
                     (fun () ->
                       let w = b.Benches.plain () in
                       (w.Workload.mem, w.Workload.args));
                   fuel = golden_fuel;
                 }
               in
               check ?cancel ~env ~orig ~xform ()) ))
       (golden_pairs ()))

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort Stdlib.compare
  |> List.map (Filename.concat dir)

let check_corpus ?config ?sup dir =
  sweep ?sup
    (List.map
       (fun f ->
         let binfo _exn =
           {
             Supervisor.b_meta = [ ("kind", "validate-case"); ("file", f) ];
             b_ir =
               (match Case.load f with
               | c -> Some (Spf_ir.Printer.func_to_string c.Case.func)
               | exception _ -> None);
             b_payload = None;
           }
         in
         ( f,
           job ~key:("validate/" ^ Filename.basename f) ~binfo (fun cancel ->
               check_case ?cancel ?config (Case.load f)) ))
       (corpus_files dir))
