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

let check_golden ?cancel ?config () =
  List.map
    (fun ((b : Benches.bench), variant) ->
      let orig = (b.Benches.plain ()).Workload.func in
      let xform, vname =
        match variant with
        | `Auto -> ((Benches.auto ?config (b.Benches.plain ())).Workload.func, "auto")
        | `Manual ->
            ( (b.Benches.manual ~machine:Spf_sim.Machine.haswell ~c:None)
                .Workload.func,
              "manual" )
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
      (b.Benches.id ^ "/" ^ vname, check ?cancel ~env ~orig ~xform ()))
    (golden_pairs ())

(* ------------------------------------------------------------------ *)
(* Corpus batch mode                                                   *)
(* ------------------------------------------------------------------ *)

(* Compact, journal-able per-file result for supervised sweeps. *)
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

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort Stdlib.compare
  |> List.map (Filename.concat dir)

let encode_status (s : status) = Marshal.to_string s []

let decode_status s =
  try Some (Marshal.from_string s 0 : status) with _ -> None

(* Sweep every [*.case] file under [dir].  With [supervise], each file is
   a supervised job ("validate/<file>"): a case whose proof search hangs
   past the deadline (or crashes) is classified as a give-up rather than
   poisoning the sweep, and completed files checkpoint/resume through the
   journal. *)
let check_corpus ?config ?supervise dir : (string * status) list =
  let files = corpus_files dir in
  match supervise with
  | None ->
      List.map
        (fun f -> (f, status_of_outcome (check_case ?config (Case.load f))))
        files
  | Some opts ->
      let jobs =
        List.map
          (fun f ->
            {
              Supervisor.key = "validate/" ^ Filename.basename f;
              work =
                (fun (ctx : Runner.ctx) ->
                  status_of_outcome
                    (check_case ?cancel:ctx.Runner.cancel ?config
                       (Case.load f)));
              binfo =
                Some
                  (fun _exn ->
                    {
                      Supervisor.b_meta =
                        [ ("kind", "validate-case"); ("file", f) ];
                      b_ir = Some (Spf_ir.Printer.func_to_string (Case.load f).Case.func);
                      b_payload = None;
                    });
            })
          files
      in
      let results =
        Supervisor.run_jobs opts ~encode:encode_status ~decode:decode_status
          jobs
      in
      List.map2
        (fun f r ->
          match r with
          | Ok (o : status Supervisor.outcome) -> (f, o.Supervisor.value)
          | Error (fl : Supervisor.failure) ->
              ( f,
                S_gave_up
                  (Printf.sprintf "supervision: %s after %d attempt(s)"
                     (Supervisor.classification_to_string fl.Supervisor.f_class)
                     fl.Supervisor.f_attempts) ))
        files results
