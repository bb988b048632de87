module Ir = Spf_ir.Ir
module Config = Spf_core.Config
module Memory = Spf_sim.Memory
module Gen = Spf_fuzz.Gen
module Oracle = Spf_fuzz.Oracle
module Replay = Spf_fuzz.Replay
module Bundle = Spf_harness.Bundle
module Case = Spf_valid.Case
module Model = Spf_valid.Model
module Validate = Spf_valid.Validate

(* End-to-end translation validation: proof on the sound pass,
   counterexample (confirmed, runnable, replayable) on a deliberately
   unsound variant. *)

let spec =
  {
    Gen.shape = Gen.Indirect;
    n = 48;
    inner = 1;
    len_a = 16;
    bound = Gen.Bound_param;
    tight = true;
    alias_store = false;
    hash_depth = 1;
    data_seed = 5;
  }

let env_of_spec s =
  {
    Model.fresh =
      (fun () ->
        let b = Gen.build s in
        (b.Gen.mem, b.Gen.args));
    fuel = Gen.fuel s;
  }

(* An unsound pass config: a huge assume_margin skips the §4.2 clamp. *)
let broken = { Config.default with Config.assume_margin = 1 lsl 30 }

let transform_with config func =
  match Validate.transform ~config func with
  | Ok x -> x
  | Error e -> Alcotest.failf "pass raised: %s" e

let test_proves_sound_pass () =
  let orig = (Gen.build spec).Gen.func in
  let xform = transform_with Config.default orig in
  match Validate.check ~env:(env_of_spec spec) ~orig ~xform () with
  | Validate.Proved { paths; obligations } ->
      Alcotest.(check bool) "at least one path" true (paths > 0);
      Alcotest.(check bool) "at least one obligation" true (obligations > 0)
  | o -> Alcotest.failf "expected a proof, got: %s" (Validate.outcome_to_string o)

let test_refutes_unsound_margin () =
  (* The tight layout puts the index array flush against the mapping
     break, so the unclamped look-ahead load must trap — a confirmed,
     introduced fault. *)
  let orig = (Gen.build spec).Gen.func in
  let xform = transform_with broken orig in
  match Validate.check ~env:(env_of_spec spec) ~orig ~xform () with
  | Validate.Refuted { cex; case; _ } ->
      Alcotest.(check bool)
        "fault at a pass-inserted instruction" true
        cex.Model.introduced_fault;
      (* The printed counterexample is a runnable case: parse it back and
         re-validate under the broken config — it must refute again. *)
      let reloaded = Case.parse (Case.to_string case) in
      (match Validate.check_case ~config:broken reloaded with
      | Validate.Refuted _ -> ()
      | o ->
          Alcotest.failf "reloaded case did not refute: %s"
            (Validate.outcome_to_string o))
  | o ->
      Alcotest.failf "expected a refutation, got: %s"
        (Validate.outcome_to_string o)

let test_case_round_trip () =
  let b = Gen.build spec in
  let case =
    Case.of_concrete ~func:b.Gen.func ~mem:b.Gen.mem ~args:b.Gen.args
      ~fuel:(Gen.fuel spec)
  in
  let case' = Case.parse (Case.to_string case) in
  Alcotest.(check (array int)) "args" case.Case.args case'.Case.args;
  Alcotest.(check int) "brk" case.Case.brk case'.Case.brk;
  Alcotest.(check int) "fuel" case.Case.fuel case'.Case.fuel;
  (* The environment rebuilt from the parsed case is bit-identical. *)
  let mem0, _ = Case.to_env case |> fun e -> e.Model.fresh () in
  let mem1, _ = Case.to_env case' |> fun e -> e.Model.fresh () in
  Alcotest.(check string) "memory image" (Memory.digest mem0)
    (Memory.digest mem1);
  (* And the reloaded pair still proves. *)
  match Validate.check_case case' with
  | Validate.Proved _ -> ()
  | o -> Alcotest.failf "reloaded case: %s" (Validate.outcome_to_string o)

(* A supervised validation stops at the symbolic checker's per-step
   poll once its deadline has passed: an already-expired token gives up
   with the classified reason, and a distant deadline changes nothing. *)
let test_expired_token_gives_up () =
  let b = Gen.build spec in
  let case =
    Case.of_concrete ~func:b.Gen.func ~mem:b.Gen.mem ~args:b.Gen.args
      ~fuel:(Gen.fuel spec)
  in
  let check_until until =
    Validate.check_case ~cancel:(Spf_sim.Exec_state.new_cancel ~until) case
  in
  (match check_until 0. with
  | Validate.Gave_up r ->
      Alcotest.(check string) "give-up reason"
        "cancelled (supervision deadline)" r
  | o -> Alcotest.failf "expired token: %s" (Validate.outcome_to_string o));
  match check_until (Unix.gettimeofday () +. 3600.) with
  | Validate.Proved _ -> ()
  | o -> Alcotest.failf "distant deadline: %s" (Validate.outcome_to_string o)

let test_mem_bad_hex_rejected () =
  (* [!mem] bytes go through the journal's hex codec: an underscore
     (which [int_of_string "0x3_"] reads as 3), an odd digit count and a
     non-hex digit must each be a parse error on the [!mem] line. *)
  List.iter
    (fun bad ->
      match Case.parse (";; spf-case v1\n!brk 8192\n!mem 4096 " ^ bad ^ "\n") with
      | _ -> Alcotest.failf "!mem %s was accepted" bad
      | exception Spf_ir.Parser.Parse_error { line; _ } ->
          Alcotest.(check int) ("!mem " ^ bad ^ " fails on its line") 3 line)
    [ "3_"; "abc"; "0g" ]

let test_symbolic_oracle_agrees_and_diverges () =
  (match Oracle.check_symbolic spec with
  | Oracle.Agree _ -> ()
  | Oracle.Diverged d ->
      Alcotest.failf "sound pass diverged: %s" (Oracle.divergence_to_string d)
  | Oracle.Undecided r -> Alcotest.failf "undecided: %s" r);
  match Oracle.check_symbolic ~config:broken spec with
  | Oracle.Diverged _ -> ()
  | Oracle.Agree _ -> Alcotest.fail "unsound margin not caught"
  | Oracle.Undecided r -> Alcotest.failf "undecided on unsound margin: %s" r

let test_replay_rejects_unknown_mode () =
  (* A bundle recording an oracle mode this build does not know must
     fail with a clear message, not misreport Clean/Divergence. *)
  let root = Filename.get_temp_dir_name () in
  let payload = Replay.payload ~mode:(Oracle.Concrete None) spec in
  let forged = { payload with Replay.bp_mode = "quantum" } in
  let bdir =
    Bundle.write ~root ~name:"spf-test-unknown-mode"
      ~meta:(Replay.meta_of_payload forged)
      ~payload:(Replay.encode_payload forged)
      ()
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match Replay.replay (Bundle.read bdir) with
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the mode: %s" msg)
        true
        (contains ~sub:"quantum" msg)
  | r ->
      Alcotest.failf "expected Failure, got %s"
        (match r with
        | Replay.Clean -> "Clean"
        | Replay.Divergence d -> "Divergence " ^ d
        | Replay.Undecided u -> "Undecided " ^ u));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote bdir)))

let test_golden_spot_check () =
  (* One golden pair proved through the same entry point the CLI batch
     uses; the full sweep is the @validate-smoke tier-1 alias. *)
  let results = Validate.check_golden () in
  Alcotest.(check bool) "has results" true (List.length results >= 6);
  List.iter
    (fun (name, o) ->
      match o with
      | Validate.Proved _ -> ()
      | _ -> Alcotest.failf "%s: %s" name (Validate.outcome_to_string o))
    results

let suite =
  [
    Alcotest.test_case "proves the sound pass" `Quick test_proves_sound_pass;
    Alcotest.test_case "refutes an unsound margin with a confirmed fault"
      `Quick test_refutes_unsound_margin;
    Alcotest.test_case "case files round-trip" `Quick test_case_round_trip;
    Alcotest.test_case "!mem rejects bad hex" `Quick test_mem_bad_hex_rejected;
    Alcotest.test_case "expired token gives up, classified" `Quick
      test_expired_token_gives_up;
    Alcotest.test_case "symbolic oracle: agree and diverge" `Quick
      test_symbolic_oracle_agrees_and_diverges;
    Alcotest.test_case "replay rejects unknown oracle modes" `Quick
      test_replay_rejects_unknown_mode;
    Alcotest.test_case "golden pairs all prove" `Slow test_golden_spot_check;
  ]
