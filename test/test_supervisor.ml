module Sup = Spf_harness.Supervisor
module Runner = Spf_harness.Runner
module Engine = Spf_sim.Engine
module Interp = Spf_sim.Interp
module Is = Spf_workloads.Is

(* The supervision pipeline (docs/ROBUSTNESS.md): failure classification,
   bounded exponential backoff, deadlines carried by the cooperative
   cancellation token, and graceful engine degradation. *)

let encode (v : int) = Marshal.to_string v []
let decode s = try Some (Marshal.from_string s 0 : int) with _ -> None

let run_jobs ?policy ?engine ?sleep jobs =
  Sup.run_jobs (Sup.options ?policy ?engine ?sleep ()) ~encode ~decode jobs

let job ?binfo key work = { Sup.key; work; binfo }

let classification =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Sup.classification_to_string c))
    ( = )

let test_classifier () =
  let check msg exn want =
    Alcotest.check classification msg want (Sup.classify exn)
  in
  check "deadline cancellation is a timeout"
    (Spf_sim.Exec_state.Cancelled (Spf_sim.Stats.create ()))
    Sup.Timeout;
  check "tape-engine decode failure is its own class"
    (Spf_sim.Tape.Decode_error "x")
    Sup.Decode_failure;
  check "the transient marker is transient" (Sup.Transient_failure "env")
    Sup.Transient;
  check "resource exhaustion is transient" Out_of_memory Sup.Transient;
  check "OS errors are transient" (Sys_error "disk on fire") Sup.Transient;
  check "simulator traps are deterministic"
    (Spf_sim.Exec_state.Trap { pc = 0; addr = 0; width = 8; is_store = false })
    Sup.Deterministic;
  check "fuel exhaustion is deterministic" Spf_sim.Exec_state.Fuel_exhausted
    Sup.Deterministic;
  check "checksum/verifier failures are deterministic" (Failure "checksum")
    Sup.Deterministic

let test_backoff_bounded () =
  let policy =
    { Sup.default_policy with backoff_base_s = 0.05; backoff_max_s = 0.12 }
  in
  Alcotest.(check (list (float 1e-9)))
    "base * 2^k, capped"
    [ 0.05; 0.1; 0.12; 0.12; 0.12 ]
    (List.map (Sup.backoff_s policy) [ 0; 1; 2; 3; 4 ])

let test_transient_retry_then_success () =
  (* A job that fails transiently twice then succeeds: the supervisor
     must re-run it with recorded backoff sleeps and report success with
     two Retried notes — no real time passes (injected sleep). *)
  let slept = ref [] in
  let sleep s = slept := s :: !slept in
  let attempts = ref 0 in
  let work _ctx =
    incr attempts;
    if !attempts <= 2 then raise (Sup.Transient_failure "flaky");
    41 + 1
  in
  let policy =
    {
      Sup.default_policy with
      retries = 3;
      backoff_base_s = 0.05;
      backoff_max_s = 0.12;
    }
  in
  match run_jobs ~policy ~sleep [ job "t/0" work ] with
  | [ Ok o ] ->
      Alcotest.(check int) "value" 42 o.Sup.value;
      Alcotest.(check int) "attempts" 3 !attempts;
      Alcotest.(check (list (float 1e-9)))
        "recorded backoff sleeps" [ 0.05; 0.1 ] (List.rev !slept);
      Alcotest.(check int) "two retry notes" 2 (List.length o.Sup.notes);
      Alcotest.(check bool) "not resumed" false o.Sup.resumed
  | _ -> Alcotest.fail "expected a single Ok"

let test_retries_exhausted () =
  let sleep _ = () in
  let work _ctx = raise (Sup.Transient_failure "always") in
  let policy = { Sup.default_policy with retries = 2 } in
  match run_jobs ~policy ~sleep [ job "t/0" work ] with
  | [ Error f ] ->
      Alcotest.check classification "class" Sup.Transient f.Sup.f_class;
      Alcotest.(check int) "first try + 2 retries" 3 f.Sup.f_attempts
  | _ -> Alcotest.fail "expected a single Error"

let test_deterministic_not_retried () =
  let sleep _ = Alcotest.fail "deterministic failures must not back off" in
  let work _ctx = failwith "same every time" in
  match run_jobs ~sleep [ job "t/0" work ] with
  | [ Error f ] ->
      Alcotest.check classification "class" Sup.Deterministic f.Sup.f_class;
      Alcotest.(check int) "single attempt" 1 f.Sup.f_attempts
  | _ -> Alcotest.fail "expected a single Error"

(* An infinite IR loop run with the job's cancellation token — the same
   shape as a real runaway simulation, observing cancellation only
   through the engines' poll points. *)
let hang (ctx : Runner.ctx) =
  let b = Spf_ir.Builder.create ~name:"hang" ~nparams:0 in
  let loop = Spf_ir.Builder.new_block b "loop" in
  Spf_ir.Builder.br b loop;
  Spf_ir.Builder.set_block b loop;
  Spf_ir.Builder.br b loop;
  let func = Spf_ir.Builder.finish b in
  let interp =
    Interp.create ~machine:Spf_sim.Machine.haswell ?engine:ctx.Runner.engine
      ?cancel:ctx.Runner.cancel
      ~mem:(Spf_sim.Memory.create ())
      ~args:[||] func
  in
  Interp.run interp;
  0

let test_deadline_fires () =
  let policy =
    { Sup.default_policy with deadline_s = Some 0.2; retries = 0 }
  in
  let t0 = Unix.gettimeofday () in
  match run_jobs ~policy [ job "t/0" hang ] with
  | [ Error f ] ->
      Alcotest.check classification "class" Sup.Timeout f.Sup.f_class;
      Alcotest.(check bool)
        "cancelled in bounded time (not hung)" true
        (Unix.gettimeofday () -. t0 < 5.0);
      Alcotest.(check bool)
        "Cancelled carries stats-so-far" true
        (match f.Sup.f_exn with
        | Spf_sim.Exec_state.Cancelled st ->
            st.Spf_sim.Stats.instructions > 0
        | _ -> false)
  | _ -> Alcotest.fail "expected a single timeout Error"

(* A deadline costs no thread: 20 supervised batches with a deadline
   start none, so two throwaway threads taken around them get
   consecutive ids. *)
let test_no_thread_per_deadline () =
  let thread_id () =
    let t = Thread.create ignore () in
    Thread.join t;
    Thread.id t
  in
  let policy =
    { Sup.default_policy with deadline_s = Some 30.0; retries = 0 }
  in
  let before = thread_id () in
  for _ = 1 to 20 do
    match run_jobs ~policy [ job "t/0" (fun _ -> 7) ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "trivial job failed"
  done;
  Alcotest.(check int) "no thread started by 20 deadline batches" 1
    (thread_id () - before)

let test_deadline_spares_fast_jobs () =
  let policy =
    { Sup.default_policy with deadline_s = Some 30.0; retries = 0 }
  in
  match run_jobs ~policy [ job "t/0" (fun _ -> 7) ] with
  | [ Ok o ] -> Alcotest.(check int) "value" 7 o.Sup.value
  | _ -> Alcotest.fail "fast job must beat a generous deadline"

let test_engine_fallback_identical_stats () =
  (* A job whose tape decode raises must transparently re-run on the
     interpreter, leave exactly one tape -> interp note, and produce the
     stats the interpreter produces — the engines are bit-identical, so
     the campaign numbers are safe. *)
  let machine = Spf_sim.Machine.haswell in
  let run_is (ctx : Runner.ctx) = Runner.run_ctx ctx ~machine (Is.build Is.default) in
  let work (ctx : Runner.ctx) =
    match ctx.Runner.engine with
    | Some Engine.Interp -> run_is ctx
    | _ -> raise (Spf_sim.Tape.Decode_error "synthetic decode failure")
  in
  let jobs = [ { Sup.key = "t/0"; work; binfo = None } ] in
  let rencode (r : Runner.result) = Marshal.to_string r [] in
  let rdecode s =
    try Some (Marshal.from_string s 0 : Runner.result) with _ -> None
  in
  match
    Sup.run_jobs
      (Sup.options ~engine:Engine.Tape ())
      ~encode:rencode ~decode:rdecode jobs
  with
  | [ Ok o ] ->
      let direct = run_is (Runner.ctx_of_engine (Some Engine.Interp)) in
      Alcotest.(check bool)
        "one fallback note, tape->interp" true
        (match o.Sup.notes with
        | [
         Sup.Fell_back { from_engine = Engine.Tape; to_engine = Engine.Interp; _ };
        ] ->
            true
        | _ -> false);
      Alcotest.(check bool)
        "stats identical to a direct interp run" true
        (o.Sup.value.Runner.stats = direct.Runner.stats)
  | _ -> Alcotest.fail "expected fallback success"

let test_fallback_chain_tape_to_interp () =
  (* A job whose decode fails on every engine that has one below it must
     walk the whole fallback chain down to the interpreter, trying each
     engine once in chain order, leaving one note per step, and still
     produce the interpreter's exact stats. *)
  let machine = Spf_sim.Machine.haswell in
  let run_is (ctx : Runner.ctx) =
    Runner.run_ctx ctx ~machine (Is.build Is.default)
  in
  let tried = ref [] in
  let work (ctx : Runner.ctx) =
    let e = Option.value ctx.Runner.engine ~default:Engine.default in
    tried := e :: !tried;
    match Engine.fallback e with
    | None -> run_is ctx
    | Some _ -> raise (Spf_sim.Tape.Decode_error "synthetic decode failure")
  in
  let rec chain e =
    e :: (match Engine.fallback e with Some n -> chain n | None -> [])
  in
  let jobs = [ { Sup.key = "t/0"; work; binfo = None } ] in
  let rencode (r : Runner.result) = Marshal.to_string r [] in
  let rdecode s =
    try Some (Marshal.from_string s 0 : Runner.result) with _ -> None
  in
  match
    Sup.run_jobs
      (Sup.options ~engine:Engine.Tape ())
      ~encode:rencode ~decode:rdecode jobs
  with
  | [ Ok o ] ->
      let direct = run_is (Runner.ctx_of_engine (Some Engine.Interp)) in
      let want = chain Engine.Tape in
      Alcotest.(check (list string))
        "engines tried, in chain order" [ "tape"; "interp" ]
        (List.map Engine.to_string want);
      Alcotest.(check (list string))
        "each engine tried once" (List.map Engine.to_string want)
        (List.rev_map Engine.to_string !tried);
      let rec steps = function
        | a :: (b :: _ as rest) -> (a, b) :: steps rest
        | _ -> []
      in
      Alcotest.(check bool)
        "one fallback note per step of the chain" true
        (List.length o.Sup.notes = List.length (steps want)
        && List.for_all2
             (fun n (a, b) ->
               match n with
               | Sup.Fell_back { from_engine; to_engine; _ } ->
                   from_engine = a && to_engine = b
               | _ -> false)
             o.Sup.notes (steps want));
      Alcotest.(check bool)
        "stats identical to a direct interp run" true
        (o.Sup.value.Runner.stats = direct.Runner.stats)
  | _ -> Alcotest.fail "expected chained fallback success"

let test_interp_decode_failure_not_looped () =
  (* Decode failure on the interpreter (no engine below it) must fail,
     not fall back forever. *)
  let work _ctx = raise (Spf_sim.Tape.Decode_error "synthetic") in
  match run_jobs ~engine:Engine.Interp [ job "t/0" work ] with
  | [ Error f ] ->
      Alcotest.check classification "class" Sup.Decode_failure f.Sup.f_class
  | _ -> Alcotest.fail "expected Error on the bottom engine"

let test_order_preserved () =
  let work i _ctx = i * 10 in
  let jobs = List.init 8 (fun i -> job (Printf.sprintf "t/%d" i) (work i)) in
  let got =
    run_jobs jobs
    |> List.map (function Ok o -> o.Sup.value | Error _ -> -1)
  in
  Alcotest.(check (list int))
    "submission order" [ 0; 10; 20; 30; 40; 50; 60; 70 ] got

let suite =
  [
    Alcotest.test_case "retry classifier over the exception taxonomy" `Quick
      test_classifier;
    Alcotest.test_case "exponential backoff is capped" `Quick
      test_backoff_bounded;
    Alcotest.test_case "transient failures retry then succeed" `Quick
      test_transient_retry_then_success;
    Alcotest.test_case "bounded retries then permanent failure" `Quick
      test_retries_exhausted;
    Alcotest.test_case "deterministic failures are not retried" `Quick
      test_deterministic_not_retried;
    Alcotest.test_case "deadline cancels a runaway simulation" `Quick
      test_deadline_fires;
    Alcotest.test_case "generous deadline leaves fast jobs alone" `Quick
      test_deadline_spares_fast_jobs;
    Alcotest.test_case "a deadline starts no thread" `Quick
      test_no_thread_per_deadline;
    Alcotest.test_case "decode failure falls back to identical interp run"
      `Quick test_engine_fallback_identical_stats;
    Alcotest.test_case "tape decode failure walks the whole fallback chain"
      `Quick test_fallback_chain_tape_to_interp;
    Alcotest.test_case "no fallback below the interpreter" `Quick
      test_interp_decode_failure_not_looped;
    Alcotest.test_case "outcomes come back in submission order" `Quick
      test_order_preserved;
  ]
