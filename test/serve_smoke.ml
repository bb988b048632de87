(* @serve-smoke: end-to-end exercise of a spawned `spf serve --deadline
   1` daemon on a temp Unix socket — PING, a cold/hot submit pair with a
   byte-identical-body assertion, a mixed hot/cold concurrent burst, one
   injected poisoned request (which must become a classified ERR reply
   while the fleet keeps serving), one runaway program (which must time
   out, after which a new program still gets the body a fresh in-process
   run renders), STATS, and a clean protocol-initiated shutdown (the
   daemon must exit 0).

   Usage: serve_smoke.exe <path-to-spf.exe>                             *)

module Client = Spf_serve.Client
module Loadtest = Spf_serve.Loadtest

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    Printf.printf "FAIL %s\n%!" name;
    incr failures
  end

(* Known-good programs, same generator the loadtest replays. *)
let gen_case seed =
  let rng = Spf_workloads.Rng.split ~seed 0 in
  let spec = Spf_fuzz.Gen.random rng in
  let built = Spf_fuzz.Gen.build spec in
  Spf_valid.Case.to_string
    (Spf_valid.Case.of_concrete ~func:built.Spf_fuzz.Gen.func
       ~mem:built.Spf_fuzz.Gen.mem ~args:built.Spf_fuzz.Gen.args
       ~fuel:(Spf_fuzz.Gen.fuel spec))

let good_case = gen_case 11

(* First submitted after the runaway program has timed out. *)
let after_timeout_case = gen_case 12

(* The reply body of a cold run of [case_text], rendered in this process
   on fresh caches. *)
let expected_body case_text =
  match Spf_serve.Proto.request_of ~id:"x" ~opts:[] ~case_text with
  | Error e -> failwith ("expected body: " ^ e)
  | Ok req ->
      (Spf_serve.Service.run
         ~cache:(Spf_serve.Rcache.create ())
         ~ctx:Spf_harness.Runner.null_ctx
         (Spf_serve.Service.prepare req))
        .Spf_serve.Service.body

(* A demand fault: load far beyond the program break. *)
let poison_case =
  ";; spf-case v1\n!brk 4096\n!fuel 1000\n\
   func poison (0 params, entry bb0) {\n\
   bb0 (entry):\n\
  \  %v.0 = load i32, #1048576\n\
  \  ret %v.0\n\
   }\n"

(* Loops forever (a billion blocks of fuel), loading a new line and page
   on every trip: only the deadline stops it, with every cache level and
   the TLB dirty. *)
let spin_case =
  ";; spf-case v1\n!brk 262144\n!fuel 1000000000\n\
   func spin (0 params, entry bb0) {\n\
   bb0 (entry):\n\
  \  br bb1\n\
   bb1 (spin):\n\
  \  %i.0 = phi [bb0: #0], [bb1: %v.3]\n\
  \  %v.1 = and %i.0, #262143\n\
  \  %v.2 = load i32, %v.1\n\
  \  %v.3 = add %i.0, #4160\n\
  \  br bb1\n\
   }\n"

let rec connect_retry sock n =
  match Client.connect_unix sock with
  | c -> c
  | exception _ when n > 0 ->
      Unix.sleepf 0.05;
      connect_retry sock (n - 1)

let () =
  let spf = Sys.argv.(1) in
  let sock = Filename.temp_file "spf-smoke" ".sock" in
  Sys.remove sock;
  let pid =
    Unix.create_process spf
      [| spf; "serve"; "--socket"; sock; "--deadline"; "1" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        (try Unix.kill pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let c = connect_retry sock 100 in
      check "PING" (Client.ping c);
      (* Cold, then hot: the reply bodies must match byte for byte. *)
      let cold =
        match Client.submit c ~id:"cold" ~case_text:good_case () with
        | Ok r -> r
        | Error e -> failwith ("cold submit: " ^ e)
      in
      check "first submit is cold" (cold.Spf_serve.Proto.r_cache = "cold");
      let hot =
        match Client.submit c ~id:"hot" ~case_text:good_case () with
        | Ok r -> r
        | Error e -> failwith ("hot submit: " ^ e)
      in
      check "second submit is a sim hit"
        (hot.Spf_serve.Proto.r_cache = "sim-hit");
      check "hot body byte-identical to cold"
        (hot.Spf_serve.Proto.r_body = cold.Spf_serve.Proto.r_body);
      (* The repeat must have been answered from the request index, not
         parsed again. *)
      (match Client.stats c with
      | Ok kv ->
          check "hot submit answered from the request index"
            (Option.value ~default:0 (List.assoc_opt "request_hits" kv) >= 1)
      | Error e -> failwith ("stats: " ^ e));
      (* Poisoned request: a classified ERR for this client only. *)
      (match Client.submit c ~id:"poison" ~case_text:poison_case () with
      | Ok r ->
          (match r.Spf_serve.Proto.r_err with
          | Some (cls, _) ->
              check "poison classified deterministic" (cls = "deterministic")
          | None -> check "poison rejected" false)
      | Error e -> failwith ("poison submit: " ^ e));
      (* The fleet must keep serving after the fault, on the same
         connection and on fresh ones. *)
      (match Client.submit c ~id:"after" ~case_text:good_case () with
      | Ok r ->
          check "same connection survives the fault"
            (r.Spf_serve.Proto.r_cache = "sim-hit"
            && r.Spf_serve.Proto.r_body = cold.Spf_serve.Proto.r_body)
      | Error e -> failwith ("post-poison submit: " ^ e));
      (* Runaway program: cancelled at the deadline, retried once, then
         a classified timeout.  The next new program runs on the arrays
         the runaway released and must render exactly what a fresh run
         does. *)
      (match Client.submit c ~id:"spin" ~case_text:spin_case () with
      | Ok r ->
          check "runaway program times out"
            (r.Spf_serve.Proto.r_err = Some ("timeout", "deadline exceeded"))
      | Error e -> failwith ("spin submit: " ^ e));
      (match Client.submit c ~id:"fresh" ~case_text:after_timeout_case () with
      | Ok r ->
          check "next program after the timeout is cold and byte-identical"
            (r.Spf_serve.Proto.r_cache = "cold"
            && r.Spf_serve.Proto.r_body = expected_body after_timeout_case)
      | Error e -> failwith ("post-timeout submit: " ^ e));
      (* Mixed hot/cold concurrent burst with reply-integrity checks. *)
      let burst =
        Loadtest.run ~seed:7 ~count:40 ~dup:0.5 ~concurrency:4
          ~connect:(fun () -> connect_retry sock 20)
          ()
      in
      check "burst: all replied"
        (burst.Loadtest.replies = 40
        && burst.Loadtest.dropped = 0
        && burst.Loadtest.errors = 0);
      check "burst: no corrupted replies" (burst.Loadtest.corrupted = 0);
      check "burst: mixed hot and cold"
        (burst.Loadtest.cold > 0 && burst.Loadtest.sim_hits > 0);
      (match Client.stats c with
      | Ok kv ->
          let get k = Option.value ~default:(-1) (List.assoc_opt k kv) in
          check "STATS counts the hits" (get "sim_hits" >= 2);
          check "STATS counts each fault once (poison, timeout)"
            (get "errors" = 2)
      | Error e -> failwith ("stats: " ^ e));
      check "SHUTDOWN acknowledged" (Client.shutdown c);
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      finished := true;
      check "daemon exited cleanly" (status = Unix.WEXITED 0));
  (try Sys.remove sock with Sys_error _ -> ());
  if !failures > 0 then exit 1
