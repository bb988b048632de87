(* @serve-smoke: end-to-end exercise of a spawned `spf serve` daemon on
   a temp Unix socket — PING, a cold/hot submit pair with a
   byte-identical-body assertion, a mixed hot/cold concurrent burst, one
   injected poisoned request (which must become a classified ERR reply
   while the fleet keeps serving), STATS, and a clean protocol-initiated
   shutdown (the daemon must exit 0).

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

(* One known-good program, same generator the loadtest replays. *)
let good_case =
  let rng = Spf_workloads.Rng.split ~seed:11 0 in
  let spec = Spf_fuzz.Gen.random rng in
  let built = Spf_fuzz.Gen.build spec in
  Spf_valid.Case.to_string
    (Spf_valid.Case.of_concrete ~func:built.Spf_fuzz.Gen.func
       ~mem:built.Spf_fuzz.Gen.mem ~args:built.Spf_fuzz.Gen.args
       ~fuel:(Spf_fuzz.Gen.fuel spec))

(* A demand fault: load far beyond the program break. *)
let poison_case =
  ";; spf-case v1\n!brk 4096\n!fuel 1000\n\
   func poison (0 params, entry bb0) {\n\
   bb0 (entry):\n\
  \  %v.0 = load i32, #1048576\n\
  \  ret %v.0\n\
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
      [| spf; "serve"; "--socket"; sock |]
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
          check "STATS counts the fault" (get "errors" >= 1)
      | Error e -> failwith ("stats: " ^ e));
      check "SHUTDOWN acknowledged" (Client.shutdown c);
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      finished := true;
      check "daemon exited cleanly" (status = Unix.WEXITED 0));
  (try Sys.remove sock with Sys_error _ -> ());
  if !failures > 0 then exit 1
