(* The serve subsystem: result-cache accounting (hits, misses,
   evictions, LRU order), the byte-identity contract (a cache hit must
   reproduce the cold reply body exactly, on every engine), cache-key
   separation (same program under a different machine / engine /
   provider / tscale must never collide), the request index (the same
   replies and sim-level counts without a parse), poisoned-request
   classification, and the daemon's own admission control, timeouts and
   journal warm restart, in process.

   The socket server itself is exercised end-to-end by the
   @serve-smoke rule (test/serve_smoke.ml). *)

module Rcache = Spf_serve.Rcache
module Proto = Spf_serve.Proto
module Service = Spf_serve.Service
module Runner = Spf_harness.Runner
module Supervisor = Spf_harness.Supervisor
module Engine = Spf_sim.Engine

(* ------------------------------------------------------------------ *)
(* Rcache: LRU accounting. *)

let stats_line (s : Rcache.level_stats) =
  Printf.sprintf "h=%d m=%d e=%d n=%d/%d" s.hits s.misses s.evictions
    s.entries s.capacity

let test_sim_lru_accounting () =
  let c = Rcache.create ~pass_cap:8 ~sim_cap:2 () in
  Rcache.add_sim c "a" "A";
  Rcache.add_sim c "b" "B";
  Alcotest.(check (option string)) "a hits" (Some "A") (Rcache.find_sim c "a");
  (* a is now most-recent; adding c must evict b, the LRU entry. *)
  Rcache.add_sim c "c" "C";
  Alcotest.(check (option string)) "b evicted" None (Rcache.find_sim c "b");
  Alcotest.(check (option string)) "a survives" (Some "A")
    (Rcache.find_sim c "a");
  Alcotest.(check (option string)) "c present" (Some "C")
    (Rcache.find_sim c "c");
  let s = Rcache.sim_stats c in
  Alcotest.(check string) "counters" "h=3 m=1 e=1 n=2/2" (stats_line s)

let test_sim_reinsert_dedups () =
  let c = Rcache.create ~sim_cap:2 () in
  Rcache.add_sim c "a" "A";
  Rcache.add_sim c "b" "B";
  (* Re-adding an existing key must refresh, not duplicate: a becomes
     most-recent, so the next insertion evicts b. *)
  Rcache.add_sim c "a" "A";
  Rcache.add_sim c "d" "D";
  Alcotest.(check (option string)) "b was LRU" None (Rcache.find_sim c "b");
  Alcotest.(check (option string)) "a survived re-insert" (Some "A")
    (Rcache.find_sim c "a");
  Alcotest.(check int) "entries stay bounded" 2 (Rcache.sim_stats c).entries

(* ------------------------------------------------------------------ *)
(* Service: byte-identity and key separation, on a real fuzz-generated
   program (same generator the loadtest replays). *)

let gen_case seed =
  let rng = Spf_workloads.Rng.split ~seed 0 in
  let spec = Spf_fuzz.Gen.random rng in
  let built = Spf_fuzz.Gen.build spec in
  Spf_valid.Case.to_string
    (Spf_valid.Case.of_concrete ~func:built.Spf_fuzz.Gen.func
       ~mem:built.Spf_fuzz.Gen.mem ~args:built.Spf_fuzz.Gen.args
       ~fuel:(Spf_fuzz.Gen.fuel spec))

let case_text = lazy (gen_case 11)

let request_opts ?(id = "t") ?(case_text = Lazy.force case_text) opts =
  match Proto.request_of ~id ~opts ~case_text with
  | Ok req -> req
  | Error e -> Alcotest.fail e

let prepare_opts opts = Service.prepare (request_opts opts)

let body_string (r : Service.reply) = String.concat "\n" r.Service.body

let inline_miss ~cache req =
  match Service.inline ~cache req with
  | Service.Miss p -> p
  | Service.Hit _ -> Alcotest.fail "request answered before it was ever run"

let inline_hit ~cache req =
  match Service.inline ~cache req with
  | Service.Hit r -> r
  | Service.Miss _ -> Alcotest.fail "request index missed a repeated request"

let test_hit_matches_cold () =
  (* For every engine: the cold body, the prepared inline sim-hit body,
     the request index's body (no parse) and a full re-run body must be
     byte-identical — the cache's whole contract. *)
  List.iter
    (fun engine ->
      let name = Engine.to_string engine in
      let cache = Rcache.create () in
      let req = request_opts [ ("engine", name) ] in
      let p = inline_miss ~cache req in
      let cold = Service.run ~cache ~ctx:Runner.null_ctx p in
      Alcotest.(check string) (name ^ " first run is cold") "cold"
        (Service.status_to_string cold.Service.status);
      let inline =
        match Service.try_hit ~cache p with
        | Some r -> r
        | None -> Alcotest.fail (name ^ ": no inline hit after cold run")
      in
      List.iter
        (fun (what, (r : Service.reply)) ->
          Alcotest.(check string) (name ^ " " ^ what ^ " is a sim hit")
            "sim-hit"
            (Service.status_to_string r.Service.status);
          Alcotest.(check string)
            (name ^ " " ^ what ^ " body = cold body")
            (body_string cold) (body_string r))
        [
          ("inline hit", inline);
          ("index hit", inline_hit ~cache req);
          ("rerun", Service.run ~cache ~ctx:Runner.null_ctx p);
        ];
      Alcotest.(check string) (name ^ " request level") "h=1 m=1 e=0 n=1/2048"
        (stats_line (Rcache.request_stats cache)))
    Engine.all

let test_compiled_engine_refused () =
  (* Only interp and tape exist: any other engine name, the removed
     "compiled" included, is a protocol error, not an alias. *)
  match
    Proto.request_of ~id:"c" ~opts:[ ("engine", "compiled") ]
      ~case_text:(Lazy.force case_text)
  with
  | Ok _ -> Alcotest.fail "engine=compiled was accepted"
  | Error e ->
      Alcotest.(check string) "classified message" "unknown engine \"compiled\"" e

let test_pass_hit_on_machine_change () =
  (* Same program and pass config on a different machine: the compile
     memo applies (the pass is machine-independent under the static
     provider), the sim memo must not. *)
  let cache = Rcache.create () in
  let hsw = prepare_opts [] in
  ignore (Service.run ~cache ~ctx:Runner.null_ctx hsw);
  let a53 = prepare_opts [ ("machine", "a53") ] in
  Alcotest.(check (option string)) "no inline hit across machines" None
    (Option.map body_string (Service.try_hit ~cache a53));
  let r = Service.run ~cache ~ctx:Runner.null_ctx a53 in
  Alcotest.(check string) "a53 run reuses the pass memo" "pass-hit"
    (Service.status_to_string r.Service.status)

(* One variant of the default request per keyed dimension. *)
let variant_opts =
  [
    ("machine", [ ("machine", "a53") ]);
    ("engine", [ ("engine", "interp") ]);
    ("provider", [ ("provider", "adaptive") ]);
    ("c", [ ("c", "4") ]);
    ("tscale", [ ("tscale", "2") ]);
  ]

let test_key_separation () =
  (* Pairwise-distinct sim keys for every config dimension, and no
     false inline hit after a cold run of the base request. *)
  let base = prepare_opts [] in
  let variants =
    List.map (fun (dim, opts) -> (dim, prepare_opts opts)) variant_opts
  in
  List.iter
    (fun (dim, v) ->
      Alcotest.(check bool)
        (dim ^ " changes the sim key")
        false
        (String.equal base.Service.sim_key v.Service.sim_key))
    variants;
  (* provider and c are pass-level dimensions; machine/engine/tscale are
     sim-level only and must share the compile memo. *)
  List.iter
    (fun (dim, v) ->
      let same = String.equal base.Service.pass_key v.Service.pass_key in
      match dim with
      | "provider" | "c" ->
          Alcotest.(check bool) (dim ^ " changes the pass key") false same
      | _ -> Alcotest.(check bool) (dim ^ " keeps the pass key") true same)
    variants;
  let cache = Rcache.create () in
  ignore
    (Service.run ~cache ~ctx:Runner.null_ctx
       (inline_miss ~cache (request_opts ~id:"a" [])));
  List.iter
    (fun (dim, v) ->
      match Service.try_hit ~cache v with
      | None -> ()
      | Some _ -> Alcotest.fail (dim ^ " variant collided with base"))
    variants;
  (* The request index: another id shares the base's entry; a variant is
     never answered from it, and gets an entry of its own. *)
  ignore (inline_hit ~cache (request_opts ~id:"b" []));
  List.iter
    (fun (dim, opts) ->
      match Service.inline ~cache (request_opts ~id:"a" opts) with
      | Service.Miss _ -> ()
      | Service.Hit _ -> Alcotest.fail (dim ^ " variant answered by the base"))
    variant_opts;
  Alcotest.(check int) "one index entry per distinct request"
    (1 + List.length variant_opts)
    (Rcache.request_stats cache).entries

let poison_case =
  ";; spf-case v1\n!brk 4096\n!fuel 1000\n\
   func poison (0 params, entry bb0) {\n\
   bb0 (entry):\n\
  \  %v.0 = load i32, #1048576\n\
  \  ret %v.0\n\
   }\n"

let test_poison_classified () =
  (* A demand fault must surface as a raise the supervisor classifies
     Deterministic — the serve dispatcher turns exactly this into the
     one client's ERR reply. *)
  let req =
    match Proto.request_of ~id:"p" ~opts:[] ~case_text:poison_case with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let p = Service.prepare req in
  let cache = Rcache.create () in
  match Service.run ~cache ~ctx:Runner.null_ctx p with
  | _ -> Alcotest.fail "poisoned request did not trap"
  | exception e ->
      Alcotest.(check string) "classified deterministic" "deterministic"
        (Supervisor.classification_to_string (Supervisor.classify e));
      Alcotest.(check bool) "error message is non-empty" true
        (String.length (Service.describe_error e) > 0)

(* Touches a spread of lines — dirtying every cache level and the TLB —
   before it traps. *)
let dirty_then_trap_case =
  let loads =
    List.init 32 (fun k ->
        Printf.sprintf "  %%v.%d = load i32, #%d\n" k (k * 4096 + (k * 64)))
  in
  ";; spf-case v1\n!brk 262144\n!fuel 1000\n\
   func dirty_trap (0 params, entry bb0) {\n\
   bb0 (entry):\n"
  ^ String.concat "" loads
  ^ "  %v.32 = load i32, #1048576\n  ret %v.32\n}\n"

(* [p]'s reply on fresh tag arrays: run on a domain of its own, whose
   spare pool starts empty, so nothing earlier tests released on this
   domain can warm it. *)
let run_on_fresh_arrays p =
  Domain.join
    (Domain.spawn (fun () ->
         Service.run ~cache:(Rcache.create ()) ~ctx:Runner.null_ctx p))

let test_trap_releases_clean () =
  (* A trapped simulation hands its tag arrays back on the exception
     path; the next request on this domain reuses them and must answer
     byte for byte as it would on a fresh cache. *)
  let fresh = run_on_fresh_arrays (prepare_opts []) in
  let trap =
    match Proto.request_of ~id:"d" ~opts:[] ~case_text:dirty_then_trap_case with
    | Ok r -> Service.prepare r
    | Error e -> Alcotest.fail e
  in
  let cache = Rcache.create () in
  let spares_before = Spf_sim.Cache.spares () in
  (match Service.run ~cache ~ctx:Runner.null_ctx trap with
  | _ -> Alcotest.fail "dirtying request did not trap"
  | exception Spf_sim.Interp.Trap _ -> ());
  Alcotest.(check bool) "trapped run returned its arrays" true
    (let s = Spf_sim.Cache.spares () in
     s >= spares_before && s > 0);
  let after = Service.run ~cache ~ctx:Runner.null_ctx (prepare_opts []) in
  Alcotest.(check string) "reply after a trap = reply on a fresh cache"
    (body_string fresh) (body_string after)

(* ------------------------------------------------------------------ *)
(* The daemon under hostile conditions, in process: admission control
   always answers busy (never a silent drop), the read loop is bounded
   in bytes and in time, and a journal-backed restart serves the same
   bytes warm.  The spawned-process versions of these checks live in
   @serve-smoke and @chaos-smoke. *)

module Server = Spf_serve.Server
module Client = Spf_serve.Client

let scratch =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spf-ts-%d-%d-%s" (Unix.getpid ()) !n name)

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f t)

let test_cfg sock = { (Server.default_cfg (Server.Unix_sock sock)) with Server.jobs = 1 }

let with_client sock f =
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Read one raw reply line off a fresh connection without sending
   anything — how a shed or idling client experiences the server. *)
let read_raw_reply sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let line = ref (try Some (input_line ic) with End_of_file -> None) in
      let next () =
        let l = !line in
        line := None;
        l
      in
      match Proto.read_reply next with
      | Ok r -> r
      | Error e -> Alcotest.fail ("raw reply unparsable: " ^ e))

let test_queue_shed_answers_busy () =
  let sock = scratch "shed.sock" in
  let cfg = { (test_cfg sock) with Server.max_queue = 0 } in
  with_server cfg (fun _ ->
      with_client sock (fun c ->
          match Client.submit c ~id:"q" ~case_text:(Lazy.force case_text) () with
          | Error e -> Alcotest.fail e
          | Ok r ->
              (match r.Proto.r_err with
              | Some ("busy", _) -> ()
              | _ -> Alcotest.fail "full queue did not answer busy");
              Alcotest.(check (option int)) "backoff hint carried" (Some 250)
                (Proto.retry_after_ms r)))

let test_conn_shed_answers_busy () =
  let sock = scratch "conns.sock" in
  let cfg = { (test_cfg sock) with Server.max_conns = 1 } in
  with_server cfg (fun _ ->
      with_client sock (fun c1 ->
          Alcotest.(check bool) "admitted connection serves" true
            (Client.ping c1);
          let r = read_raw_reply sock in
          (match r.Proto.r_err with
          | Some ("busy", _) -> ()
          | _ -> Alcotest.fail "excess connection not answered busy");
          Alcotest.(check (option int)) "shed carries a backoff" (Some 500)
            (Proto.retry_after_ms r);
          (* The admitted connection is unaffected by the shed. *)
          Alcotest.(check bool) "first connection still serves" true
            (Client.ping c1)))

let test_oversized_request_classified () =
  let sock = scratch "big.sock" in
  let cfg = { (test_cfg sock) with Server.max_request_bytes = 64 } in
  with_server cfg (fun _ ->
      with_client sock (fun c ->
          match Client.submit c ~id:"b" ~case_text:(Lazy.force case_text) () with
          | Error e -> Alcotest.fail e
          | Ok r -> (
              match r.Proto.r_err with
              | Some ("protocol", _) -> ()
              | _ -> Alcotest.fail "oversized request not classified")))

let test_idle_timeout_classified () =
  let sock = scratch "idle.sock" in
  let cfg = { (test_cfg sock) with Server.idle_timeout_s = 0.2 } in
  with_server cfg (fun _ ->
      (* Connect and send nothing: the bounded read must answer a
         classified timeout instead of holding the handler forever. *)
      let r = read_raw_reply sock in
      match r.Proto.r_err with
      | Some ("timeout", _) -> ()
      | _ -> Alcotest.fail "idle connection not timed out")

let test_journal_warm_restart () =
  let sock = scratch "warm.sock" in
  let jdir = scratch "warm-journal" in
  let cfg = { (test_cfg sock) with Server.journal_dir = Some jdir } in
  Fun.protect
    ~finally:(fun () -> rm_rf jdir)
    (fun () ->
      let cold_body = ref [] in
      with_server cfg (fun _ ->
          with_client sock (fun c ->
              match Client.submit c ~id:"w" ~case_text:(Lazy.force case_text) () with
              | Error e -> Alcotest.fail e
              | Ok r ->
                  Alcotest.(check string) "first run is cold" "cold"
                    r.Proto.r_cache;
                  cold_body := r.Proto.r_body));
      (* Graceful drain unlinked the socket and snapshotted the journal;
         a restarted daemon on the same directory answers warm. *)
      Alcotest.(check bool) "socket removed on drain" false
        (Sys.file_exists sock);
      with_server cfg (fun t ->
          let js = Rcache.journal_stats (Server.cache t) in
          Alcotest.(check bool) "journal replayed at restart" true
            (js.Rcache.replayed_sim >= 1);
          (* The request index is not journaled: the first warm request
             parses (a request miss), the second is answered from the
             index (a request hit), and both bodies are the cold one. *)
          let request_level () =
            let s = Rcache.request_stats (Server.cache t) in
            Printf.sprintf "h=%d m=%d" s.hits s.misses
          in
          with_client sock (fun c ->
              List.iter
                (fun (id, level) ->
                  match
                    Client.submit c ~id ~case_text:(Lazy.force case_text) ()
                  with
                  | Error e -> Alcotest.fail e
                  | Ok r ->
                      Alcotest.(check string) (id ^ " answers from cache")
                        "sim-hit" r.Proto.r_cache;
                      Alcotest.(check (list string))
                        (id ^ " body byte-identical to the cold body")
                        !cold_body r.Proto.r_body;
                      Alcotest.(check string) (id ^ " request level") level
                        (request_level ()))
                [ ("w2", "h=0 m=1"); ("w3", "h=1 m=1") ])))

let stats_of c =
  match Client.stats c with Ok kv -> kv | Error e -> Alcotest.fail e

let stat kv k =
  match List.assoc_opt k kv with
  | Some v -> v
  | None -> Alcotest.fail ("STATS lacks " ^ k)

(* Branches to itself until a billion blocks of fuel run out — only a
   deadline stops it in test time — loading a new line and page on
   every trip, so it dirties every cache level and the TLB. *)
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

let test_deadline_classified () =
  (* The runaway simulation is cancelled at its first poll past the
     0.2 s deadline, retried once after the policy's 0.25 s backoff,
     cancelled again and answered as a classified timeout.  Its dirty
     tag arrays went back to the pool domain's spares on both exits; the
     next program, cold, must still answer byte for byte as on a fresh
     cache. *)
  let sock = scratch "deadline.sock" in
  let cfg = { (test_cfg sock) with Server.deadline_s = Some 0.2 } in
  let fresh = run_on_fresh_arrays (prepare_opts []) in
  with_server cfg (fun _ ->
      with_client sock (fun c ->
          let t0 = Unix.gettimeofday () in
          (match Client.submit c ~id:"spin" ~case_text:spin_case () with
          | Error e -> Alcotest.fail e
          | Ok r ->
              Alcotest.(check (option (pair string string)))
                "classified timeout"
                (Some ("timeout", "deadline exceeded"))
                r.Proto.r_err);
          let took = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "two attempts and a backoff (%.2f s)" took)
            true
            (took >= 0.65 && took < 10.);
          (match
             Client.submit c ~id:"good" ~case_text:(Lazy.force case_text) ()
           with
          | Error e -> Alcotest.fail e
          | Ok r ->
              Alcotest.(check string) "next program runs cold" "cold"
                r.Proto.r_cache;
              Alcotest.(check (list string)) "cold body as on a fresh cache"
                fresh.Service.body r.Proto.r_body);
          let kv = stats_of c in
          Alcotest.(check int) "one error" 1 (stat kv "errors")))

let test_index_counter_parity () =
  (* Three programs through a two-entry sim level: B is evicted by C and
     then resubmitted (its index entry outlives its body), A is evicted
     by B and resubmitted, and the repeats in between are hits.  The
     sim-level and inline counts are exactly what the daemon counted
     before the request index existed; the index only adds its own
     level. *)
  let sock = scratch "parity.sock" in
  let cfg = { (test_cfg sock) with Server.sim_cap = 2 } in
  let a = gen_case 21 and b = gen_case 22 and c = gen_case 23 in
  let sequence =
    [ ("a1", a); ("b1", b); ("a2", a); ("c1", c); ("b2", b); ("b3", b);
      ("a3", a); ("a4", a) ]
  in
  with_server cfg (fun _ ->
      with_client sock (fun cl ->
          let statuses =
            List.map
              (fun (id, case_text) ->
                match Client.submit cl ~id ~case_text () with
                | Ok r when r.Proto.r_err = None -> r.Proto.r_cache
                | Ok _ | Error _ -> Alcotest.fail ("no reply to " ^ id))
              sequence
          in
          Alcotest.(check (list string)) "cache statuses"
            [ "cold"; "cold"; "sim-hit"; "cold"; "pass-hit"; "sim-hit";
              "pass-hit"; "sim-hit" ]
            statuses;
          let kv = stats_of cl in
          List.iter
            (fun (k, want) -> Alcotest.(check int) k want (stat kv k))
            [
              ("sim_hits", 3);
              ("sim_misses", 10);
              ("sim_evictions", 3);
              ("inline_hits", 3);
              ("request_hits", 3);
              ("request_misses", 5);
            ]))

let test_index_unparsable_never_indexed () =
  let sock = scratch "unparsable.sock" in
  with_server (test_cfg sock) (fun _ ->
      with_client sock (fun cl ->
          let reply id =
            match Client.submit cl ~id ~case_text:"garbage\n" () with
            | Ok r -> r.Proto.r_err
            | Error e -> Alcotest.fail e
          in
          let first = reply "g1" in
          (match first with
          | Some ("deterministic", _) -> ()
          | _ -> Alcotest.fail "unparsable text not classified deterministic");
          Alcotest.(check bool) "the same ERR again" true (reply "g2" = first);
          let kv = stats_of cl in
          Alcotest.(check int) "never indexed" 0 (stat kv "request_entries");
          Alcotest.(check int) "never a request hit" 0 (stat kv "request_hits")))

let suite =
  [
    Alcotest.test_case "sim LRU accounting" `Quick test_sim_lru_accounting;
    Alcotest.test_case "sim re-insert dedups" `Quick test_sim_reinsert_dedups;
    Alcotest.test_case "hit body = cold body, all engines" `Quick
      test_hit_matches_cold;
    Alcotest.test_case "engine=compiled refused" `Quick
      test_compiled_engine_refused;
    Alcotest.test_case "machine change pass-hits" `Quick
      test_pass_hit_on_machine_change;
    Alcotest.test_case "cache-key separation" `Quick test_key_separation;
    Alcotest.test_case "poisoned request classified" `Quick
      test_poison_classified;
    Alcotest.test_case "trap releases arrays clean" `Quick
      test_trap_releases_clean;
    Alcotest.test_case "full queue answers busy" `Quick
      test_queue_shed_answers_busy;
    Alcotest.test_case "excess connection answers busy" `Quick
      test_conn_shed_answers_busy;
    Alcotest.test_case "oversized request classified" `Quick
      test_oversized_request_classified;
    Alcotest.test_case "idle connection times out" `Quick
      test_idle_timeout_classified;
    Alcotest.test_case "runaway request times out, next one is clean" `Quick
      test_deadline_classified;
    Alcotest.test_case "journal warm restart byte-identical" `Quick
      test_journal_warm_restart;
    Alcotest.test_case "index keeps the sim counters" `Quick
      test_index_counter_parity;
    Alcotest.test_case "index never holds an unparsable text" `Quick
      test_index_unparsable_never_indexed;
  ]
