(* The `spf serve` daemon: accept loop, per-connection handler threads,
   and a dispatcher that drains queued requests into supervised batches
   on the domain pool.

   Request flow:

     handler thread:   read SUBMIT -> request index hit?  reply inline
                          with no parse (Service.inline)
                       -> else parse + key (Service.prepare), index it
                       -> sim-cache hit?  reply inline, never touch the
                          pool
                       -> miss: enqueue {prepared, cell}, block on cell
     dispatcher:       pop up to [batch_max] pending requests, run them
                       as one Supervisor.run_jobs batch over the pool,
                       fill each cell with the outcome
     handler thread:   render OK+body+DONE, or ERR from the
                       supervisor's classification

   Isolation is the supervisor's: a poisoned request (demand fault,
   fuel, verifier violation) raises on its pool domain, is classified
   Deterministic, and becomes that one client's ERR reply — the batch's
   other jobs and the fleet are untouched.  Deadlines ride the same
   per-attempt cancellation tokens the campaign runner uses.

   Hostile-reality posture (see docs/SERVING.md "Overload, drain, and
   warm-start"):

   - admission control: past [max_conns] live connections a new client
     gets one `ERR - busy retry-after=<ms> ...` line and a close; past
     [max_queue] queued misses a SUBMIT gets the same classified busy
     reply instead of unbounded queueing.  Nothing is ever silently
     dropped, and both sheds are counted in STATS;
   - bounded reads: all client input goes through {!Ioline} (per-read
     idle deadline, per-line cap) and SUBMIT payloads are additionally
     capped at [max_request_bytes] — a slowloris or never-terminating
     sender costs one classified reply, not daemon memory;
   - client-gone writes: SIGPIPE is ignored and EPIPE/ECONNRESET on a
     reply write just ends that connection's handler (counted, never
     fatal);
   - graceful drain: {!stop} (also the SHUTDOWN verb; the CLI wires
     SIGTERM/SIGINT to it) stops accepting, wakes idle connections,
     lets busy ones finish under [drain_deadline_s] (a watchdog
     force-closes stragglers' sockets at the deadline), waits for every
     handler to exit, then snapshots the cache journal.  Every request
     that was in flight when the drain started is answered;
   - warm start: with [journal_dir] set the result cache replays its
     crash-safe journal on startup, so a restarted daemon answers
     previously-seen work from cache with byte-identical bodies. *)

module Supervisor = Spf_harness.Supervisor

type addr = Unix_sock of string | Tcp of int

type cfg = {
  addr : addr;
  jobs : int;  (* pool domains per batch *)
  batch_max : int;  (* max requests fused into one supervised batch *)
  deadline_s : float option;  (* per-request budget on the pool *)
  pass_cap : int;
  sim_cap : int;
  journal_dir : string option;  (* cache journal for warm restarts *)
  max_conns : int;  (* live-connection admission budget *)
  max_queue : int;  (* queued-miss admission budget *)
  max_request_bytes : int;  (* SUBMIT payload budget *)
  idle_timeout_s : float;  (* per-read idle deadline on client input *)
  drain_deadline_s : float;  (* budget for in-flight work at drain *)
}

let default_cfg addr =
  {
    addr;
    jobs = Spf_harness.Pool.default_jobs ();
    batch_max = 32;
    deadline_s = Some 30.;
    pass_cap = 512;
    sim_cap = 2048;
    journal_dir = None;
    max_conns = 256;
    max_queue = 1024;
    max_request_bytes = 4 lsl 20;
    idle_timeout_s = 30.;
    drain_deadline_s = 10.;
  }

(* A one-shot cell the handler blocks on until the dispatcher fills it. *)
type outcome = (Service.reply, string * string) result (* Error (class, msg) *)

type cell = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  mutable c_value : outcome option;
}

let cell_create () =
  { c_mutex = Mutex.create (); c_cond = Condition.create (); c_value = None }

let cell_fill c v =
  Mutex.lock c.c_mutex;
  if c.c_value = None then begin
    c.c_value <- Some v;
    Condition.signal c.c_cond
  end;
  Mutex.unlock c.c_mutex

let cell_wait c =
  Mutex.lock c.c_mutex;
  while c.c_value = None do
    Condition.wait c.c_cond c.c_mutex
  done;
  let v = Option.get c.c_value in
  Mutex.unlock c.c_mutex;
  v

type pending = { p_prepared : Service.prepared; p_cell : cell }

type counters = {
  mutable requests : int;
  mutable inline_hits : int;
  mutable batches : int;
  mutable errors : int;
  mutable shed_conns : int;  (* connections refused at max_conns *)
  mutable shed_requests : int;  (* SUBMITs refused busy (queue/drain) *)
  mutable client_gone : int;  (* EPIPE/ECONNRESET/EOF on reply write *)
  mutable idle_timeouts : int;  (* reads that hit the idle deadline *)
  mutable oversized : int;  (* requests past max_request_bytes *)
}

type conn = { fd : Unix.file_descr; mutable busy : bool }
(* [busy] is true while the handler is mid-request (verb read through
   reply written): the drain trigger only force-wakes idle conns, so
   in-flight requests finish and get answered. *)

type t = {
  cfg : cfg;
  cache : Rcache.t;
  listen_fd : Unix.file_descr;
  queue : pending Queue.t;
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  mutable draining : bool;  (* under q_mutex *)
  counters : counters;
  c_mutex : Mutex.t;  (* guards counters, conns, handlers, threads *)
  h_cond : Condition.t;  (* signalled when a handler exits *)
  mutable conns : conn list;
  mutable handlers : int;  (* live handler threads *)
  mutable threads : Thread.t list;  (* accept, dispatcher, watchdog *)
}

let cache t = t.cache

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let bump t f = with_lock t.c_mutex (fun () -> f t.counters)
let is_draining t = with_lock t.q_mutex (fun () -> t.draining)

(* ------------------------------------------------------------------ *)
(* Dispatcher.                                                         *)

let drain_batch t =
  with_lock t.q_mutex (fun () ->
      while Queue.is_empty t.queue && not t.draining do
        Condition.wait t.q_cond t.q_mutex
      done;
      let rec pop acc n =
        if n = 0 || Queue.is_empty t.queue then List.rev acc
        else pop (Queue.pop t.queue :: acc) (n - 1)
      in
      pop [] t.cfg.batch_max)

let run_batch t batch =
  bump t (fun c -> c.batches <- c.batches + 1);
  let policy =
    { Supervisor.default_policy with deadline_s = t.cfg.deadline_s }
  in
  let opts = Supervisor.options ~policy ~jobs:t.cfg.jobs () in
  let jobs =
    List.map
      (fun p ->
        {
          Supervisor.key = p.p_prepared.Service.req.Proto.id;
          work = (fun ctx -> Service.run ~cache:t.cache ~ctx p.p_prepared);
          binfo = None;
        })
      batch
  in
  (* No supervisor journal here: the serve-side journal lives inside
     Rcache, which records results as they are inserted on the pool
     domains. *)
  match Supervisor.run_jobs opts jobs with
  | exception exn ->
      (* A batch-level failure must not leave handlers blocked on
         unfilled cells: every request in it gets a classified reply.
         The handler counts the ERR it sends. *)
      let msg = Service.describe_error exn in
      List.iter (fun p -> cell_fill p.p_cell (Error ("transient", msg))) batch
  | results ->
      List.iter2
        (fun p result ->
          let v =
            match result with
            | Ok (o : _ Supervisor.outcome) -> Ok o.Supervisor.value
            | Error (f : Supervisor.failure) ->
                Error
                  ( Supervisor.classification_to_string f.Supervisor.f_class,
                    Service.describe_error f.Supervisor.f_exn )
          in
          cell_fill p.p_cell v)
        batch results

let dispatcher t =
  let rec loop () =
    let batch = drain_batch t in
    if batch <> [] then run_batch t batch;
    let continue =
      with_lock t.q_mutex (fun () ->
          not (t.draining && Queue.is_empty t.queue))
    in
    if continue then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Per-connection handler.                                             *)

let us_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)

let stats_lines t =
  let level name (s : Rcache.level_stats) =
    [
      Printf.sprintf "S %s_hits %d" name s.Rcache.hits;
      Printf.sprintf "S %s_misses %d" name s.Rcache.misses;
      Printf.sprintf "S %s_evictions %d" name s.Rcache.evictions;
      Printf.sprintf "S %s_entries %d" name s.Rcache.entries;
      Printf.sprintf "S %s_capacity %d" name s.Rcache.capacity;
    ]
  in
  let counter_lines =
    with_lock t.c_mutex (fun () ->
        let c = t.counters in
        [
          Printf.sprintf "S requests %d" c.requests;
          Printf.sprintf "S inline_hits %d" c.inline_hits;
          Printf.sprintf "S batches %d" c.batches;
          Printf.sprintf "S errors %d" c.errors;
          Printf.sprintf "S shed_conns %d" c.shed_conns;
          Printf.sprintf "S shed_requests %d" c.shed_requests;
          Printf.sprintf "S client_gone %d" c.client_gone;
          Printf.sprintf "S idle_timeouts %d" c.idle_timeouts;
          Printf.sprintf "S oversized %d" c.oversized;
          Printf.sprintf "S open_conns %d" (List.length t.conns);
          Printf.sprintf "S active_handlers %d" t.handlers;
        ])
  in
  let j = Rcache.journal_stats t.cache in
  let journal_lines =
    [
      Printf.sprintf "S journaled %d" (if j.Rcache.journaled then 1 else 0);
      Printf.sprintf "S journal_replayed_pass %d" j.Rcache.replayed_pass;
      Printf.sprintf "S journal_replayed_sim %d" j.Rcache.replayed_sim;
      Printf.sprintf "S journal_appends %d" j.Rcache.appends;
      Printf.sprintf "S journal_compactions %d" j.Rcache.compactions;
      Printf.sprintf "S journal_recovered_truncated %d"
        (if j.Rcache.recovered_truncated then 1 else 0);
    ]
  in
  [ Proto.ok_line ~id:"stats" ~cache:"-" ]
  @ level "pass" (Rcache.pass_stats t.cache)
  @ level "sim" (Rcache.sim_stats t.cache)
  @ level "request" (Rcache.request_stats t.cache)
  @ counter_lines @ journal_lines
  @ [
      Printf.sprintf "S draining %d" (if is_draining t then 1 else 0);
      Proto.done_line ~id:"stats" ~us:0;
    ]

(* Read a SUBMIT payload through the bounded reader, holding the total
   under the request-bytes budget. *)
let read_payload rd ~budget =
  let b = Buffer.create 1024 in
  let rec loop () =
    match Ioline.read_line rd with
    | Ioline.Line line when String.equal line Proto.terminator ->
        `Payload (Buffer.contents b)
    | Ioline.Line line ->
        if Buffer.length b + String.length line + 1 > budget then `Oversized
        else begin
          Buffer.add_string b line;
          Buffer.add_char b '\n';
          loop ()
        end
    | Ioline.Eof -> `Eof
    | Ioline.Timeout -> `Timeout
    | Ioline.Overflow -> `Oversized
  in
  loop ()

(* [send] returns false when the client vanished mid-write (EPIPE /
   ECONNRESET / closed fd): counted, the handler just ends. *)
let submit t send ~id ~opts ~case_text =
  bump t (fun c -> c.requests <- c.requests + 1);
  let t0 = Unix.gettimeofday () in
  let err cls msg =
    bump t (fun c -> c.errors <- c.errors + 1);
    send [ Proto.err_line ~id ~cls ~msg ]
  in
  let ok (r : Service.reply) =
    send
      ((Proto.ok_line ~id ~cache:(Service.status_to_string r.Service.status)
       :: r.Service.body)
      @ [ Proto.done_line ~id ~us:(us_since t0) ])
  in
  match Proto.request_of ~id ~opts ~case_text with
  | Error msg -> err "protocol" msg
  | Ok req -> (
      match Service.inline ~cache:t.cache req with
      | exception exn -> err "deterministic" (Service.describe_error exn)
      | Service.Hit r ->
          bump t (fun c -> c.inline_hits <- c.inline_hits + 1);
          ok r
      | Service.Miss p -> (
          let cell = cell_create () in
          let verdict =
            with_lock t.q_mutex (fun () ->
                if t.draining then `Draining
                else if Queue.length t.queue >= t.cfg.max_queue then `Full
                else begin
                  Queue.push { p_prepared = p; p_cell = cell } t.queue;
                  Condition.signal t.q_cond;
                  `Queued
                end)
          in
          match verdict with
          | `Queued -> (
              match cell_wait cell with
              | Ok r -> ok r
              | Error (cls, msg) -> err cls msg)
          | `Full ->
              bump t (fun c -> c.shed_requests <- c.shed_requests + 1);
              send
                [
                  Proto.busy_line ~id ~retry_after_ms:250
                    ~msg:"request queue full";
                ]
          | `Draining ->
              bump t (fun c -> c.shed_requests <- c.shed_requests + 1);
              send
                [
                  Proto.busy_line ~id ~retry_after_ms:1000
                    ~msg:"server draining";
                ]))

let drain_watchdog t =
  let deadline = Unix.gettimeofday () +. t.cfg.drain_deadline_s in
  let rec loop () =
    let idle = with_lock t.c_mutex (fun () -> t.handlers = 0) in
    if idle then ()
    else if Unix.gettimeofday () >= deadline then
      (* Out of patience: force-close every remaining socket.  Blocked
         reads return Eof, pending writes fail client-gone, and the
         handlers fall through to their accounting. *)
      with_lock t.c_mutex (fun () ->
          List.iter
            (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
            t.conns)
    else begin
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ()

let trigger_drain t =
  let first =
    with_lock t.q_mutex (fun () ->
        if t.draining then false
        else begin
          t.draining <- true;
          Condition.broadcast t.q_cond;
          true
        end)
  in
  if first then begin
    (* Stop accepting and release the address. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (match t.cfg.addr with
    | Unix_sock path -> ( try Unix.unlink path with _ -> ())
    | Tcp _ -> ());
    (* Wake idle connections (blocked in select waiting for a verb);
       busy ones finish their in-flight request first and exit at the
       top of their loop.  The watchdog handles stragglers. *)
    with_lock t.c_mutex (fun () ->
        List.iter
          (fun c ->
            if not c.busy then
              try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
          t.conns);
    let wd = Thread.create (fun () -> drain_watchdog t) () in
    with_lock t.c_mutex (fun () -> t.threads <- wd :: t.threads)
  end

let handle_conn t conn =
  let oc = Unix.out_channel_of_descr conn.fd in
  let rd =
    Ioline.create ~max_line:t.cfg.max_request_bytes
      ~idle_s:t.cfg.idle_timeout_s conn.fd
  in
  let send lines =
    match
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      flush oc
    with
    | () -> true
    | exception (Sys_error _ | Unix.Unix_error _) ->
        bump t (fun c -> c.client_gone <- c.client_gone + 1);
        false
  in
  let set_busy v = with_lock t.c_mutex (fun () -> conn.busy <- v) in
  let rec loop () =
    if is_draining t then ()
    else
      match Ioline.read_line rd with
      | Ioline.Eof -> ()
      | Ioline.Timeout ->
          bump t (fun c -> c.idle_timeouts <- c.idle_timeouts + 1);
          ignore
            (send
               [
                 Proto.err_line ~id:"-" ~cls:"timeout"
                   ~msg:"idle timeout waiting for a request";
               ])
      | Ioline.Overflow ->
          bump t (fun c -> c.oversized <- c.oversized + 1);
          ignore
            (send
               [
                 Proto.err_line ~id:"-" ~cls:"protocol"
                   ~msg:
                     (Printf.sprintf "request line exceeds %d bytes"
                        t.cfg.max_request_bytes);
               ])
      | Ioline.Line line ->
          set_busy true;
          let continue = dispatch line in
          set_busy false;
          if continue then loop ()
  and dispatch line =
    match Proto.parse_verb line with
    | Error msg -> send [ Proto.err_line ~id:"-" ~cls:"protocol" ~msg ]
    | Ok Proto.Ping -> send [ "PONG" ]
    | Ok Proto.Stats -> send (stats_lines t)
    | Ok Proto.Shutdown ->
        ignore (send [ "BYE" ]);
        trigger_drain t;
        false
    | Ok (Proto.Submit { id; opts }) -> (
        match read_payload rd ~budget:t.cfg.max_request_bytes with
        | `Payload case_text -> submit t send ~id ~opts ~case_text
        | `Eof -> false
        | `Timeout ->
            bump t (fun c -> c.idle_timeouts <- c.idle_timeouts + 1);
            ignore
              (send
                 [
                   Proto.err_line ~id ~cls:"timeout"
                     ~msg:"idle timeout mid-payload";
                 ]);
            false
        | `Oversized ->
            bump t (fun c -> c.oversized <- c.oversized + 1);
            ignore
              (send
                 [
                   Proto.err_line ~id ~cls:"protocol"
                     ~msg:
                       (Printf.sprintf "request exceeds %d bytes"
                          t.cfg.max_request_bytes);
                 ]);
            false)
  in
  loop ()

let handler_main t conn =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close conn.fd with _ -> ());
      with_lock t.c_mutex (fun () ->
          t.conns <- List.filter (fun c -> c != conn) t.conns;
          t.handlers <- t.handlers - 1;
          Condition.broadcast t.h_cond))
    (fun () -> try handle_conn t conn with _ -> ())

(* Refused at the connection budget: one classified busy line, best
   effort (the client may already be gone), then close. *)
let shed_connection fd =
  let line = Proto.busy_line ~id:"-" ~retry_after_ms:500 ~msg:"connection capacity reached" ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with _ -> ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error _ -> () (* closed: draining *)
    | exception Invalid_argument _ -> ()
    | fd, _ ->
        let conn = { fd; busy = false } in
        let admitted =
          with_lock t.c_mutex (fun () ->
              if List.length t.conns >= t.cfg.max_conns then begin
                t.counters.shed_conns <- t.counters.shed_conns + 1;
                false
              end
              else begin
                t.conns <- conn :: t.conns;
                t.handlers <- t.handlers + 1;
                true
              end)
        in
        if admitted then
          ignore (Thread.create (fun () -> handler_main t conn) ())
        else shed_connection fd;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)

let listen addr =
  match addr with
  | Unix_sock path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

let start cfg =
  (* A vanished client must cost a counted write error, not the
     process: EPIPE instead of SIGPIPE.  (No-op on platforms without
     SIGPIPE.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let cache =
    Rcache.create ~pass_cap:cfg.pass_cap ~sim_cap:cfg.sim_cap
      ?journal_dir:cfg.journal_dir ()
  in
  let t =
    {
      cfg;
      cache;
      listen_fd = listen cfg.addr;
      queue = Queue.create ();
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      draining = false;
      counters =
        {
          requests = 0;
          inline_hits = 0;
          batches = 0;
          errors = 0;
          shed_conns = 0;
          shed_requests = 0;
          client_gone = 0;
          idle_timeouts = 0;
          oversized = 0;
        };
      c_mutex = Mutex.create ();
      h_cond = Condition.create ();
      conns = [];
      handlers = 0;
      threads = [];
    }
  in
  let acc = Thread.create (fun () -> accept_loop t) () in
  let disp = Thread.create (fun () -> dispatcher t) () in
  with_lock t.c_mutex (fun () -> t.threads <- [ disp; acc ]);
  t

let stop t = trigger_drain t

let wait t =
  let rec join_all () =
    let th =
      with_lock t.c_mutex (fun () ->
          match t.threads with
          | [] -> None
          | th :: rest ->
              t.threads <- rest;
              Some th)
    in
    match th with
    | Some th ->
        Thread.join th;
        join_all ()
    | None -> ()
  in
  join_all ();
  (* accept + dispatcher are down; now wait out the handlers (the drain
     watchdog bounds how long a straggler can hold its socket). *)
  with_lock t.c_mutex (fun () ->
      while t.handlers > 0 do
        Condition.wait t.h_cond t.c_mutex
      done);
  join_all ();
  (* Everything answered; snapshot the journal so the next start
     replays exactly the live cache. *)
  Rcache.flush_journal t.cache
