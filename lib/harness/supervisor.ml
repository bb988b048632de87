module Engine = Spf_sim.Engine
module S = Spf_sim.Exec_state
module Stats = Spf_sim.Stats

(* Supervised campaign execution on top of {!Pool}.

   The paper's evaluation is a matrix of long-running simulations; at
   campaign scale a single hung job, OOM-killed domain or mid-run crash
   must not cost the whole run.  This module wraps a list of keyed jobs
   with the full supervision pipeline:

     deadline -> retry -> engine fallback -> crash bundle

   - {e deadlines}: each attempt's cooperative cancellation token
     ({!Spf_sim.Exec_state.cancel}) carries the attempt's absolute
     wall-clock deadline; the simulation compares it with the clock at
     its poll points (every 1024 blocks) and raises [Cancelled] with its
     stats-so-far once the budget is spent.  No thread watches the jobs.
   - {e retry}: failures are classified ({!classify}) into transient ones
     (retried under exponential backoff, bounded by [policy.retries]),
     timeouts (also retried — a deadline overrun can be scheduling
     noise), and deterministic ones (failed immediately: re-running a
     deterministic simulation reproduces the same failure).
   - {e engine fallback}: a job whose tape decode raises
     {!Spf_sim.Tape.Decode_error} is re-run on the next engine of the
     {!Spf_sim.Engine.fallback} chain (tape -> interp) — the engines are
     bit-identical, so the campaign's numbers are unaffected; the
     degradation is reported as a note, not a failure, and does not
     consume a retry.
   - {e checkpointing}: with a {!Journal}, each completed job's encoded
     result is durably appended by the worker the moment it completes,
     and already-journaled jobs are skipped entirely on resume — the
     decoded payload stands in for the run, byte-identical.
   - {e crash bundles}: a permanently-failed job is captured as a
     self-contained {!Bundle} (metadata, printed IR, reproduction
     payload from the job's [binfo] callback, stats-so-far for
     timeouts), replayable via [spf replay].

   All supervision chatter goes through the caller (notes and failures in
   the returned list) or stderr — never stdout — so a supervised
   campaign's stdout stays byte-identical to a raw run. *)

(* --- failure classification -------------------------------------------- *)

type classification = Transient | Deterministic | Decode_failure | Timeout

let classification_to_string = function
  | Transient -> "transient"
  | Deterministic -> "deterministic"
  | Decode_failure -> "decode-failure"
  | Timeout -> "timeout"

exception Transient_failure of string
(* Marker for failures known to be environmental (and for fault-injection
   tests): always classified Transient. *)

(* The retry-classifier over the repo's exception taxonomy.  Everything
   the simulator or the pass raises deliberately (traps, fuel, verifier
   and checksum failures, diagnostics) is a property of the (job, seed,
   config) triple and will recur on retry: Deterministic.  Resource
   exhaustion and OS-level errors are properties of the moment:
   Transient. *)
let classify = function
  | S.Cancelled _ -> Timeout
  | Spf_sim.Tape.Decode_error _ -> Decode_failure
  | Transient_failure _ | Out_of_memory | Stack_overflow -> Transient
  | Unix.Unix_error _ | Sys_error _ -> Transient
  | S.Trap _ | S.Fuel_exhausted | Failure _ -> Deterministic
  | _ -> Deterministic

(* --- policy ------------------------------------------------------------- *)

type policy = {
  deadline_s : float option; (* per-attempt wall-clock budget *)
  retries : int; (* max re-runs after the first attempt *)
  backoff_base_s : float; (* sleep before retry k: base * 2^k, capped *)
  backoff_max_s : float;
}

let default_policy =
  {
    deadline_s = None;
    retries = 1;
    backoff_base_s = 0.25;
    backoff_max_s = 5.0;
  }

let backoff_s policy attempt =
  (* attempt is 0-based: the sleep before re-running attempt [attempt+1]. *)
  min policy.backoff_max_s (policy.backoff_base_s *. (2.0 ** float_of_int attempt))

type options = {
  policy : policy;
  jobs : int option;
  engine : Engine.t option;
  journal : Journal.t option;
  bundle_root : string option;
  sleep : float -> unit;
}

let options ?(policy = default_policy) ?jobs ?engine ?journal ?bundle_root
    ?(sleep = Unix.sleepf) () =
  { policy; jobs; engine; journal; bundle_root; sleep }

let bundle_root opts = opts.bundle_root
let journal opts = opts.journal

(* --- jobs and outcomes -------------------------------------------------- *)

type bundle_info = {
  b_meta : (string * string) list;
  b_ir : string option;
  b_payload : string option;
}

type 'a job = {
  key : string;
  work : Runner.ctx -> 'a;
  binfo : (exn -> bundle_info) option;
}

type note =
  | Retried of { attempt : int; slept_s : float; error : string }
  | Fell_back of { from_engine : Engine.t; to_engine : Engine.t; error : string }

let note_to_string = function
  | Retried { attempt; slept_s; error } ->
      Printf.sprintf "attempt %d failed (%s); retried after %.2fs backoff"
        attempt error slept_s
  | Fell_back { from_engine; to_engine; error } ->
      Printf.sprintf "engine %s failed to decode (%s); fell back to %s"
        (Engine.to_string from_engine)
        error
        (Engine.to_string to_engine)

type 'a outcome = { value : 'a; notes : note list; resumed : bool }

type failure = {
  f_key : string;
  f_exn : exn;
  f_class : classification;
  f_attempts : int;
  f_notes : note list;
  f_bundle : string option;
}

let pp_failure fmt (f : failure) =
  Format.fprintf fmt "job %s failed (%s, %d attempt%s): %s" f.f_key
    (classification_to_string f.f_class)
    f.f_attempts
    (if f.f_attempts = 1 then "" else "s")
    (Printexc.to_string f.f_exn);
  List.iter
    (fun n -> Format.fprintf fmt "@.  %s" (note_to_string n))
    (List.rev f.f_notes);
  match f.f_bundle with
  | Some dir -> Format.fprintf fmt "@.  crash bundle: %s" dir
  | None -> ()

(* --- the supervised run ------------------------------------------------- *)

let run_jobs opts ~encode ~decode jobs =
  let jobs_arr = Array.of_list jobs in
  let write_bundle (job : 'a job) exn ~cls ~attempts ~notes =
    match opts.bundle_root with
    | None -> None
    | Some root -> (
        let info =
          match job.binfo with
          | Some f -> ( try f exn with _ -> { b_meta = []; b_ir = None; b_payload = None })
          | None -> { b_meta = []; b_ir = None; b_payload = None }
        in
        let stats =
          match exn with
          | S.Cancelled st -> Some (Format.asprintf "%a" Stats.pp st)
          | _ -> None
        in
        let meta =
          [
            ("key", job.key);
            ("error", Printexc.to_string exn);
            ("class", classification_to_string cls);
            ("attempts", string_of_int attempts);
            ( "engine",
              match opts.engine with
              | Some e -> Engine.to_string e
              | None -> "default" );
          ]
          @ List.map (fun n -> ("note", note_to_string n)) (List.rev notes)
          @ info.b_meta
        in
        try
          Some
            (Bundle.write ~root ~name:job.key ~meta ?ir:info.b_ir ?stats
               ?payload:info.b_payload ())
        with e ->
          Printf.eprintf "supervisor: could not write crash bundle for %s: %s\n%!"
            job.key (Printexc.to_string e);
          None)
  in
  (* The whole supervised attempt loop for job [i], run on a pool worker. *)
  let attempt_jobs i =
    let job = jobs_arr.(i) in
    match Option.bind opts.journal (fun j -> Journal.find j job.key) with
    | Some payload -> (
        match decode payload with
        | Some v -> Ok { value = v; notes = []; resumed = true }
        | None ->
            failwith
              (Printf.sprintf
                 "checkpointed payload for %s does not decode (journal from \
                  an incompatible build?)"
                 job.key))
    | None ->
        let notes = ref [] in
        let engine = ref opts.engine in
        let rec go attempt =
          (* The deadline is per attempt: a retry gets a fresh budget. *)
          let until =
            match opts.policy.deadline_s with
            | Some d -> Unix.gettimeofday () +. d
            | None -> Float.infinity
          in
          let ctx =
            { Runner.engine = !engine; cancel = Some (S.new_cancel ~until) }
          in
          match job.work ctx with
          | v ->
              Option.iter
                (fun j -> Journal.record j ~key:job.key ~payload:(encode v))
                opts.journal;
              Ok { value = v; notes = List.rev !notes; resumed = false }
          | exception exn -> (
              let cls = classify exn in
              let fail () =
                let attempts = attempt + 1 in
                Error
                  {
                    f_key = job.key;
                    f_exn = exn;
                    f_class = cls;
                    f_attempts = attempts;
                    f_notes = !notes;
                    f_bundle =
                      write_bundle job exn ~cls ~attempts ~notes:!notes;
                  }
              in
              let cur = Option.value !engine ~default:Engine.default in
              match (cls, Engine.fallback cur) with
              | Decode_failure, Some next ->
                  (* Degradation, not a retry: every engine down the
                     chain is bit-identical, so the campaign's numbers
                     are safe. *)
                  notes :=
                    Fell_back
                      {
                        from_engine = cur;
                        to_engine = next;
                        error = Printexc.to_string exn;
                      }
                    :: !notes;
                  engine := Some next;
                  go attempt
              | (Transient | Timeout), _ when attempt < opts.policy.retries ->
                  let slept = backoff_s opts.policy attempt in
                  opts.sleep slept;
                  notes :=
                    Retried
                      {
                        attempt = attempt + 1;
                        slept_s = slept;
                        error = Printexc.to_string exn;
                      }
                    :: !notes;
                  go (attempt + 1)
              | _ -> fail ())
        in
        go 0
  in
  Pool.map ?jobs:opts.jobs attempt_jobs
    (List.init (Array.length jobs_arr) Fun.id)

(* Pretty-print the supervision epilogue (notes + failures) to stderr and
   split the outcomes; the common tail of every supervised campaign. *)
let report_stderr results =
  let ok = ref [] and failed = ref [] in
  List.iter
    (fun r ->
      match r with
      | Ok (o : 'a outcome) ->
          List.iter
            (fun note ->
              Format.eprintf "supervisor: %s@." (note_to_string note))
            o.notes;
          ok := o :: !ok
      | Error f ->
          Format.eprintf "supervisor: %a@." pp_failure f;
          failed := f :: !failed)
    results;
  (List.rev !ok, List.rev !failed)
