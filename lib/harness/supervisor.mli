(** Supervised campaign execution on top of {!Pool}: per-job wall-clock
    deadlines (carried by each attempt's cooperative cancellation token
    and checked at the engines' poll points), bounded retry
    with exponential backoff, graceful engine degradation, durable
    checkpointing through {!Journal}, and {!Bundle} capture of permanent
    failures.  See docs/ROBUSTNESS.md for the model. *)

(** {1 Failure classification} *)

type classification =
  | Transient  (** environmental (OOM, OS error); worth retrying *)
  | Deterministic  (** a property of the job itself; retrying is futile *)
  | Decode_failure
      (** an engine's decode raised; fall back down the
          {!Spf_sim.Engine.fallback} chain *)
  | Timeout  (** the attempt ran past its deadline *)

val classification_to_string : classification -> string

exception Transient_failure of string
(** Marker for failures known to be environmental; always classified
    {!Transient}.  Also the fault-injection hook used by tests. *)

val classify : exn -> classification

(** {1 Policy and options} *)

type policy = {
  deadline_s : float option;  (** per-attempt wall-clock budget *)
  retries : int;  (** max re-runs after the first attempt *)
  backoff_base_s : float;  (** sleep before retry [k] is [base * 2^k]... *)
  backoff_max_s : float;  (** ...capped at this *)
}

val default_policy : policy
(** No deadline, one retry, 0.25s..5s backoff. *)

val backoff_s : policy -> int -> float
(** [backoff_s p attempt] is the bounded sleep after failed 0-based
    [attempt]. *)

type options

val options :
  ?policy:policy ->
  ?jobs:int ->
  ?engine:Spf_sim.Engine.t ->
  ?journal:Journal.t ->
  ?bundle_root:string ->
  ?sleep:(float -> unit) ->
  unit ->
  options
(** [jobs]/[engine] as in the unsupervised harness entry points;
    [journal] enables checkpoint/resume; [bundle_root] enables crash
    bundles.  [sleep] is injectable so tests can observe backoff without
    waiting for it. *)

val bundle_root : options -> string option
(** Campaigns that detect non-exceptional failures (e.g. fuzz
    divergences, which are results, not crashes) write their own bundles
    under the same root. *)

val journal : options -> Journal.t option

(** {1 Jobs and outcomes} *)

type bundle_info = {
  b_meta : (string * string) list;
  b_ir : string option;
  b_payload : string option;
}
(** Campaign-specific reproduction material for a crash bundle. *)

type 'a job = {
  key : string;  (** stable identity, e.g. ["fig4/7"] or ["case/12"] *)
  work : Runner.ctx -> 'a;  (** must honour the ctx's engine and token *)
  binfo : (exn -> bundle_info) option;
}

type note =
  | Retried of { attempt : int; slept_s : float; error : string }
  | Fell_back of {
      from_engine : Spf_sim.Engine.t;
      to_engine : Spf_sim.Engine.t;
      error : string;
    }

val note_to_string : note -> string

type 'a outcome = {
  value : 'a;
  notes : note list;  (** oldest first *)
  resumed : bool;  (** [true]: substituted from the journal, not re-run *)
}

type failure = {
  f_key : string;
  f_exn : exn;
  f_class : classification;
  f_attempts : int;
  f_notes : note list;
  f_bundle : string option;  (** crash-bundle directory, if captured *)
}

val pp_failure : Format.formatter -> failure -> unit

val run_jobs :
  options ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  'a job list ->
  ('a outcome, failure) result list
(** Run every job under the supervision pipeline
    (deadline -> retry -> fallback -> bundle), in submission order.  Each
    attempt's ctx carries a fresh token expiring [policy.deadline_s]
    after the attempt starts (never, without a deadline); the job stops at
    its first cancellation poll past it.  No thread is started.
    [encode]/[decode] serialize results for the journal; they must
    round-trip exactly for resumed output to be byte-identical.

    @raise Failure if a journaled payload no longer decodes. *)

val report_stderr :
  ('a outcome, failure) result list -> 'a outcome list * failure list
(** Print every note and failure to stderr (never stdout — supervised
    campaign stdout stays byte-identical) and split the results. *)
