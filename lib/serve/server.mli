(** The [spf serve] daemon: accept loop, per-connection handler threads,
    and a dispatcher that fuses queued cache misses into supervised
    batches on the domain pool.

    Sim-level cache hits are answered inline on the connection thread;
    misses queue for the next batch.  Poisoned requests (demand faults,
    fuel exhaustion, verifier violations) are classified by the
    supervisor and become that one client's [ERR] reply — they never
    take down the batch or the server.  See docs/SERVING.md. *)

type addr = Unix_sock of string | Tcp of int
(** TCP binds the loopback interface only. *)

type cfg = {
  addr : addr;
  jobs : int;  (** pool domains per batch *)
  batch_max : int;  (** max requests fused into one supervised batch *)
  deadline_s : float option;  (** per-request wall-clock budget *)
  pass_cap : int;  (** pass-level cache capacity, entries *)
  sim_cap : int;  (** sim-level cache capacity, entries *)
  journal_dir : string option;
      (** crash-safe cache journal directory; replayed on start for a
          warm cache, snapshotted on drain (see {!Spf_harness.Journal}) *)
  max_conns : int;
      (** live-connection admission budget; excess connections get one
          [ERR - busy retry-after=...] line and a close *)
  max_queue : int;
      (** queued-miss admission budget; excess SUBMITs get a classified
          busy reply instead of unbounded queueing *)
  max_request_bytes : int;  (** SUBMIT payload budget *)
  idle_timeout_s : float;
      (** per-read idle deadline on client input (slowloris defense) *)
  drain_deadline_s : float;
      (** how long in-flight work may run after {!stop} before the
          watchdog force-closes remaining sockets *)
}

val default_cfg : addr -> cfg
(** Pool-sized jobs, batches of 32, 30 s deadline, 512/2048 cache
    entries, no journal, 256 conns / 1024 queued, 4 MiB requests, 30 s
    idle timeout, 10 s drain deadline. *)

type t

val start : cfg -> t
(** Bind, listen and return immediately; serving happens on background
    threads.  Ignores [SIGPIPE] process-wide (vanished clients must
    cost a counted write error, not the process).
    @raise Unix.Unix_error if the address cannot be bound.
    @raise Failure if [journal_dir] holds a corrupt or
    identity-mismatched journal. *)

val stop : t -> unit
(** Initiate a graceful drain: stop accepting, answer in-flight
    requests (bounded by [drain_deadline_s]), then let {!wait} flush
    the journal.  Idempotent; also triggered by the [SHUTDOWN] verb
    (the CLI wires SIGTERM/SIGINT here too). *)

val wait : t -> unit
(** Block until the server has fully stopped — threads joined, every
    handler exited, journal snapshotted. *)

val cache : t -> Rcache.t
(** The shared result cache (exposed for in-process loadtests and
    tests). *)
