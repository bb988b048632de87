(** The shared content-addressed result cache behind [spf serve]: two
    bounded LRU levels under one lock, safe to share across the server's
    connection threads and pool domains.

    Level 1 memoises compile results (transformed IR as canonical text
    plus provider decisions) keyed by program signature x pass config;
    level 2 memoises fully rendered reply bodies keyed additionally by
    environment, machine, engine and tscale.  A sim miss that pass-hits
    skips verification and the pass; a sim hit skips everything.  A
    request index in front of level 2 maps the digest of a request's
    exact text and options to its sim key, so a repeated request finds
    its body without being parsed.  See docs/SERVING.md for the key
    discipline. *)

type t

val create : ?pass_cap:int -> ?sim_cap:int -> ?journal_dir:string -> unit -> t
(** Bounded capacities (entries, not bytes); least-recently-used entries
    are evicted beyond them.  Defaults: 512 pass entries, 2048 sim
    entries.

    When [journal_dir] is given, every insertion is also appended to a
    crash-safe journal there ({!Spf_harness.Journal}: header
    [spf-cache-journal 1], identity line [identity <digest>], pass
    records tagged [P], reply bodies tagged [S]) and any existing
    journal is replayed into the cache first — a restarted daemon starts
    warm.  The identity digests the body-format version, every machine
    model, the engine list and the default config.
    @raise Failure if the existing journal is corrupt (beyond a torn
    tail) or was written under a different machine/engine/config
    identity. *)

type pass_entry = {
  tfunc_text : string;
      (** canonical textual IR of the transformed program — simulation
          always runs [Parser.parse tfunc_text], cold or hit, so replies
          are byte-identical by construction *)
  report_text : string;  (** rendered report payload lines *)
  loop_distances : Spf_core.Pass.loop_distance list;
  adaptive : Spf_core.Distance.adaptive_params option;
}

val find_pass : t -> string -> pass_entry option
val add_pass : t -> string -> pass_entry -> unit

val find_sim : t -> string -> string option
(** The cached value is the complete rendered reply body. *)

val add_sim : t -> string -> string -> unit

val find_request : t -> string -> string option
(** The reply body for a {!request_key}, through the sim key recorded
    for it by {!add_request}: a request hit, and a sim hit exactly as
    {!find_sim} counts one.  [None] — a request miss, and no sim count —
    when the key is not indexed or its body has been evicted. *)

val add_request : t -> string -> sim_key:string -> unit
(** Index a request key under the sim key its parse produced.  The
    index holds as many entries as the sim level and is never
    journaled. *)

type level_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val pass_stats : t -> level_stats
val sim_stats : t -> level_stats
val request_stats : t -> level_stats

(** {1 Journal} *)

type journal_stats = {
  journaled : bool;  (** a journal_dir was configured *)
  replayed_pass : int;  (** pass entries recovered at startup *)
  replayed_sim : int;  (** sim bodies recovered at startup *)
  recovered_truncated : bool;  (** a torn tail record was dropped *)
  appends : int;  (** records appended since the last compaction *)
  compactions : int;
}

val journal_stats : t -> journal_stats
(** All-zero with [journaled = false] when no journal is configured. *)

val flush_journal : t -> unit
(** Compact the journal to exactly the live entries (atomic
    snapshot+rename); no-op without a journal.  The daemon calls this
    on graceful drain. *)

val close_journal : t -> unit
(** {!flush_journal} then close the append channel. *)

val encode_pass_entry : pass_entry -> string
val decode_pass_entry : string -> pass_entry option
(** The versioned textual codec journal records use for pass entries;
    exposed for property tests.  [decode_pass_entry] never raises. *)

(** {1 Key construction} *)

val pass_key : sig_digest:string -> config:Spf_core.Config.t -> string
(** [sig_digest] is the hex digest of {!Spf_ir.Ir.signature} of the
    {e original} (pre-pass) program: content-addressed, so alpha-renamed
    resubmissions of one program share entries. *)

val env_digest : Spf_valid.Case.t -> string
(** Digest of the concrete environment (arguments, break, fuel, memory
    image) — part of the sim key only; the pass is
    environment-independent. *)

val sim_key :
  pass_key:string ->
  env:string ->
  machine:Spf_sim.Machine.t ->
  engine:Spf_sim.Engine.t ->
  tscale:int ->
  string

val request_key :
  case_text:string ->
  config:Spf_core.Config.t ->
  machine:Spf_sim.Machine.t ->
  engine:Spf_sim.Engine.t ->
  tscale:int ->
  string
(** Every input the sim key is computed from, as a request carries them:
    the case text's digest, the config digest, the machine's canonical
    digest, the engine and the tscale.  The request id is not part of
    it. *)
