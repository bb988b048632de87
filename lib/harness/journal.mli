(** Append-only, crash-safe journals (see docs/ROBUSTNESS.md): one log
    format shared by the campaign checkpoint behind [--resume] ({!start})
    and the serve result-cache journal behind [spf serve --cache-journal]
    ([Spf_serve.Rcache]).

    File format (line-oriented; payloads hex-encoded):
    {v
    <header>
    <field> <identity>
    <tag> <md5> <key> <hex payload>
    v}

    Appends write one whole line and flush, so a crash — SIGKILL
    included — can tear at most the final record.  Opening drops exactly
    that torn record and compacts at once; any other damage (bad
    checksum, malformed line, unknown tag, undecodable payload, wrong
    header) and any identity mismatch raise [Failure] — a damaged
    journal is never half-loaded.  A key replayed twice keeps its later
    record. *)

(** {1 Hex codec} *)

val to_hex : string -> string
(** Lowercase hex, two digits per byte — the payload encoding. *)

val of_hex : string -> string option
(** Inverse of {!to_hex}; accepts either digit case.  [None] on an odd
    length or any non-hex character. *)

(** {1 The log} *)

type format = {
  header : string;  (** first line: format name and version *)
  field : string;  (** keyword opening the identity line *)
  identity : string;  (** what the records are valid for; one line *)
  tags : string list;  (** the record tags this caller writes *)
  noun : string;  (** names the log in errors, e.g. ["cache journal"] *)
  remedy : string;  (** completes "delete it to ..." in damage errors *)
  mismatch : path:string -> found:string -> string;
      (** the error for an identity line naming [found] instead *)
}

type record = { tag : string; key : string; payload : string }

type log
(** Not thread-safe: each caller serializes its appends under its own
    lock. *)

val open_log : format -> dir:string -> file:string -> log * record list
(** Create [dir] if needed, replay [dir]/[file] if present (records
    oldest first, duplicates included), and leave the file open for
    appends.  Compacts at once when a torn final record was dropped.
    @raise Failure on an identity mismatch or any other damage.
    @raise Invalid_argument if the identity contains a newline. *)

type line = private string
(** One record rendered as its complete journal line, newline
    included. *)

val encode : record -> line
(** Render a record's line (checksum and hex payload) without touching
    any log — callers encode before taking their own lock.
    @raise Invalid_argument if the key is empty or contains whitespace. *)

val append : log -> line -> unit
(** Append one encoded record: one write plus a flush. *)

val compact : log -> record list -> unit
(** Atomically rewrite the log to exactly [records] (oldest first):
    snapshot to [.tmp], rename over the live file, reopen for appends. *)

val close : log -> unit

val refuse : log -> string -> 'a
(** Raise the log's damage [Failure] ("... is not usable: [msg] (delete
    it to ...)") — for a record the caller cannot decode. *)

val appends : log -> int
(** Records appended since the last compaction (or open). *)

val compactions : log -> int

val truncated : log -> bool
(** True when {!open_log} dropped a torn final record. *)

(** {1 The campaign checkpoint}

    Records the completed cells of one campaign as (key, payload) pairs
    so an interrupted run can be resumed: journaled cells are skipped and
    their recorded payloads substituted, making the resumed run's output
    byte-identical to an uninterrupted one.  Header [spf-checkpoint 2],
    identity line [campaign <campaign> build=<md5>], record tag [C],
    where [<md5>] is the digest of the running executable. *)

type t

val start : dir:string -> campaign:string -> t
(** Open (or create) [dir]/journal for the campaign identified by
    [campaign] (a single line naming everything that must match for
    records to be reusable: seed, count, engine, figure set...) and run
    by this build of the executable.

    @raise Failure if an existing journal is damaged beyond a torn final
    record, or belongs to a different campaign or another build.
    @raise Invalid_argument if [campaign] contains a newline. *)

val file : t -> string

val completed : t -> int
(** Number of recorded cells. *)

val find : t -> string -> string option
(** The recorded payload for a key, if that cell already completed.
    Thread-safe. *)

val record : t -> key:string -> payload:string -> unit
(** Durably append a completed cell (idempotent per key).  Thread-safe —
    pool workers record their own completions.

    @raise Invalid_argument if [key] is empty or contains spaces or
    newlines. *)
