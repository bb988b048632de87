(** Crash-safe append-only journal for the serve result cache
    ([`spf serve --cache-journal DIR`]).

    File format (line-oriented; payloads hex-encoded):
    {v
    spf-cache-journal 1
    identity <hex md5 over machine/engine/config/body-format identity>
    P <md5> <key> <hex pass-entry payload>
    S <md5> <key> <hex reply-body payload>
    v}

    Appends write one whole line and flush, so a crash — SIGKILL
    included — can tear at most the final record, and only by cutting
    its newline.  {!open_} tolerates exactly that torn tail (drops it
    and compacts); any other damage (bad checksum, malformed line,
    undecodable payload, wrong header) and any identity mismatch raise
    [Failure] with a message telling the operator to delete the journal
    — a damaged journal is never half-loaded.

    Not thread-safe: the owning {!Rcache} serializes all calls under
    its lock. *)

type record =
  | Pass of string * string  (** key, encoded pass entry *)
  | Sim of string * string  (** key, rendered reply body *)

type t

val identity : unit -> string
(** Digest over everything that could silently change a cached reply
    body: the body-format version, every machine model's canonical
    render, the engine list, and the default config's canonical render.
    A journal written under a different identity is refused at
    {!open_}. *)

val open_ : dir:string -> t
(** Create [dir] if needed, replay [dir]/cache-journal if present, and
    leave the file open for appends.  Compacts immediately when a torn
    tail was dropped.  @raise Failure on identity mismatch or
    corruption anywhere but the torn tail. *)

val replayed : t -> record list
(** Records recovered at {!open_}, oldest first (duplicates possible —
    later records win). *)

type line
(** One record rendered as its complete journal line. *)

val encode : record -> line
(** Render a record's line (checksum and hex payload) without touching
    any journal — callers encode before taking their own lock.
    @raise Invalid_argument if the key is empty or contains whitespace. *)

val append_line : t -> line -> unit
(** Append one encoded record and flush. *)

val append : t -> record -> unit
(** [append t r] is [append_line t (encode r)]. *)

val to_hex : string -> string
(** Lowercase hex, two digits per byte — the payload encoding. *)

val of_hex : string -> string option
(** Inverse of {!to_hex}; accepts either digit case.  [None] on an odd
    length or any non-hex character. *)

val compact : t -> record list -> unit
(** Atomically rewrite the journal to exactly [records] (oldest
    first): snapshot to [.tmp], rename over the live file, reopen for
    appends. *)

val close : t -> unit

val path : t -> string
val dir : t -> string

val appends : t -> int
(** Records appended since the last compaction (or open). *)

val compactions : t -> int
val replayed_pass : t -> int
val replayed_sim : t -> int

val truncated : t -> bool
(** True when {!open_} dropped a torn tail record. *)
