(** Set-associative cache with true-LRU replacement.

    Keyed on an abstract unit number — a line number for data caches, a
    page number for the TLB. *)

type t

val create : size:int -> assoc:int -> unit_shift:int -> t
(** [create ~size ~assoc ~unit_shift] sizes the structure for [size] bytes
    of [1 lsl unit_shift]-byte units. *)

val create_entries : entries:int -> assoc:int -> t
(** Size by entry count (used for TLBs).

    Both constructors reuse a spare tag array of the same geometry from
    the calling domain's pool when one exists (see {!release}); spares
    are pooled empty, so the new cache is indistinguishable from a fresh
    one. *)

val release : t -> unit
(** Invalidate the cache's tag array and hand it back to the calling
    domain's spare pool (which keeps a small fixed number per geometry
    and drops the rest).  Only the sets that became non-empty since
    creation (or the last {!clear}) are rewritten, so releasing costs
    what the run touched, not the cache's size.  The cache must not be
    used afterwards: its array may back the next cache created on this
    domain.  Releasing twice is a no-op. *)

val spares : unit -> int
(** Spare tag arrays currently held by the calling domain's pool. *)

val mem : t -> int -> bool
(** Probe without touching replacement state. *)

val access : t -> int -> bool
(** Probe; on a hit, refresh LRU state.  Returns whether the key hit. *)

val insert : t -> int -> int option
(** Insert a key (refreshing it if already present); returns the evicted
    key if a valid entry was displaced.  Keys are non-negative ([-1]
    marks an invalid way). *)

val insert_absent : t -> int -> int
(** {!insert} for a key the caller has just proven absent (its [access]
    missed, with nothing inserted since): skips the presence scan.  The
    memory system's fill paths all qualify — a fill only follows a
    miss.  Returns the evicted key, or [-1] when the displaced way was
    invalid (no [option], so an eviction allocates nothing). *)

val clear : t -> unit
(** Invalidate every entry; like {!release}, costs only the sets filled
    since the last clear. *)

val capacity : t -> int
