(** Per-pc attribution of memory behaviour: for every load, store and
    software prefetch, how many accesses it made and where each was
    satisfied, plus prefetch timeliness and demand stall.  The timed
    memory system reports each access; loop totals are sums over a loop's
    pcs, never a second set of counters.  Engine-independent by
    construction.  Feeds [spf profile] (per-pc and per-loop tables),
    signed profiles and the adaptive {!Tuner} (loop totals). *)

(** Where one access was satisfied.  [Inflight]: it caught a line fill
    still on its way.  [Dropped]: a prefetch the memory controller
    discarded under DRAM backlog — no fill started. *)
type level = L1 | L2 | L3 | Dram | Inflight | Dropped

type totals = {
  demand : int;  (** demand loads *)
  miss : int;  (** demand loads filled from DRAM *)
  late : int;  (** demand loads that caught a sw-prefetch fill in flight *)
  unused : int;  (** sw-prefetched lines evicted unused, by prefetch pc *)
  stall : int;  (** scaled cycles demand loads spent beyond an L1 hit *)
}
(** A loop's totals over its pcs. *)

type site = private {
  pc : int;  (** instruction id *)
  name : string;
  is_load : bool;
  mutable accesses : int;
      (** accesses that reached the memory system (prefetches to
          unmapped addresses are dropped before it and not counted) *)
  mutable l1 : int;
  mutable l2 : int;
  mutable l3 : int;
  mutable inflight : int;
  mutable dram : int;  (** DRAM fills this pc started *)
  mutable dropped : int;
  mutable late : int;  (** loads: caught a sw-prefetch fill in flight *)
  mutable unused : int;
      (** prefetches: lines this pc filled, evicted from the last level
          before any demand touch *)
  mutable stall : int;  (** loads: scaled cycles beyond an L1 hit *)
}
(** One instruction's counters; [l1 + l2 + l3 + inflight + dram +
    dropped = accesses]. *)

type t

val create : Spf_ir.Ir.func -> t
(** Counters for every instruction of [func] and its pc -> innermost
    loop table (pass the function that will actually run — after any
    transformation). *)

val on_access : t -> pc:int -> level:level -> late:bool -> stall:int -> unit
(** One load, store or software prefetch; [late] and [stall] are a
    demand load's. *)

val on_unused : t -> pf_pc:int -> unit
(** A line prefetched by [pf_pc] left the last level untouched. *)

val sites : t -> site list
(** Every pc that accessed memory, most DRAM fills first, then by pc. *)

val loop : t -> header:int -> totals
(** The totals of the loop headed by block [header] (all zero when no
    loop has that header). *)

val pp_sites : Format.formatter -> t -> unit
(** The per-pc table, in {!sites} order. *)

val pp : Format.formatter -> t -> unit
(** The per-loop table. *)
