(** Per-core memory system: TLB with a bounded walker pool, L1/L2/optional
    L3 caches, MSHR-limited fills from a (shareable) DRAM channel, in-flight
    fill tracking and a hardware stride prefetcher. *)

type kind =
  | Demand  (** a load on the program's critical path *)
  | Write  (** a store (write-allocate, never stalls the core) *)
  | Sw_prefetch  (** prefetch emitted by the pass or by hand *)
  | Hw_prefetch  (** prefetch issued by the stride engine *)

type level = Attrib.level = L1 | L2 | L3 | Dram | Inflight | Dropped
(** Where an access was satisfied; [Dropped] is a prefetch discarded
    under DRAM backlog, with no fill started. *)

type t

val create :
  Machine.t ->
  tscale:int ->
  dram:Dram.t ->
  stats:Stats.t ->
  ?attrib:Attrib.t ->
  unit ->
  t
(** [tscale] is the core model's sub-cycle time scale; all configured
    latencies are multiplied by it.  The [dram] channel may be shared
    between several cores' memory systems (Fig 9).  When [attrib] is given,
    every demand load, store and software prefetch is additionally
    reported under its pc, with where it was satisfied, and so is every
    unused-prefetch eviction (profiling and the adaptive tuner). *)

val release : t -> unit
(** Return the L1, L2, L3 and TLB tag arrays to the calling domain's
    spare pool ({!Cache.release}).  The memory system must not be
    accessed afterwards; its {!stats} stay readable. *)

val access : t -> kind:kind -> pc:int -> addr:int -> now:int -> int
(** Perform an access; returns its completion time.  Demand loads train the
    stride prefetcher under their [pc].  TLB misses are taken (and walks
    paid) for all kinds, including prefetches, which is what primes the TLB
    (Fig 10). *)

val last_level : t -> level
(** Where the most recent [access] was satisfied. *)

val prune_inflight : t -> low_water:int -> unit
(** Drop in-flight fill records that completed at or before [low_water],
    once enough of them have piled up (cheap no-op below an internal
    threshold).  [low_water] must be a monotone lower bound on the [now]
    of every future [access] — the core's dispatch clock qualifies; the
    engines call this at block boundaries.  Observationally free: a
    record with completion [<= now] already behaves exactly like an
    absent one. *)

val stats : t -> Stats.t

val set_page_shift : t -> int -> unit
(** Switch page policy (flushes the TLB). *)
