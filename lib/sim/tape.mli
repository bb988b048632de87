(** Micro-op tape execution engine: each function decodes once into
    contiguous struct-of-arrays storage (an int opcode array plus
    parallel operand/destination/latency arrays), immediates are
    materialized into trailing constant slots of the shared value arrays,
    and blocks are laid out as superblocks across unconditional [Br]
    edges (interior edges become fall-through seams with pre-planned phi
    copies).  The hot loop is a direct match on an unboxed opcode — no
    closure captures, no allocation per retired instruction.
    Bit-identical to {!Interp}'s classic path: both drive the shared
    {!Exec_state} with the shared timing/memory helpers. *)

type program

exception Decode_error of string
(** Decode-time failure of this engine: any exception escaping {!decode}
    is wrapped so a supervisor can tell "the tape engine cannot handle
    this program" (retry on the classic interpreter) apart from a failure
    of the program itself. *)

val decode : tscale:int -> Spf_ir.Ir.func -> program
(** Decode without consulting the cache.
    @raise Decode_error on any decode-time failure. *)

val get : tscale:int -> Spf_ir.Ir.func -> program
(** Cached decode: per-domain, keyed by (tscale, {!Spf_ir.Ir.signature}),
    so re-building and re-running the same workload decodes once per
    domain — and tapes decoded at one [tscale] are never served at
    another. *)

val cache_counters : unit -> int * int
(** (hits, misses) of this domain's tape decode cache. *)

val n_extra_slots : program -> int
(** Number of trailing constant slots the tape needs; pass as
    [extra_slots] to {!Exec_state.create}. *)

val init_consts : program -> Exec_state.t -> unit
(** Write the constant slots' values into a freshly created state (whose
    arrays were sized with [extra_slots = n_extra_slots p]). *)

val seams : program -> int
(** Number of superblock seams formed (interior unconditional edges). *)

val exec : fuel:int -> program -> Exec_state.t -> unit
(** Execute up to [fuel] basic blocks from the current state; stops early
    once the function returns (the caller checks [halted] and raises
    [Fuel_exhausted] as appropriate).  Cancellation is polled every 1024
    blocks of this call, and the cycle counter refreshes at every
    original block boundary, seams included — the interpreter run loop's
    exact observable accounting. *)

val step : program -> Exec_state.t -> bool
(** Execute the current basic block; [false] once the function returned. *)
