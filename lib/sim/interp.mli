(** IR interpreter with a dataflow timing model.

    Functional execution and timing are computed together: every SSA value
    carries a ready-time, and every memory operation consults {!Memsys}.
    Out-of-order machines overlap independent misses up to their ROB/MSHR
    limits; in-order machines issue strictly in order, stall on unready
    operands, and serialise demand misses through a small slot pool —
    software prefetches never stall on either model. *)

type t

(** A demand access to an unmapped address (see {!Memory.in_bounds}). *)
type fault = { pc : int; addr : int; width : int; is_store : bool }

exception Trap of fault
(** Raised by {!step}/{!run} when a demand load or store falls outside the
    mapped region.  Software prefetches never trap: out-of-range prefetch
    addresses are dropped and counted in
    {!Stats.t.dropped_prefetches}. *)

exception Fuel_exhausted
(** Raised by {!run} when the fuel budget is exceeded — distinct from
    [Failure] so fuzzing can tell non-termination from other errors. *)

type cancel = Exec_state.cancel
(** Cooperative cancellation token (see {!Exec_state}). *)

exception Cancelled of Stats.t
(** Raised by {!run} (every 1024 blocks) once the instance's [cancel]
    token has expired, carrying the stats accumulated so far. *)

val new_cancel : until:float -> cancel
(** {!Exec_state.new_cancel}: a token expiring at wall-clock time
    [until]. *)

val fault_to_string : fault -> string

val default_tscale : int
(** Sub-cycle time scale (dispatch intervals of multi-issue cores stay
    integral). *)

val create :
  machine:Machine.t ->
  ?tscale:int ->
  ?dram:Dram.t ->
  ?stats:Stats.t ->
  ?cancel:cancel ->
  ?attrib:Attrib.t ->
  ?tuner:Tuner.t ->
  ?engine:Engine.t ->
  mem:Memory.t ->
  args:int array ->
  Spf_ir.Ir.func ->
  t
(** Instantiate an execution of [func] with parameter values [args] over
    the given memory.  Pass a shared [dram] to model multicore bandwidth
    contention.  [engine] selects the classic instruction walker or the
    micro-op tape engine (default {!Engine.default}); the two are
    bit-identical.  [attrib] counts memory behaviour per pc; [tuner]
    drives adaptive distance registers — both engine-independent.
    @raise Invalid_argument if both are given and [attrib] is not
    [Tuner.attrib tuner]. *)

val register_intrinsic : t -> string -> (int array -> int) -> unit
(** Provide the implementation of a [Call] target. *)

val step : t -> bool
(** Execute the current basic block; [false] once the function returned. *)

val run : ?fuel:int -> t -> unit
(** Run to completion.
    @raise Fuel_exhausted if [fuel] blocks are exceeded.
    @raise Trap on a demand access to an unmapped address.
    @raise Cancelled once the instance's cancel token expires. *)

val poll_cancel : t -> unit
(** @raise Cancelled if the instance's token has expired — the
    multicore driver's poll point between core steps. *)

val release : t -> unit
(** Return the instance's cache and TLB tag arrays to the calling
    domain's spare pool, so the next {!create} there skips allocating
    them ({!Memsys.release}).  The instance must not be stepped or run
    after release — its arrays may already back another instance.  Its
    {!stats}, {!cycles}, {!retval} and {!memory} stay readable.
    Releasing twice is a no-op; never releasing is fine too (the arrays
    are then left to the garbage collector). *)

val stats : t -> Stats.t
val cycles : t -> int
(** Elapsed cycles (valid once halted; updated each step). *)

val retval : t -> int option
val time : t -> int
(** Current time in scaled cycles — the multicore driver's scheduling key. *)

val halted : t -> bool
val memory : t -> Memory.t
