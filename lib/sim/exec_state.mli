(** Execution state and timing helpers shared by the simulator engines
    (the classic interpreter and the micro-op tape engine).  Keeping dispatch/retire, the in-order miss
    slots and the memory-operation sequences in one place is what
    guarantees the engines stay bit-identical. *)

val default_tscale : int

type fault = { pc : int; addr : int; width : int; is_store : bool }

exception Trap of fault
exception Fuel_exhausted

(** {1 Cooperative cancellation}

    A [cancel] token carries an absolute wall-clock deadline, set by
    whoever supervises the run (e.g. {!Spf_harness}'s supervisor, per
    attempt).  The engines compare it with the clock at their poll points
    — every 1024 blocks — and raise [Cancelled] at the first poll past
    it, carrying the stats accumulated so far.  No thread fires the
    token. *)

type cancel

exception Cancelled of Stats.t

val new_cancel : until:float -> cancel
(** A token that expires once [Unix.gettimeofday ()] passes [until].  A
    token with [until = infinity] never expires and never reads the
    clock; one with a past [until] is already expired. *)

val is_cancelled : cancel -> bool
(** Whether the token's deadline has passed (one clock read, unless
    [until = infinity]). *)

val fault_to_string : fault -> string

type t = {
  machine : Machine.t;
  func : Spf_ir.Ir.func;
  mem : Memory.t;
  memsys : Memsys.t;
  stats : Stats.t;
  env : int array;
  fenv : float array;
  ready : int array;
  call_fns : (int array -> int) option array;
  tscale : int;
  disp_int : int;
  in_order : bool;
  rob_ring : int array;
  demand_free : int array;
  miss_restart : int;
  cancel : cancel option;
  tuner : Tuner.t option;
      (** adaptive-distance controller, ticked per retired demand load *)
  mutable rob_slot : int;
  mutable cur : int;
  mutable halted : bool;
  mutable retval : int option;
  mutable last_dispatch : int;
  mutable last_retire : int;
}

val create :
  machine:Machine.t ->
  tscale:int ->
  dram:Dram.t ->
  ?stats:Stats.t ->
  ?cancel:cancel ->
  ?attrib:Attrib.t ->
  ?tuner:Tuner.t ->
  ?extra_slots:int ->
  mem:Memory.t ->
  args:int array ->
  Spf_ir.Ir.func ->
  t
(** [extra_slots] (default 0) extends [env]/[fenv]/[ready] beyond the SSA
    ids — the tape engine materializes immediates into trailing constant
    slots there.  Instruction destinations never reach the extension.

    [attrib] counts every memory access per pc; [tuner] seeds and
    re-tunes the adaptive distance registers from its own attribution
    sink, which is used when [attrib] is absent.
    @raise Invalid_argument if both are given and [attrib] is not
    [Tuner.attrib tuner]. *)

val poll_cancel : t -> unit
(** @raise Cancelled if this state's token (if any) has expired. *)

val ival : t -> Spf_ir.Ir.operand -> int
val fval : t -> Spf_ir.Ir.operand -> float
val rtime : t -> Spf_ir.Ir.operand -> int

val imax : int -> int -> int
(** Int-specialized max (no polymorphic-compare call on the hot path). *)

val binop_latency : Spf_ir.Ir.binop -> int

val dispatch : t -> operands_ready:int -> int
val retire : t -> complete:int -> unit
val free_demand_slot : t -> int
val update_cycles : t -> unit
val time : t -> int

val exec_load :
  t -> pc:int -> dst:int -> ty:Spf_ir.Ir.ty -> addr:int -> start:int -> int

val exec_store_i :
  t -> pc:int -> ty:Spf_ir.Ir.ty -> addr:int -> v:int -> start:int -> int

val exec_store_f : t -> pc:int -> addr:int -> v:float -> start:int -> int
val exec_prefetch : t -> pc:int -> addr:int -> start:int -> int
val exec_call : t -> pc:int -> callee:string -> int array -> int

type edge_copies =
  | No_copies
  | Copies of { dsts : int array; srcs : Spf_ir.Ir.operand array }
  | Bad_edge of string

val phi_copies : Spf_ir.Ir.func -> pred:int -> succ:int -> edge_copies
