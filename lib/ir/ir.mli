(** SSA intermediate representation.

    This IR mirrors the subset of LLVM IR the CGO'17 software-prefetching
    pass operates on: typed loads and stores, explicit address computation
    ([Gep]), phi nodes, allocations, calls carrying a purity flag, and a
    dedicated non-faulting [Prefetch] instruction.  Instructions carry dense
    integer ids; a function owns a growable instruction table plus basic
    blocks holding ordered instruction ids and a terminator. *)

(** Value types.  Integer loads zero-extend to the host integer; [F64]
    values are stored bit-cast inside the same 63-bit integer domain by the
    interpreter. *)
type ty = I8 | I16 | I32 | I64 | F64

val size_of_ty : ty -> int
(** Size of a value of this type in bytes. *)

val string_of_ty : ty -> string

(** Two-operand arithmetic/logical operators.  The [F*] variants operate on
    bit-cast doubles; [Smin]/[Smax] are the select-style clamps the pass
    emits for fault avoidance. *)
type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr
  | Smin | Smax
  | Fadd | Fsub | Fmul | Fdiv

val string_of_binop : binop -> string

(** Signed integer comparison predicates. *)
type cmp = Eq | Ne | Slt | Sle | Sgt | Sge

val string_of_cmp : cmp -> string

(** An operand is an SSA variable (instruction or parameter id) or an
    immediate. *)
type operand =
  | Var of int
  | Imm of int
  | Fimm of float

type call_info = {
  callee : string;  (** name resolved by the interpreter's intrinsic table *)
  args : operand list;
  pure : bool;  (** [true] iff side-effect free (pass-relevant, see §4.1) *)
}

(** Instruction payloads. *)
type kind =
  | Binop of binop * operand * operand
  | Cmp of cmp * operand * operand
  | Select of operand * operand * operand  (** [Select (c, a, b)] = c?a:b *)
  | Load of ty * operand  (** load from byte address *)
  | Store of ty * operand * operand  (** [Store (ty, addr, value)] *)
  | Gep of { base : operand; index : operand; scale : int }
      (** address = base + index * scale *)
  | Phi of (int * operand) list  (** (predecessor block id, value) pairs *)
  | Call of call_info
  | Prefetch of operand  (** non-binding, non-faulting cache hint *)
  | Alloc of operand  (** allocate [operand] bytes; yields base address *)
  | Param of int  (** function parameter [i]; lives in the entry block *)

type instr = {
  id : int;
  mutable kind : kind;
  mutable block : int;  (** id of the containing block *)
  mutable name : string;  (** printing hint only *)
}

type terminator =
  | Br of int
  | Cbr of operand * int * int  (** condition, then-target, else-target *)
  | Ret of operand option
  | Unreachable

type block = {
  bid : int;
  mutable instrs : int array;
  mutable term : terminator;
  mutable bname : string;
}

type func = {
  fname : string;
  mutable blocks : block array;  (** indexed by block id *)
  mutable itab : instr option array;  (** indexed by instruction id *)
  mutable n_instrs : int;
  mutable entry : int;
  mutable param_ids : int array;
}

(** {1 Operand and instruction helpers} *)

val srcs : kind -> operand list
(** Source operands of an instruction, in evaluation order. *)

val map_srcs : (operand -> operand) -> kind -> kind
(** Rewrite every source operand (phi block labels are preserved). *)

val defines_value : kind -> bool
(** [false] for [Store] and [Prefetch], [true] otherwise. *)

val has_side_effect : kind -> bool
(** Whether executing the instruction can be observed beyond its value. *)

(** {1 Function construction and mutation} *)

val create_func : name:string -> func

val instr : func -> int -> instr
(** Look up an instruction by id.  @raise Invalid_argument if absent. *)

val block : func -> int -> block
val n_blocks : func -> int
val n_instrs : func -> int

val fresh_instr : func -> name:string -> block:int -> kind -> instr
(** Allocate an instruction id {e without} placing it in any block's
    instruction list; used by the pass before [insert_before]. *)

val add_block : func -> name:string -> terminator -> block

val append_instr : func -> bid:int -> name:string -> kind -> instr
(** Allocate an instruction and append it to block [bid]. *)

val iter_instrs : func -> (instr -> unit) -> unit
val iter_blocks : func -> (block -> unit) -> unit

val insert_before : func -> anchor:int -> int list -> unit
(** Splice already-allocated instruction ids into the anchor's block,
    immediately before the anchor, preserving their given order. *)

val insert_at_head : func -> bid:int -> int list -> unit
(** Splice already-allocated instruction ids at the head of block [bid],
    after any leading phi group. *)

val remove_instr : func -> int -> unit
(** Delete an instruction from its block and clear its table slot.  The
    caller must ensure nothing references it (see {!Simplify.dce}). *)

val insert_at_end : func -> bid:int -> int list -> unit
(** Splice already-allocated instruction ids at the end of block [bid],
    just before the terminator. *)

val clone_func : func -> func
(** Deep copy: fresh instruction records and block arrays, same ids and
    structure.  Mutating the clone (e.g. running the pass on it) leaves
    the original untouched — the translation validator compares the two. *)

val signature : func -> string
(** Stable, name-independent structural encoding of the function: entry,
    parameters, and every block's instruction ids, kinds (floats by bit
    pattern) and terminator.  Functions with equal signatures execute
    identically, so the tape engine uses this as its decode-cache key;
    printing hints are excluded so renames don't defeat caching. *)

val successors : terminator -> int list
(** Successor block ids (deduplicated when both branch arms coincide). *)

val term_srcs : terminator -> operand list
(** Value operands read by a terminator. *)
