(** Execution-engine selector: the classic instruction-record
    interpreter (the reference semantics) or the micro-op tape engine
    (contiguous struct-of-arrays micro-ops).  The two are bit-identical;
    [Tape] is the default because it is the faster. *)

type t = Interp | Tape

val default : t
(** [Tape] — pinned bit-identical to [Interp] by the golden suite and
    the cross-engine fuzz oracle. *)

val to_string : t -> string
val of_string : string -> t option
val all : t list

val fallback : t -> t option
(** The engine a supervisor degrades to when this one fails to decode a
    program: [Tape -> Some Interp], [Interp -> None]. *)
