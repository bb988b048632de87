(** Versioned on-disk profile files: per-loop distance choices measured by
    a profiling run of the simulator, stamped with a digest of the plain
    (pre-pass) program so stale or mismatched hints are rejected instead
    of silently misapplied. *)

type loop_entry = {
  header : int;  (** loop header block in the plain program *)
  c : int;  (** chosen eq. 1 constant term *)
  enabled : bool;
  accesses : int;  (** demand loads attributed to the loop when measured *)
  misses : int;  (** DRAM fills attributed to the loop when measured *)
}

type t = {
  version : int;
  signature : string;
      (** hex digest of {!Spf_ir.Ir.signature} of the plain program *)
  machine : string;
  default_c : int;
  loops : loop_entry list;
}

val version : int
(** The format version this build reads and writes. *)

val signature_of : Spf_ir.Ir.func -> string

val make :
  func:Spf_ir.Ir.func ->
  machine:string ->
  default_c:int ->
  loops:loop_entry list ->
  t
(** Stamp a freshly measured profile for [func] (which must be the plain,
    pre-pass program). *)

val provider : t -> Distance.provider
(** The {!Distance.Fixed} table of this profile's choices: a disabled
    loop maps to [0], and unprofiled loops fall back to eq. 1. *)

val save : string -> t -> unit
val load : string -> (t, string) result
(** Refuses an unreadable or malformed file, another format version, and
    a loop marked enabled with [c <= 0] (the provider table cannot
    express it, and [spf profile -o] never writes one). *)

val check : t -> func:Spf_ir.Ir.func -> machine:string -> (unit, string) result
(** Reject a profile measured on a different program (signature mismatch)
    or for a different machine model, with an actionable message. *)
