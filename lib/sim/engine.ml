(* Execution-engine selector for the simulator.

   [Interp] walks the IR instruction records and pattern-matches on every
   dynamic instruction: the reference semantics.  [Tape] decodes each
   function once into contiguous struct-of-arrays micro-op storage so the
   hot loop is a direct match on an unboxed opcode with no closure
   captures at all (see Tape).  The two are bit-identical — same Stats,
   same Trap/Fuel_exhausted behaviour, same multicore schedule — which
   the golden suite and the cross-engine fuzz oracle both pin, so [Tape]
   is the default. *)

type t = Interp | Tape

let default = Tape

let to_string = function Interp -> "interp" | Tape -> "tape"

let of_string s =
  match String.lowercase_ascii s with
  | "interp" -> Some Interp
  | "tape" -> Some Tape
  | _ -> None

let all = [ Interp; Tape ]

(* Degradation order for a supervisor: the tape engine's safety net is
   the classic interpreter, which has no net below it. *)
let fallback = function Tape -> Some Interp | Interp -> None
