(** Candidate vetting: the filters of Algorithm 1 (lines 34–40) and the
    fault-avoidance conditions of §4.2. *)

type reject =
  | No_candidate  (** DFS found no induction variable *)
  | Contains_call
  | Non_iv_phi
  | Conditional_code
  | Store_alias
  | No_clamp
  | Indirect_iv_use
  | Multi_latch
  | Bad_step
  | Pure_stride  (** t = 1: left to the hardware prefetcher (§4.3) *)
  | Duplicate
  | Provider_disabled  (** the distance provider turned this loop off *)
  | Non_unit_step
      (** only the exit bound gives a clamp, and the loop does not step by
          1, so the last value the exit test admits need not be visited *)

val string_of_reject : reject -> string

(** How the looked-ahead induction value is clamped (Algorithm 1 line 49):
    a constant limit, or [bound + delta] for a loop-invariant bound. *)
type clamp = Clamp_imm of int | Clamp_expr of Spf_ir.Ir.operand * int

val vet : Analysis.t -> Config.t -> Dfs.candidate -> (clamp, reject) result
(** Check every safety condition; on success return the clamp the code
    generator must apply to the induction variable. *)
