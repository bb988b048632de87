(** Translation validation: proof-or-counterexample for one (program,
    transformed program) pair, and batch drivers over the golden suite
    and the checked-in corpus ([spf validate]).  A failed symbolic check
    must be confirmed by the concrete interpreter before it is reported
    [Refuted]; an unconfirmed failure is a [Gave_up]. *)

type outcome =
  | Proved of { paths : int; obligations : int }
  | Refuted of { detail : string; cex : Model.cex; case : Case.t }
      (** [case] is a runnable reproducer of the confirming environment *)
  | Gave_up of string

val outcome_to_string : outcome -> string

val check :
  ?cancel:Spf_sim.Exec_state.cancel ->
  ?equiv:Equiv.config ->
  env:Model.env ->
  orig:Spf_ir.Ir.func ->
  xform:Spf_ir.Ir.func ->
  unit ->
  outcome

val transform :
  ?config:Spf_core.Config.t ->
  Spf_ir.Ir.func ->
  (Spf_ir.Ir.func, string) Stdlib.result
(** Clone and run the pass; [Error] carries the escaped exception. *)

val check_case :
  ?cancel:Spf_sim.Exec_state.cancel ->
  ?config:Spf_core.Config.t ->
  ?equiv:Equiv.config ->
  Case.t ->
  outcome
(** Transform the case's program under [config] and validate the pair in
    the case's environment. *)

(** {1 The golden suite} *)

val golden_fuel : int

val golden_pairs : unit -> (Spf_harness.Benches.bench * [ `Auto | `Manual ]) list
(** Every distinct (program, transformed program) pair behind the golden
    timing suite (34 rows under both engines, 68 cells): IS, CG, RA, HJ-2
    and HJ-8 under the automatic pass, plus the one manual scheme the
    suite pins (HJ-8). *)

val check_golden :
  ?cancel:Spf_sim.Exec_state.cancel ->
  ?config:Spf_core.Config.t ->
  ?equiv:Equiv.config ->
  unit ->
  (string * outcome) list

(** {1 Corpus batch mode} *)

(** Compact, journal-able per-file result for supervised sweeps. *)
type status =
  | S_proved of { paths : int; obligations : int }
  | S_refuted of string
  | S_gave_up of string

val status_of_outcome : outcome -> status
val status_to_string : status -> string

val corpus_files : string -> string list
(** The [*.case] files under a directory, sorted. *)

val encode_status : status -> string
val decode_status : string -> status option

val check_corpus :
  ?config:Spf_core.Config.t ->
  ?equiv:Equiv.config ->
  ?supervise:Spf_harness.Supervisor.options ->
  string ->
  (string * status) list
(** Validate every [*.case] file under the directory.  With [supervise],
    each file is a supervised job ("validate/<file>"): a proof search
    that hangs past the deadline or crashes is classified as a give-up
    rather than poisoning the sweep, and completed files
    checkpoint/resume through the journal. *)
