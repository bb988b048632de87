(** Translation validation: proof-or-counterexample for one (program,
    transformed program) pair, and sweeps over the golden suite or a
    corpus directory, each run as one {!Spf_harness.Supervisor} campaign
    ([spf validate]).  A failed symbolic check must be confirmed by the
    concrete interpreter before it is reported [Refuted]; an unconfirmed
    failure is a [Gave_up]. *)

type outcome =
  | Proved of { paths : int; obligations : int }
  | Refuted of { detail : string; cex : Model.cex; case : Case.t }
      (** [case] is a runnable reproducer of the confirming environment *)
  | Gave_up of string

val outcome_to_string : outcome -> string

val check :
  ?cancel:Spf_sim.Exec_state.cancel ->
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

(** {1 Sweeps}

    [--golden] and [--corpus] are one kind of sweep: named rows, each a
    keyed {!Spf_harness.Supervisor} job ("validate/<row>") run under [sup]
    (default [Supervisor.options ()]) — pool width, deadline, retries,
    checkpoint/resume and crash bundles as the options ask.  Rows come
    back in order.  A job that fails (crashes, runs past its deadline and
    retries, or reads a file that does not parse) is reported to stderr
    and becomes a give-up row naming its class, its attempts and the
    exception, instead of poisoning the sweep. *)

(** Compact, journal-able per-row result. *)
type status =
  | S_proved of { paths : int; obligations : int }
  | S_refuted of string
  | S_gave_up of string

val status_of_outcome : outcome -> status
val status_to_string : status -> string

val check_golden :
  ?config:Spf_core.Config.t ->
  ?sup:Spf_harness.Supervisor.options ->
  unit ->
  (string * status) list
(** One row per {!golden_pairs} entry, named ["<bench>/auto"] or
    ["<bench>/manual"]. *)

val check_corpus :
  ?config:Spf_core.Config.t ->
  ?sup:Spf_harness.Supervisor.options ->
  string ->
  (string * status) list
(** One row per [*.case] file under the directory, sorted, named by its
    path.
    @raise Sys_error if the directory cannot be read. *)
