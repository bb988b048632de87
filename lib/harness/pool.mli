(** Fixed-size domain pool with deterministic, submission-ordered result
    collection: the substrate under {!Supervisor.run_jobs}, and so under
    every [-j]/[--jobs] flag in the repo.

    Jobs must be self-contained: they may not share mutable state with
    each other or with the submitting domain.  All simulator state in this
    repository is per-instance, so "build the workload inside the job" is
    the only discipline required. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default for every [-j]
    flag. *)

val run : ?jobs:int -> (unit -> 'a) list -> ('a, exn) result list
(** [run ~jobs thunks] executes the thunks on at most [jobs] domains
    (default {!default_jobs}; [jobs <= 1] runs inline on the calling
    domain) and returns one result per thunk {e in submission order},
    regardless of completion order.  A raising job yields [Error exn] in
    its own slot; the other jobs still run. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] = [List.map f xs] fanned out over the pool, with
    results in input order.  If any application raised, re-raises the
    exception of the {e lowest-indexed} failing element — the same
    exception a serial [List.map] would have thrown first — after
    logging every {e other} failure to stderr (use {!run} to handle
    them programmatically). *)
