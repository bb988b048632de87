(* Fixed-size domain pool for embarrassingly-parallel simulation jobs.

   The evaluation grid (machine x benchmark x variant), the fuzz campaigns
   and the validation sweeps all run many independent jobs; this pool
   (under {!Supervisor.run_jobs}) fans them out over OCaml 5 domains
   while keeping every observable deterministic:

   - {e ordered collection}: results come back indexed by submission
     order, never by completion order, so callers can print byte-identical
     output to a serial run;
   - {e exception capture}: a job that raises yields [Error exn] in its
     own slot instead of tearing down the pool; {!map} re-raises the
     first failure {e by submission index}, matching what a serial loop
     would have raised first;
   - {e no shared state}: jobs must be self-contained closures (build
     their own workloads, memories and interpreters).  Nothing in the
     repository's simulators touches global mutable state, which is what
     makes this safe.

   Scheduling is a single atomic next-index counter: domains race to claim
   the next unclaimed job, so long jobs never convoy behind short ones.
   With [jobs = 1] (or a single-element list) everything runs inline on
   the calling domain — the serial path is exactly the parallel path. *)

let default_jobs () = Domain.recommended_domain_count ()

let run ?jobs thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let workers = min jobs n in
  if workers <= 1 then
    Array.to_list
      (Array.map (fun f -> try Ok (f ()) with e -> Error e) thunks)
  else begin
    (* Each slot is written by exactly one domain and read only after the
       joins, so the plain array is data-race-free. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        results.(k) <- Some (try Ok (thunks.(k) ()) with e -> Error e);
        worker ()
      end
    in
    let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

(* [map] keeps the serial contract (raise what a serial [List.map] would
   have raised first, i.e. the lowest-indexed failure) but no longer
   drops the other failures silently: they are logged to stderr before
   the first one is re-raised, so a multi-failure campaign leaves a
   trace of every broken job. *)
let map ?jobs f xs =
  let results = run ?jobs (List.map (fun x () -> f x) xs) in
  let first = ref None in
  List.iteri
    (fun i -> function
      | Ok _ -> ()
      | Error e -> (
          match !first with
          | None -> first := Some e
          | Some _ ->
              Printf.eprintf "Pool.map: job %d also failed: %s\n%!" i
                (Printexc.to_string e)))
    results;
  match !first with
  | Some e -> raise e
  | None ->
      List.map (function Ok v -> v | Error _ -> assert false) results
