(* The shared content-addressed result cache behind `spf serve`: two
   LRU levels under one lock.

   Level 1 (pass) memoises compile results — the transformed IR (as
   text: strings are immutable, so entries are safe to hand to any
   domain) plus the provider decisions the tuner needs.  Level 2 (sim)
   memoises fully rendered reply bodies.  The levels feed each other: a
   sim miss that pass-hits skips verification and the pass and goes
   straight to simulation of the cached transformed program.

   Keys are content-addressed, never identity-addressed: the program
   half is {!Spf_ir.Ir.signature} (structural, name-independent), the
   configuration half is {!Spf_core.Config.canonical} /
   {!Spf_sim.Machine.canonical} plus engine and tscale, and the
   environment half digests the concrete memory image, arguments and
   fuel.  Two clients submitting alpha-renamed copies of the same
   program under equal configs share entries; any difference in any
   keyed dimension cannot collide.

   Building a sim key means parsing the request.  The request index
   skips that for a repeated request: it maps a digest of the request's
   exact bytes and options to the sim key their parse produced, so a
   resubmission finds its reply body with one digest and two lookups.
   The sim key is a pure function of those inputs, so the index can
   only name the key the parse would compute.  It is derived data:
   bounded like the sim level, never journaled, rebuilt by the first
   parse of each text after a restart. *)

module Pass = Spf_core.Pass
module Distance = Spf_core.Distance
module Config = Spf_core.Config
module Machine = Spf_sim.Machine
module Engine = Spf_sim.Engine
module Case = Spf_valid.Case
module Journal = Spf_harness.Journal

(* ------------------------------------------------------------------ *)
(* Intrusive-list LRU with O(1) find/add/evict.                        *)

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option; (* toward most-recently used *)
  mutable next : 'a node option; (* toward least-recently used *)
}

type level_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type 'a lru = {
  cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most-recently used *)
  mutable tail : 'a node option; (* least-recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let lru_create cap =
  {
    cap = max 1 cap;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front l n =
  n.next <- l.head;
  n.prev <- None;
  (match l.head with Some h -> h.prev <- Some n | None -> l.tail <- Some n);
  l.head <- Some n

(* Find and refresh recency, counting nothing. *)
let lru_touch l key =
  match Hashtbl.find_opt l.tbl key with
  | Some n ->
      unlink l n;
      push_front l n;
      Some n.value
  | None -> None

let tally l found =
  if found then l.hits <- l.hits + 1 else l.misses <- l.misses + 1

let lru_find l key =
  let v = lru_touch l key in
  tally l (Option.is_some v);
  v

let lru_add l key value =
  (match Hashtbl.find_opt l.tbl key with
  | Some old ->
      (* Re-insertion under the same content-addressed key carries the
         same content; keep one copy and refresh its recency. *)
      unlink l old;
      Hashtbl.remove l.tbl key
  | None -> ());
  let n = { key; value; prev = None; next = None } in
  Hashtbl.replace l.tbl key n;
  push_front l n;
  if Hashtbl.length l.tbl > l.cap then
    match l.tail with
    | Some t ->
        unlink l t;
        Hashtbl.remove l.tbl t.key;
        l.evictions <- l.evictions + 1
    | None -> ()

let lru_stats l =
  {
    hits = l.hits;
    misses = l.misses;
    evictions = l.evictions;
    entries = Hashtbl.length l.tbl;
    capacity = l.cap;
  }

(* ------------------------------------------------------------------ *)
(* The two levels.                                                     *)

type pass_entry = {
  tfunc_text : string;
      (* canonical textual IR of the transformed program; both the cold
         path and the pass-hit path simulate [Parser.parse tfunc_text],
         so the two are byte-identical by construction *)
  report_text : string; (* rendered "R " payload lines *)
  loop_distances : Pass.loop_distance list;
  adaptive : Distance.adaptive_params option;
}

type t = {
  mutex : Mutex.t;
  pass : pass_entry lru;
  sim : string lru;
  request : string lru; (* request key -> sim key; not journaled *)
  journal : Journal.log option;
  replayed_pass : int; (* journal records replayed at startup *)
  replayed_sim : int;
}

(* ------------------------------------------------------------------ *)
(* Pass-entry codec for the journal: an explicit versioned textual
   format (not [Marshal] — a Marshal payload silently breaks across
   compiler versions and record layout changes, and the journal's
   whole point is surviving restarts).  Strings are hex-encoded so the
   payload is one unambiguous space-separated line regardless of IR
   text contents. *)

let encode_pass_entry (e : pass_entry) =
  let ld { Pass.header; distance; enabled; dist_slot } =
    Printf.sprintf "%d:%d:%d:%s" header distance
      (if enabled then 1 else 0)
      (match dist_slot with Some s -> string_of_int s | None -> "-")
  in
  let lds =
    match e.loop_distances with
    | [] -> "-"
    | l -> String.concat "," (List.map ld l)
  in
  let ad =
    match e.adaptive with
    | None -> "-"
    | Some { Distance.window; min_c; max_c } ->
        Printf.sprintf "%d:%d:%d" window min_c max_c
  in
  Printf.sprintf "pe1 %s %s %s %s"
    (Journal.to_hex e.tfunc_text)
    (Journal.to_hex e.report_text)
    lds ad

let decode_pass_entry s =
  let int_opt x = int_of_string_opt x in
  let ld_of part =
    match String.split_on_char ':' part with
    | [ h; d; en; slot ] -> (
        match (int_opt h, int_opt d, en) with
        | Some header, Some distance, ("0" | "1") -> (
            let enabled = en = "1" in
            match slot with
            | "-" -> Some { Pass.header; distance; enabled; dist_slot = None }
            | _ -> (
                match int_opt slot with
                | Some s ->
                    Some { Pass.header; distance; enabled; dist_slot = Some s }
                | None -> None))
        | _ -> None)
    | _ -> None
  in
  match String.split_on_char ' ' s with
  | [ "pe1"; tfunc_hex; report_hex; lds; ad ] -> (
      match (Journal.of_hex tfunc_hex, Journal.of_hex report_hex) with
      | Some tfunc_text, Some report_text -> (
          let loop_distances =
            if lds = "-" then Some []
            else
              let parts = String.split_on_char ',' lds in
              let decoded = List.filter_map ld_of parts in
              if List.length decoded = List.length parts then Some decoded
              else None
          in
          let adaptive =
            if ad = "-" then Some None
            else
              match String.split_on_char ':' ad with
              | [ w; mn; mx ] -> (
                  match (int_opt w, int_opt mn, int_opt mx) with
                  | Some window, Some min_c, Some max_c ->
                      Some (Some { Distance.window; min_c; max_c })
                  | _ -> None)
              | _ -> None
          in
          match (loop_distances, adaptive) with
          | Some loop_distances, Some adaptive ->
              Some { tfunc_text; report_text; loop_distances; adaptive }
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The journal: the shared append-only log (Spf_harness.Journal) with
   pass records tagged P and rendered reply bodies tagged S. *)

(* Bump when the rendered reply-body format changes in a way the cache
   keys cannot see (they digest inputs, not the rendering). *)
let body_format_version = 1

let pass_tag = "P"
let sim_tag = "S"

(* Digest over everything that could silently change a cached reply
   body: the body-format version, every machine model's canonical
   render, the engine list and the default config's canonical render.
   A journal written by a build with different semantics is refused. *)
let identity () =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "body-format %d\n" body_format_version);
  List.iter
    (fun m ->
      Buffer.add_string b (Machine.canonical m);
      Buffer.add_char b '\n')
    Machine.all;
  List.iter
    (fun e ->
      Buffer.add_string b (Engine.to_string e);
      Buffer.add_char b '\n')
    Engine.all;
  Buffer.add_string b (Config.canonical Config.default);
  Digest.to_hex (Digest.string (Buffer.contents b))

let journal_format () =
  let identity = identity () in
  {
    Journal.header = "spf-cache-journal 1";
    field = "identity";
    identity;
    tags = [ pass_tag; sim_tag ];
    noun = "cache journal";
    remedy = "start the cache cold";
    mismatch =
      (fun ~path ~found ->
        Printf.sprintf
          "cache journal %s was written under a different \
           machine/engine/config identity:\n\
          \  journal:   %s\n\
          \  this build: %s\n\
           (delete it to start the cache cold)"
          path found identity);
  }

let pass_record key e =
  { Journal.tag = pass_tag; key; payload = encode_pass_entry e }

let sim_record key body = { Journal.tag = sim_tag; key; payload = body }

let create ?(pass_cap = 512) ?(sim_cap = 2048) ?journal_dir () =
  let pass = lru_create pass_cap and sim = lru_create sim_cap in
  let journal, replayed_pass, replayed_sim =
    match journal_dir with
    | None -> (None, 0, 0)
    | Some dir ->
        let j, records =
          Journal.open_log (journal_format ()) ~dir ~file:"cache-journal"
        in
        (* Replay oldest-first: a later duplicate of a key wins and
           refreshes its recency, so the restarted LRU ends up in write
           order. *)
        List.iter
          (fun { Journal.tag; key; payload } ->
            if tag = sim_tag then lru_add sim key payload
            else
              match decode_pass_entry payload with
              | Some e -> lru_add pass key e
              | None ->
                  Journal.refuse j
                    ("undecodable pass entry for key " ^ key))
          records;
        let count tag =
          List.length (List.filter (fun r -> r.Journal.tag = tag) records)
        in
        (Some j, count pass_tag, count sim_tag)
  in
  {
    mutex = Mutex.create ();
    pass;
    sim;
    request = lru_create sim_cap;
    journal;
    replayed_pass;
    replayed_sim;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Under the cache lock: the live entries of both levels, oldest-first,
   in journal-record form — replaying them left to right rebuilds both
   LRUs with today's recency order. *)
let dump_locked t =
  let collect lru mk =
    (* Walk head (MRU) toward tail consing, so the result lists the
       tail (LRU, oldest) first. *)
    let acc = ref [] in
    let rec go = function
      | None -> ()
      | Some n ->
          acc := mk n.key n.value :: !acc;
          go n.next
    in
    go lru.head;
    !acc
  in
  collect t.pass pass_record @ collect t.sim sim_record

(* Compact once the journal holds several times more records than the
   caches hold entries — i.e. once it is mostly evicted/duplicate dead
   weight.  The floor keeps small caches from compacting constantly. *)
let maybe_compact_locked t =
  match t.journal with
  | None -> ()
  | Some j ->
      let live = Hashtbl.length t.pass.tbl + Hashtbl.length t.sim.tbl in
      if Journal.appends j > max 64 (4 * live) then
        Journal.compact j (dump_locked t)

(* Encode a record's journal line before taking the lock, and only when
   there is a journal: hex-encoding a payload is the bulk of an add, and
   connection threads serving inline hits wait on the same lock.  The
   thunk defers building the record (for a pass entry, its encoding). *)
let add t insert record =
  match t.journal with
  | None -> locked t insert
  | Some j ->
      let line = Journal.encode (record ()) in
      locked t (fun () ->
          insert ();
          Journal.append j line;
          maybe_compact_locked t)

let find_pass t key = locked t (fun () -> lru_find t.pass key)

let add_pass t key e =
  add t
    (fun () -> lru_add t.pass key e)
    (fun () -> pass_record key e)

let find_sim t key = locked t (fun () -> lru_find t.sim key)

let add_sim t key body =
  add t
    (fun () -> lru_add t.sim key body)
    (fun () -> sim_record key body)

(* A request hit reads the sim level as {!find_sim} does — counted,
   recency refreshed.  An indexed key whose body was evicted counts only
   as a request miss: the caller falls back to parsing and its
   {!find_sim} counts the sim miss, once. *)
let find_request t key =
  locked t (fun () ->
      match Option.bind (lru_touch t.request key) (lru_touch t.sim) with
      | Some _ as body ->
          tally t.request true;
          tally t.sim true;
          body
      | None ->
          tally t.request false;
          None)

let add_request t key ~sim_key =
  locked t (fun () -> lru_add t.request key sim_key)

let pass_stats t = locked t (fun () -> lru_stats t.pass)
let sim_stats t = locked t (fun () -> lru_stats t.sim)
let request_stats t = locked t (fun () -> lru_stats t.request)

type journal_stats = {
  journaled : bool;
  replayed_pass : int;
  replayed_sim : int;
  recovered_truncated : bool;
  appends : int;
  compactions : int;
}

let journal_stats t =
  locked t (fun () ->
      match t.journal with
      | None ->
          {
            journaled = false;
            replayed_pass = 0;
            replayed_sim = 0;
            recovered_truncated = false;
            appends = 0;
            compactions = 0;
          }
      | Some j ->
          {
            journaled = true;
            replayed_pass = t.replayed_pass;
            replayed_sim = t.replayed_sim;
            recovered_truncated = Journal.truncated j;
            appends = Journal.appends j;
            compactions = Journal.compactions j;
          })

let flush_journal t =
  locked t (fun () ->
      match t.journal with
      | None -> ()
      | Some j -> Journal.compact j (dump_locked t))

let close_journal t =
  locked t (fun () ->
      match t.journal with
      | None -> ()
      | Some j ->
          Journal.compact j (dump_locked t);
          Journal.close j)

(* ------------------------------------------------------------------ *)
(* Key construction.                                                   *)

let pass_key ~sig_digest ~config =
  sig_digest ^ ":" ^ Config.digest config

let env_digest (case : Case.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "brk=%d fuel=%d args=" case.brk case.fuel);
  Array.iter (fun a -> Buffer.add_string b (string_of_int a ^ ",")) case.args;
  List.iter
    (fun (addr, bytes) ->
      Buffer.add_string b (Printf.sprintf " %d:" addr);
      Buffer.add_string b (Digest.string bytes))
    case.writes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let canonical_digest machine =
  Digest.to_hex (Digest.string (Machine.canonical machine))

(* Rendering a machine's canonical string costs more than digesting a
   whole request, and every request names one of the shipped machines:
   theirs are computed once.  Machine records are immutable, so the
   physical match always finds the digest the rendering would give. *)
let shipped_digests = List.map (fun m -> (m, canonical_digest m)) Machine.all

let machine_digest machine =
  match List.assq_opt machine shipped_digests with
  | Some d -> d
  | None -> canonical_digest machine

let sim_key ~pass_key ~env ~machine ~engine ~tscale =
  Printf.sprintf "%s:%s:%s:%s:%d" pass_key env (machine_digest machine)
    (Engine.to_string engine) tscale

(* Every input of the sim key, in the form a request carries it: the
   case text stands in for the signature and environment digests its
   parse yields. *)
let request_key ~case_text ~config ~machine ~engine ~tscale =
  Printf.sprintf "%s:%s:%s:%s:%d"
    (Digest.to_hex (Digest.string case_text))
    (Config.digest config) (machine_digest machine)
    (Engine.to_string engine) tscale
