module Cache = Spf_sim.Cache

(* Unit and property tests for the set-associative LRU cache, including a
   brute-force reference model. *)

let test_hit_after_insert () =
  let c = Cache.create ~size:1024 ~assoc:2 ~unit_shift:6 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 5);
  ignore (Cache.insert c 5);
  Alcotest.(check bool) "hit after insert" true (Cache.access c 5)

let test_lru_eviction () =
  (* 2-way, pick keys that map to the same set. *)
  let c = Cache.create ~size:128 ~assoc:2 ~unit_shift:6 in
  (* sets = 128/64/2 = 1, so every key collides. *)
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  ignore (Cache.access c 1); (* refresh 1; 2 becomes LRU *)
  let evicted = Cache.insert c 3 in
  Alcotest.(check (option int)) "LRU way evicted" (Some 2) evicted;
  Alcotest.(check bool) "1 survives" true (Cache.mem c 1);
  Alcotest.(check bool) "3 present" true (Cache.mem c 3);
  Alcotest.(check bool) "2 gone" false (Cache.mem c 2)

let test_insert_refreshes () =
  let c = Cache.create ~size:128 ~assoc:2 ~unit_shift:6 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  ignore (Cache.insert c 1); (* refresh, not duplicate *)
  let evicted = Cache.insert c 3 in
  Alcotest.(check (option int)) "2 was LRU" (Some 2) evicted

let test_mem_does_not_touch () =
  let c = Cache.create ~size:128 ~assoc:2 ~unit_shift:6 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  ignore (Cache.mem c 1); (* must NOT refresh *)
  let evicted = Cache.insert c 3 in
  Alcotest.(check (option int)) "probe did not refresh 1" (Some 1) evicted

let test_clear () =
  let c = Cache.create ~size:1024 ~assoc:4 ~unit_shift:6 in
  ignore (Cache.insert c 7);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.mem c 7)

let test_capacity () =
  let c = Cache.create ~size:4096 ~assoc:4 ~unit_shift:6 in
  Alcotest.(check int) "capacity" 64 (Cache.capacity c)

(* A released tag array backs the next cache of the same geometry on
   this domain; refilled, it must behave exactly like a fresh one.  The
   geometry (32 sets x 3 ways) is one no other test uses, so the pool
   holds no spare of it beforehand. *)
let test_release_reuse () =
  let sets = 32 and assoc = 3 in
  let size = sets * assoc * 64 in
  let dirty = Cache.create ~size ~assoc ~unit_shift:6 in
  for k = 0 to (2 * sets * assoc) - 1 do
    ignore (Cache.insert dirty k)
  done;
  let before = Cache.spares () in
  Cache.release dirty;
  Cache.release dirty;
  Alcotest.(check int) "release pools the array once" (before + 1)
    (Cache.spares ());
  let c = Cache.create ~size ~assoc ~unit_shift:6 in
  Alcotest.(check int) "create takes the spare" before (Cache.spares ());
  for k = 0 to (2 * sets * assoc) - 1 do
    Alcotest.(check bool) (Printf.sprintf "probe %d misses" k) false
      (Cache.mem c k || Cache.access c k)
  done;
  (* Fill set 0 way by way: no victim until it holds [assoc] keys. *)
  for w = 0 to assoc - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "fill %d evicts nothing" w)
      None
      (Cache.insert c (w * sets))
  done;
  Alcotest.(check (option int)) "a full set evicts its LRU" (Some 0)
    (Cache.insert c (assoc * sets));
  Cache.release c

(* Reference model: per-set list, most-recent first. *)
module Reference = struct
  type t = { sets : int; assoc : int; mutable data : (int * int list) list }

  let create ~sets ~assoc = { sets; assoc; data = [] }

  let set_of t key = key mod t.sets

  let find_set t s = try List.assoc s t.data with Not_found -> []

  let update_set t s l = t.data <- (s, l) :: List.remove_assoc s t.data

  let access t key =
    let s = set_of t key in
    let l = find_set t s in
    if List.mem key l then begin
      update_set t s (key :: List.filter (( <> ) key) l);
      true
    end
    else false

  let insert t key =
    let s = set_of t key in
    let l = find_set t s in
    if List.mem key l then update_set t s (key :: List.filter (( <> ) key) l)
    else begin
      let l = key :: l in
      let l = if List.length l > t.assoc then List.filteri (fun i _ -> i < t.assoc) l else l in
      update_set t s l
    end

  let clear t = t.data <- []
end

let prop_matches_reference =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:200
    QCheck.(pair (int_bound 3) (list (pair bool (int_bound 40))))
    (fun (assoc_sel, ops) ->
      let assoc = 1 lsl assoc_sel in
      (* 4 sets x assoc ways *)
      let c = Cache.create_entries ~entries:(4 * assoc) ~assoc in
      let r = Reference.create ~sets:4 ~assoc in
      List.for_all
        (fun (is_insert, key) ->
          if is_insert then begin
            ignore (Cache.insert c key);
            Reference.insert r key;
            true
          end
          else Cache.access c key = Reference.access r key)
        ops)

(* Release and clear rewrite only the sets in the fill log.  Over every
   operation the memory system uses — [insert], [access], a fill by
   [insert_absent] of a key its [access] just missed, and [clear] —
   the cache must agree with the reference model, and the array that
   comes back from the spare pool must hold none of the keys.  Up to 64
   sets with few operations leaves most sets untouched, so a set
   missing from the log stays dirty, and a log that [clear] fails to
   empty overflows its one slot per set. *)
type op = Insert of int | Access of int | Fill of int | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Insert k) (int_bound 500));
        (3, map (fun k -> Access k) (int_bound 500));
        (3, map (fun k -> Fill k) (int_bound 500));
        (1, return Clear);
      ])

let op_print = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Access k -> Printf.sprintf "access %d" k
  | Fill k -> Printf.sprintf "fill %d" k
  | Clear -> "clear"

let prop_released_comes_back_empty =
  QCheck.Test.make ~name:"released cache comes back empty" ~count:300
    QCheck.(
      triple (int_bound 3) (int_bound 63)
        (make
           ~print:(fun ops -> String.concat "; " (List.map op_print ops))
           Gen.(list_size (int_bound 80) op_gen)))
    (fun (assoc_sel, sets_sel, ops) ->
      let assoc = 1 lsl assoc_sel and sets = sets_sel + 1 in
      let entries = sets * assoc in
      let c = Cache.create_entries ~entries ~assoc in
      let r = Reference.create ~sets ~assoc in
      let agrees =
        List.for_all
          (function
            | Insert key ->
                ignore (Cache.insert c key);
                Reference.insert r key;
                true
            | Access key -> Cache.access c key = Reference.access r key
            | Fill key ->
                let hit = Cache.access c key in
                let want = Reference.access r key in
                if not hit then begin
                  ignore (Cache.insert_absent c key);
                  Reference.insert r key
                end;
                hit = want
            | Clear ->
                Cache.clear c;
                Reference.clear r;
                true)
          ops
      in
      Cache.release c;
      let spares = Cache.spares () in
      let c = Cache.create_entries ~entries ~assoc in
      let reused = Cache.spares () = spares - 1 in
      let key = function Insert k | Access k | Fill k -> k | Clear -> 0 in
      let empty = List.for_all (fun op -> not (Cache.mem c (key op))) ops in
      Cache.release c;
      agrees && reused && empty)

(* The same on the real geometry: a short run of the paper's Haswell
   memory system (8192-set L3) touches a few hundred lines and pages;
   released and re-created from the spares, every line it touched must
   miss all three levels and every page must miss the TLB. *)
let test_haswell_release_scrubs_touched () =
  let module Machine = Spf_sim.Machine in
  let module Memsys = Spf_sim.Memsys in
  let module Stats = Spf_sim.Stats in
  (* No stride prefetcher: the first touch of a line is then a DRAM fill
     exactly when no cache level holds it. *)
  let machine = { Machine.haswell with Machine.stride_pf = None } in
  let tscale = Spf_sim.Interp.default_tscale in
  let create () =
    Memsys.create machine ~tscale
      ~dram:(Spf_sim.Dram.create machine.Machine.dram ~tscale)
      ~stats:(Stats.create ()) ()
  in
  let rng = Random.State.make [| 19 |] in
  let addrs =
    Array.init 400 (fun _ -> Random.State.int rng (1 lsl 29) land lnot 63)
  in
  let touches = Array.append addrs addrs in
  let run ms =
    let now = ref 0 in
    Array.map
      (fun addr ->
        now := Memsys.access ms ~kind:Memsys.Demand ~pc:0 ~addr ~now:!now;
        Memsys.last_level ms)
      touches
  in
  let first = create () in
  let levels = run first in
  Memsys.release first;
  let spares = Cache.spares () in
  let second = create () in
  Alcotest.(check int) "L1, L2, L3 and TLB come from the spares" (spares - 4)
    (Cache.spares ());
  let again = run second in
  let seen = Hashtbl.create 512 in
  Array.iteri
    (fun i level ->
      let line = touches.(i) lsr Machine.line_shift in
      if not (Hashtbl.mem seen line) then begin
        Hashtbl.add seen line ();
        Alcotest.(check bool)
          (Printf.sprintf "first touch of line %d misses every level" line)
          true (level = Memsys.Dram)
      end)
    again;
  let pages =
    List.sort_uniq compare
      (Array.to_list
         (Array.map (fun a -> a lsr machine.Machine.page_shift) addrs))
  in
  Alcotest.(check bool) "every page misses the TLB" true
    ((Memsys.stats second).Stats.tlb_misses >= List.length pages);
  Alcotest.(check bool) "same levels as the first run" true (levels = again);
  Alcotest.(check (option (triple string int int)))
    "same stats as the first run" None
    (Stats.first_mismatch (Memsys.stats first) (Memsys.stats second));
  Memsys.release second

let suite =
  [
    Alcotest.test_case "hit after insert" `Quick test_hit_after_insert;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "insert refreshes" `Quick test_insert_refreshes;
    Alcotest.test_case "mem does not touch LRU" `Quick test_mem_does_not_touch;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "released array reused clean" `Quick test_release_reuse;
    Alcotest.test_case "Haswell release scrubs what a run touched" `Quick
      test_haswell_release_scrubs_touched;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_released_comes_back_empty;
  ]
