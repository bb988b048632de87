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

(* A released tag array backs the next cache of the same length on this
   domain; refilled, it must behave exactly like a fresh one.  The
   geometry (32 sets x 3 ways) is one no other test uses, so the pool
   holds no spare of this length beforehand. *)
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

(* Scrubbing on release only rewrites each set's valid prefix; after any
   operation sequence the reused array must still come back empty. *)
let prop_released_comes_back_empty =
  QCheck.Test.make ~name:"released cache comes back empty" ~count:200
    QCheck.(
      triple (int_bound 3) (int_range 1 5) (list (pair bool (int_bound 200))))
    (fun (assoc_sel, sets, ops) ->
      let assoc = 1 lsl assoc_sel in
      let entries = sets * assoc in
      let c = Cache.create_entries ~entries ~assoc in
      List.iter
        (fun (is_insert, key) ->
          if is_insert then ignore (Cache.insert c key)
          else ignore (Cache.access c key))
        ops;
      Cache.release c;
      let c = Cache.create_entries ~entries ~assoc in
      let empty = List.for_all (fun (_, key) -> not (Cache.mem c key)) ops in
      Cache.release c;
      empty)

let suite =
  [
    Alcotest.test_case "hit after insert" `Quick test_hit_after_insert;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "insert refreshes" `Quick test_insert_refreshes;
    Alcotest.test_case "mem does not touch LRU" `Quick test_mem_does_not_touch;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "released array reused clean" `Quick test_release_reuse;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_released_comes_back_empty;
  ]
