(* Open-addressing int -> int hash table for the memory system's in-flight
   fill tracking (line number -> fill completion time).

   A generic [Hashtbl] probe on this path pays a C call for hashing and
   another for polymorphic key comparison per access; with one probe per
   simulated memory operation those two calls are among the hottest
   instructions in the whole simulator.  This table keeps keys and values
   in two int arrays with multiplicative hashing and linear probing, so a
   probe is a handful of inline loads.

   Keys are non-negative (line numbers).  Slots: -1 = empty, -2 =
   tombstone.  The capacity is a power of two; the table grows (and drops
   tombstones) when live + dead entries exceed half of it. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1 *)
  mutable live : int; (* entries holding a binding *)
  mutable used : int; (* live + tombstones *)
}

let empty_slot = -1
let tombstone = -2

let create () =
  {
    keys = Array.make 64 empty_slot;
    vals = Array.make 64 0;
    mask = 63;
    live = 0;
    used = 0;
  }

let length t = t.live

(* Fibonacci hashing: spreads the low-entropy high bits of sequential line
   numbers across the table.  The multiplier is 2^62/phi, odd. *)
let home t key = (key * 0x2E67_F2AE_35E8_DC29) land t.mask

(* The slot holding [key], or else the empty slot that ends its probe
   sequence.  The probes here are loops, not local recursive functions:
   one of those captures the arrays and the key, and so allocates a
   closure on every call. *)
let slot t (key : int) =
  let keys = t.keys in
  let i = ref (home t key) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k <> empty_slot
  do
    i := (!i + 1) land t.mask
  done;
  !i

(* Returns the binding of [key], or -1 when absent (values are completion
   times, always >= 0) — no [option] allocation on the per-access path. *)
let find t key =
  let i = slot t key in
  if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else -1

let rec insert_fresh keys vals mask key v i =
  if Array.unsafe_get keys i = empty_slot then begin
    Array.unsafe_set keys i key;
    Array.unsafe_set vals i v
  end
  else insert_fresh keys vals mask key v ((i + 1) land mask)

(* Double the capacity (or just shed tombstones if mostly dead) and
   re-insert the live bindings. *)
let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * if t.live * 4 > t.mask + 1 then 2 else 1 in
  let keys = Array.make cap empty_slot in
  let vals = Array.make cap 0 in
  let mask = cap - 1 in
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.live;
  Array.iteri
    (fun i k ->
      if k >= 0 then insert_fresh keys vals mask k old_vals.(i) (home t k))
    old_keys

let replace t (key : int) (v : int) =
  let keys = t.keys in
  let mask = t.mask in
  (* Walk to the key or the first empty slot, remembering the first
     tombstone seen on the way: it is reusable if the key is absent. *)
  let i = ref (home t key) in
  let dead = ref (-1) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k <> empty_slot
  do
    if !dead < 0 && Array.unsafe_get keys !i = tombstone then dead := !i;
    i := (!i + 1) land mask
  done;
  let i = !i in
  if Array.unsafe_get keys i = key then Array.unsafe_set t.vals i v
  else if !dead >= 0 then begin
    Array.unsafe_set keys !dead key;
    Array.unsafe_set t.vals !dead v;
    t.live <- t.live + 1
  end
  else begin
    Array.unsafe_set keys i key;
    Array.unsafe_set t.vals i v;
    t.live <- t.live + 1;
    t.used <- t.used + 1;
    if t.used * 2 > mask then grow t
  end

(* Drop every binding with value <= bound and rebuild at the smallest
   power-of-two capacity keeping the load factor under a half (floor 64).
   The rebuild also sheds tombstones, so a post-sweep probe over the
   (typically small) survivor set is short and host-cache-resident
   again. *)
let sweep t ~bound =
  let old_keys = t.keys and old_vals = t.vals in
  let live = ref 0 in
  Array.iteri
    (fun i k -> if k >= 0 && Array.unsafe_get old_vals i > bound then incr live)
    old_keys;
  let cap = ref 64 in
  while !live * 2 > !cap do
    cap := !cap * 2
  done;
  let cap = !cap in
  let keys = Array.make cap empty_slot in
  let vals = Array.make cap 0 in
  let mask = cap - 1 in
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.live <- !live;
  t.used <- !live;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let v = Array.unsafe_get old_vals i in
        if v > bound then insert_fresh keys vals mask k v (home t k)
      end)
    old_keys

let remove t key =
  let i = slot t key in
  if Array.unsafe_get t.keys i = key then begin
    Array.unsafe_set t.keys i tombstone;
    t.live <- t.live - 1
  end
