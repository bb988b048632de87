(* Set-associative cache with true-LRU replacement.

   Keyed on an abstract "unit" number (a line number for data caches, a
   page number for the TLB).  Each set's ways are stored in recency
   order — tags.(base) is the MRU way, tags.(base + assoc - 1) the LRU —
   so a probe needs no stamp array and the dominant case of the whole
   simulator, a repeat hit on the most-recently-used way, is a single
   compare.  A hit elsewhere rotates the prefix (move-to-front); the
   eviction victim is simply the last way.  This is observationally
   identical to the classic stamp-based true-LRU scheme: the same keys
   hit, and the same victim is displaced on every insert (invalid ways
   drift to — and are consumed from — the back, exactly like the
   all-zero stamps they used to carry). *)

type t = {
  sets : int;
  mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  assoc : int;
  tags : int array; (* sets * assoc, recency-ordered per set; -1 = invalid *)
  filled : int array;
      (* one slot per set: the bases of the sets that became non-empty
         since the last scrub, in [filled.(0 .. n_filled - 1)] *)
  mutable n_filled : int;
  mutable released : bool; (* [tags] handed back to the spare pool *)
}

(* Every real machine config has power-of-two set counts, so set
   selection is a mask rather than an integer division — [set_of] runs
   on every cache and TLB probe, making the division measurable. *)
let mask_of sets = if sets land (sets - 1) = 0 then sets - 1 else -1

(* Spare tag arrays, per domain and keyed by geometry (sets, assoc).  A
   Haswell L3 is a 131,072-word array: allocating and filling a fresh
   one costs far more than a short simulation, so instances that are
   done hand theirs back ({!release}) and the next {!create} of the same
   geometry on this domain takes a spare instead.  A spare travels with
   its fill log; both are pooled already scrubbed, so a taken pair is
   indistinguishable from fresh arrays.  The mutex covers systhreads
   sharing the domain; it is only taken at create and release, never
   per access. *)
type pool = {
  lock : Mutex.t;
  spares : (int * int, (int array * int array) list) Hashtbl.t;
}

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { lock = Mutex.create (); spares = Hashtbl.create 8 })

(* Spares kept per geometry: one memory system can hold two caches of
   one geometry (A53's L1 and TLB are both 128 sets x 4 ways), and a
   create/run/release loop needs no more than one instance's worth. *)
let max_spares = 2

let with_pool f =
  let p = Domain.DLS.get pool_key in
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) (fun () -> f p.spares)

let take ~sets ~assoc =
  let spare =
    with_pool (fun spares ->
        match Hashtbl.find_opt spares (sets, assoc) with
        | Some (a :: rest) ->
            Hashtbl.replace spares (sets, assoc) rest;
            Some a
        | Some [] | None -> None)
  in
  match spare with
  | Some a -> a
  | None -> (Array.make (sets * assoc) (-1), Array.make sets 0)

let make ~sets ~assoc =
  let tags, filled = take ~sets ~assoc in
  {
    sets;
    mask = mask_of sets;
    assoc;
    tags;
    filled;
    n_filled = 0;
    released = false;
  }

let create ~size ~assoc ~unit_shift =
  let units = size lsr unit_shift in
  make ~sets:(max 1 (units / assoc)) ~assoc

let create_entries ~entries ~assoc = make ~sets:(max 1 (entries / assoc)) ~assoc

(* Invalidate every way by invalidating the sets in the fill log: every
   non-empty set is in it ({!evict_into}), so an untouched set costs
   nothing, and a short simulation leaves most of a large cache
   untouched.  Reading every set instead — even one word each — costs a
   Haswell L3's 8192 reads per release, and a full [Array.fill] about as
   much as allocating a fresh array. *)
let scrub t =
  let tags = t.tags in
  for k = 0 to t.n_filled - 1 do
    let base = t.filled.(k) in
    for w = base to base + t.assoc - 1 do
      Array.unsafe_set tags w (-1)
    done
  done;
  t.n_filled <- 0

let release t =
  if not t.released then begin
    t.released <- true;
    scrub t;
    let geom = (t.sets, t.assoc) in
    with_pool (fun spares ->
        let held = Option.value (Hashtbl.find_opt spares geom) ~default:[] in
        if List.length held < max_spares then
          Hashtbl.replace spares geom ((t.tags, t.filled) :: held))
  end

let spares () =
  with_pool (fun spares ->
      Hashtbl.fold (fun _ l acc -> acc + List.length l) spares 0)

let set_of t key = if t.mask >= 0 then key land t.mask else key mod t.sets

(* The scans below use unsafe accesses: [set_of] is < [sets] by
   construction, so [base + w] < [sets * assoc] = the array length for
   every way [w] — and these loops run on every simulated memory access.
   They are loops rather than local recursive functions: a local [let
   rec] capturing the set's base and the key allocates a closure per
   call, which on this path is words of garbage per simulated
   instruction. *)

(* The way of [key] in the set starting at [base], scanning from way
   [from], or -1. *)
let find_way t (key : int) ~base ~from =
  let tags = t.tags in
  let w = ref from in
  while !w < t.assoc && Array.unsafe_get tags (base + !w) <> key do
    incr w
  done;
  if !w < t.assoc then !w else -1

(* Probe without modifying replacement state. *)
let mem t key = find_way t key ~base:(set_of t key * t.assoc) ~from:0 >= 0

(* Rotate ways [0, w] of the set right by one and put [key] in front —
   the move-to-front that refreshes recency.  The [int] annotations keep
   the stores unboxed: a polymorphic array write goes through
   [caml_modify]. *)
let promote (tags : int array) ~base ~w (key : int) =
  for k = w downto 1 do
    Array.unsafe_set tags (base + k) (Array.unsafe_get tags (base + k - 1))
  done;
  Array.unsafe_set tags base key

(* Probe and, on a hit, refresh LRU state.  Returns whether the key hit. *)
let access t key =
  let base = set_of t key * t.assoc in
  Array.unsafe_get t.tags base = key
  ||
  let w = find_way t key ~base ~from:1 in
  if w > 0 then begin
    promote t.tags ~base ~w key;
    true
  end
  else false

(* Evict the set's LRU way and put [key] in front; the victim, or -1
   when the way was invalid.  This is the only place a set goes from
   empty to non-empty: the valid ways of a set always form a prefix —
   every insert moves its key to the front, and no operation
   invalidates a single way — so the set was empty exactly when its way
   0 is invalid, and that is when it enters the fill log. *)
let evict_into t key ~base =
  let tags = t.tags in
  if Array.unsafe_get tags base = -1 then begin
    t.filled.(t.n_filled) <- base;
    t.n_filled <- t.n_filled + 1
  end;
  let old = Array.unsafe_get tags (base + t.assoc - 1) in
  promote tags ~base ~w:(t.assoc - 1) key;
  old

(* Insert a key (refreshing its recency if already present), evicting
   the LRU way.  Returns the evicted key, if a valid line was
   displaced. *)
let insert t key =
  let base = set_of t key * t.assoc in
  let pos = find_way t key ~base ~from:0 in
  if pos = 0 then None
  else if pos > 0 then begin
    promote t.tags ~base ~w:pos key;
    None
  end
  else
    let old = evict_into t key ~base in
    if old >= 0 then Some old else None

(* Insert a key the caller has just proven absent (an [access] on this
   cache missed, with no intervening insert of it): skips the presence
   scan of {!insert}, going straight to evict-LRU + move-to-front.
   Every memory-system fill site satisfies the precondition — fills only
   happen after the corresponding probe missed.  The victim comes back
   as a plain int (-1 = none) so an eviction allocates nothing. *)
let insert_absent t key = evict_into t key ~base:(set_of t key * t.assoc)

let clear = scrub
let capacity t = t.sets * t.assoc
