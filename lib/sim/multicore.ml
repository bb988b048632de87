(* Multicore driver for the bandwidth experiment (Fig 9): N independent
   instances (private caches and TLBs) share one DRAM channel.  Cores are
   co-simulated by always stepping the core with the smallest local time,
   so contention on the shared channel is interleaved realistically.

   Core selection is a binary min-heap keyed on (local time, core index):
   O(log n) per step instead of the previous O(n) scan, with the index in
   the key preserving the scan's deterministic tie-break (lowest index
   among equal times).  A halted core leaves the heap, so the loop ends
   the moment no core is runnable — fuel is only consumed by real steps,
   never by spinning over an already-finished set of cores. *)

type t = { cores : Interp.t array }

let create ~machine ~n_cores ~make_instance =
  let tscale = Interp.default_tscale in
  let dram = Dram.create machine.Machine.dram ~tscale in
  let cores =
    Array.init n_cores (fun core_id -> make_instance ~core_id ~dram ~tscale)
  in
  { cores }

let run ?(fuel = max_int) t =
  let n = Array.length t.cores in
  (* Heap of runnable core indices; [less] orders by (time, index). *)
  let heap = Array.init n (fun i -> i) in
  let size = ref 0 in
  let less a b =
    let ta = Interp.time t.cores.(a) and tb = Interp.time t.cores.(b) in
    ta < tb || (ta = tb && a < b)
  in
  let swap i j =
    let tmp = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- tmp
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !size && less heap.(l) heap.(!m) then m := l;
    if r < !size && less heap.(r) heap.(!m) then m := r;
    if !m <> i then begin
      swap i !m;
      sift_down !m
    end
  in
  (* Seed with the runnable cores only (a finished multicore re-run is a
     no-op, not a fuel-burning spin). *)
  Array.iteri
    (fun k _ ->
      if not (Interp.halted t.cores.(k)) then begin
        heap.(!size) <- k;
        incr size
      end)
    t.cores;
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  let steps = ref 0 in
  (* Cancellation poll: any core carries the (shared) token, so checking
     the one being stepped every 1024 steps observes its deadline
     without touching the per-step hot path. *)
  let poll_mask = 1023 in
  while !size > 0 && !steps < fuel do
    if !size = 1 then begin
      (* One runnable core left (the common case: every single-core run,
         and the tail of every multicore one): no ordering to maintain,
         so step it flat out instead of paying a sift per step. *)
      let c = t.cores.(heap.(0)) in
      while !size = 1 && !steps < fuel do
        if not (Interp.step c) then decr size;
        incr steps;
        if !steps land poll_mask = 0 then Interp.poll_cancel c
      done
    end
    else begin
      let k = heap.(0) in
      if !steps land poll_mask = 0 then Interp.poll_cancel t.cores.(k);
      if Interp.step t.cores.(k) then
        (* The core's local time advanced: restore the heap ordering. *)
        sift_down 0
      else begin
        decr size;
        heap.(0) <- heap.(!size);
        sift_down 0
      end;
      incr steps
    end
  done;
  if !size > 0 then failwith "Multicore.run: out of fuel"

let cores t = t.cores

(* Makespan: the time at which the last core finishes. *)
let total_cycles t =
  Array.fold_left (fun m c -> max m (Interp.cycles c)) 0 t.cores
