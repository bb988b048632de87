(* Online distance re-tuning, in the spirit of runtime-guided prefetcher
   reconfiguration: the pass compiles each prefetched loop's look-ahead
   constant into a distance *register* (an extra function parameter), and
   this controller rewrites those registers from windowed attribution
   counters while the program runs.

   Determinism and engine-independence are structural: the window is
   counted in retired demand loads (`Exec_state.exec_load` ticks the tuner
   after every demand access, identically in both engines), the
   inputs are integer counter deltas, and the policy is pure integer
   arithmetic — so a fixed program + config re-tunes at the same points to
   the same distances on every run and under every engine. *)

type spec = {
  spec_slot : int;
  spec_header : int;
  spec_init : int;
  spec_band : (int * int) option;
}

let spec ?band ~slot ~header ~init () =
  { spec_slot = slot; spec_header = header; spec_init = init; spec_band = band }

type reg = {
  slot : int; (* env slot (instr id of the distance-register Param) *)
  header : int; (* loop header block this register schedules *)
  init : int;
  lo : int; (* per-register tuning range — the cost-model band when the *)
  hi : int; (* register was seeded from eq. 1, [min_c, max_c] otherwise *)
  mutable cur : int;
  mutable seen : Attrib.totals; (* the loop's totals at the last boundary *)
  mutable trace : int list; (* distances chosen, newest first *)
}

type t = {
  attrib : Attrib.t;
  window : int; (* demand loads per tuning window *)
  min_c : int;
  max_c : int;
  regs : reg array;
  mutable loads : int; (* demand loads retired so far: the window clock *)
  mutable next_at : int;
  mutable windows : int;
}

let create ~attrib ~window ~min_c ~max_c regs =
  let window = max 1 window in
  let min_c = max 1 min_c in
  let max_c = max min_c max_c in
  let mk s =
    let lo, hi =
      match s.spec_band with
      | None -> (min_c, max_c)
      | Some (lo, hi) ->
          let lo = max min_c (min lo max_c) in
          (lo, max lo (min hi max_c))
    in
    let init =
      if s.spec_init < lo then lo else if s.spec_init > hi then hi
      else s.spec_init
    in
    {
      slot = s.spec_slot;
      header = s.spec_header;
      init;
      lo;
      hi;
      cur = init;
      seen = Attrib.loop attrib ~header:s.spec_header;
      trace = [ init ];
    }
  in
  {
    attrib;
    window;
    min_c;
    max_c;
    regs = Array.of_list (List.map mk regs);
    loads = 0;
    next_at = window;
    windows = 0;
  }

let attrib t = t.attrib

(* Write the initial distances; call once after parameter binding (the
   registers are parameters, so unbound ones read as 0 otherwise). *)
let init_env t (env : int array) =
  Array.iter (fun r -> env.(r.slot) <- r.init) t.regs

(* The per-window policy, applied to each loop's counter deltas:

   - the loop is *starved* when a meaningful share of its demand loads
     still reach DRAM or catch their prefetch in flight — the look-ahead
     is too short, so double it;
   - it is *wasteful* when prefetched lines keep falling out of the LLC
     untouched — the look-ahead overruns the cache, so halve it;
   - ambiguous or idle windows leave the distance alone (hysteresis: the
     2x-vs-competitor guards keep the two signals from fighting).

   Thresholds are shares of the window's demand loads in the loop, in
   integer arithmetic (shortfall/waste >= 1/16th of demand).  A header
   with no loop has all-zero totals, so it never moves. *)
let retune_reg t (r : reg) (env : int array) =
  let now = Attrib.loop t.attrib ~header:r.header in
  let d_demand = now.Attrib.demand - r.seen.demand in
  let d_unused = now.unused - r.seen.unused in
  let shortfall = now.miss - r.seen.miss + (now.late - r.seen.late) in
  r.seen <- now;
  if d_demand > 0 then begin
    let next =
      if shortfall * 16 >= d_demand && shortfall >= 2 * d_unused then
        min (r.cur * 2) r.hi
      else if d_unused * 16 >= d_demand && d_unused >= 2 * shortfall then
        max (r.cur / 2) r.lo
      else r.cur
    in
    if next <> r.cur then begin
      r.cur <- next;
      env.(r.slot) <- next
    end;
    r.trace <- r.cur :: r.trace
  end

let retune t env =
  t.windows <- t.windows + 1;
  Array.iter (fun r -> retune_reg t r env) t.regs

(* Called after every retired demand load. *)
let tick t ~env =
  t.loads <- t.loads + 1;
  if t.loads >= t.next_at then begin
    t.next_at <- t.loads + t.window;
    retune t env
  end

let windows t = t.windows

let chosen t =
  Array.to_list
    (Array.map (fun r -> (r.header, List.rev r.trace)) t.regs)

let final t =
  Array.to_list (Array.map (fun r -> (r.header, r.cur)) t.regs)

let pp fmt t =
  Format.fprintf fmt "adaptive tuner: %d window(s) of %d demand loads@."
    t.windows t.window;
  Array.iter
    (fun r ->
      Format.fprintf fmt "  loop bb%d: c %d -> %d (%d decisions)@." r.header
        r.init r.cur
        (List.length r.trace))
    t.regs
