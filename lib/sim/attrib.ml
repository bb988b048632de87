module Ir = Spf_ir.Ir
module Cfg = Spf_ir.Cfg
module Dom = Spf_ir.Dom
module Loops = Spf_ir.Loops

(* Per-pc attribution of memory behaviour, engine-independent by
   construction: the memory system calls in with each access's pc and
   where it was satisfied, and everything else is a lookup into one
   counter record per instruction id.

   There is one set of counters.  Loop totals are sums over the pcs whose
   innermost natural loop it is, so every consumer sees the same numbers:
   `spf profile` prints the per-pc and per-loop tables, signed profiles
   record a plain run's loop totals, and the adaptive Tuner diffs loop
   totals at its window boundaries.  One instance observes one core's
   run. *)

type level = L1 | L2 | L3 | Dram | Inflight | Dropped

(* A loop's totals, derived from its sites on demand. *)
type totals = {
  demand : int;
  miss : int;
  late : int;
  unused : int;
  stall : int;
}

type site = {
  pc : int;
  name : string;
  is_load : bool;
  mutable accesses : int;
  mutable l1 : int;
  mutable l2 : int;
  mutable l3 : int;
  mutable inflight : int;
  mutable dram : int;
  mutable dropped : int;
  mutable late : int;
  mutable unused : int;
  mutable stall : int;
}

type t = {
  sites : site array; (* instr id -> its counters *)
  headers : int array; (* loop slot -> header block id *)
  members : site array array;
      (* loop slot -> the memory sites whose innermost loop it is *)
}

let create (func : Ir.func) =
  let cfg = Cfg.build func in
  let dom = Dom.build cfg in
  let analysis = Loops.analyze func cfg dom in
  let loops = Loops.loops analysis in
  let site pc name is_load =
    {
      pc;
      name;
      is_load;
      accesses = 0;
      l1 = 0;
      l2 = 0;
      l3 = 0;
      inflight = 0;
      dram = 0;
      dropped = 0;
      late = 0;
      unused = 0;
      stall = 0;
    }
  in
  let sites =
    Array.init (Array.length func.Ir.itab) (fun pc ->
        match func.Ir.itab.(pc) with
        | Some i ->
            site pc i.Ir.name
              (match i.Ir.kind with Ir.Load _ -> true | _ -> false)
        | None -> site pc "" false)
  in
  let members = Array.make (Array.length loops) [] in
  Ir.iter_instrs func (fun i ->
      match (i.Ir.kind, Loops.innermost analysis i.Ir.block) with
      | (Ir.Load _ | Ir.Store _ | Ir.Prefetch _), Some slot ->
          members.(slot) <- sites.(i.Ir.id) :: members.(slot)
      | _ -> ());
  {
    sites;
    headers = Array.map (fun (l : Loops.loop) -> l.header) loops;
    members = Array.map (fun l -> Array.of_list (List.rev l)) members;
  }

let on_access t ~pc ~level ~late ~stall =
  if pc >= 0 && pc < Array.length t.sites then begin
    let s = t.sites.(pc) in
    s.accesses <- s.accesses + 1;
    (match level with
    | L1 -> s.l1 <- s.l1 + 1
    | L2 -> s.l2 <- s.l2 + 1
    | L3 -> s.l3 <- s.l3 + 1
    | Dram -> s.dram <- s.dram + 1
    | Inflight -> s.inflight <- s.inflight + 1
    | Dropped -> s.dropped <- s.dropped + 1);
    if late then s.late <- s.late + 1;
    if stall > 0 then s.stall <- s.stall + stall
  end

let on_unused t ~pf_pc =
  if pf_pc >= 0 && pf_pc < Array.length t.sites then begin
    let s = t.sites.(pf_pc) in
    s.unused <- s.unused + 1
  end

(* Worst DRAM consumers first; the pc breaks ties so the order is a
   function of the counters alone. *)
let sites t =
  Array.to_list t.sites
  |> List.filter (fun s -> s.accesses > 0)
  |> List.sort (fun a b ->
         if a.dram <> b.dram then compare b.dram a.dram else compare a.pc b.pc)

(* Demand and miss count the loop's loads only; late and stall are only
   ever recorded on loads, unused only on prefetches. *)
let sum members =
  Array.fold_left
    (fun (acc : totals) (s : site) ->
      {
        demand = (if s.is_load then acc.demand + s.accesses else acc.demand);
        miss = (if s.is_load then acc.miss + s.dram else acc.miss);
        late = acc.late + s.late;
        unused = acc.unused + s.unused;
        stall = acc.stall + s.stall;
      })
    { demand = 0; miss = 0; late = 0; unused = 0; stall = 0 }
    members

let loop t ~header =
  let rec find k =
    if k >= Array.length t.headers then sum [||]
    else if t.headers.(k) = header then sum t.members.(k)
    else find (k + 1)
  in
  find 0

let pp_sites fmt t =
  Format.fprintf fmt "%-18s %8s %8s %8s %8s %8s %8s %8s %8s %8s@." "site"
    "accesses" "l1" "l2" "l3" "inflight" "dram" "dropped" "late" "unused";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-18s %8d %8d %8d %8d %8d %8d %8d %8d %8d@."
        (Printf.sprintf "%%%s.%d" s.name s.pc)
        s.accesses s.l1 s.l2 s.l3 s.inflight s.dram s.dropped s.late s.unused)
    (sites t)

let pp fmt t =
  Format.fprintf fmt "per-loop attribution (%d demand loads total):@."
    (sum t.sites).demand;
  Array.iteri
    (fun k h ->
      let l = sum t.members.(k) in
      if l.demand > 0 || l.unused > 0 then
        Format.fprintf fmt
          "  loop bb%d: demand=%d miss=%d late=%d unused=%d stall=%d@." h
          l.demand l.miss l.late l.unused l.stall)
    t.headers
