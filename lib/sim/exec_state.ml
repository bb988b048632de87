module Ir = Spf_ir.Ir

(* Execution state and timing helpers shared by the engines.

   The classic interpreter (Interp) and the micro-op tape engine (Tape)
   both drive exactly this state with exactly these helpers, so their
   timing bookkeeping cannot drift apart: dispatch/retire, the ROB
   ring, the in-order demand-miss slots and the memory-operation
   sequences (bounds check, functional access, Memsys timing,
   miss-restart penalty) live here once.

   Time is kept in scaled cycles ([tscale] sub-cycle units) so that
   multi-issue dispatch intervals stay integral. *)

let default_tscale = 12

(* Demand accesses to unmapped addresses fault, carrying enough context to
   compare trap sites across differential runs; software prefetches to the
   same addresses are dropped non-faulting instead (§4.4). *)
type fault = { pc : int; addr : int; width : int; is_store : bool }

exception Trap of fault

exception Fuel_exhausted

(* Cooperative cancellation: the token is the absolute wall-clock
   deadline itself.  The engines compare it with the clock at their poll
   points (every 1024 blocks) and bail out with [Cancelled], carrying
   the stats accumulated so far — that is what a crash bundle records
   as "stats-so-far" for a job that ran away.  Nothing has to fire the
   token, so no thread watches it; a token without a deadline
   ([until = infinity]) never reads the clock. *)
type cancel = { until : float (* [Unix.gettimeofday] time *) }

exception Cancelled of Stats.t

let new_cancel ~until = { until }
let is_cancelled c = c.until < Float.infinity && Unix.gettimeofday () > c.until

let fault_to_string { pc; addr; width; is_store } =
  Printf.sprintf "%s of %d byte(s) at address %d faulted (instr %d)"
    (if is_store then "store" else "load")
    width addr pc

type t = {
  machine : Machine.t;
  func : Ir.func;
  mem : Memory.t;
  memsys : Memsys.t;
  stats : Stats.t;
  env : int array;
  fenv : float array;
  ready : int array;
  call_fns : (int array -> int) option array;
      (* per instruction id: resolved intrinsic, filled by
         [Interp.register_intrinsic] (no hash lookup on the call path) *)
  tscale : int;
  disp_int : int;
  in_order : bool;
  rob_ring : int array;
  demand_free : int array;
  miss_restart : int;
  cancel : cancel option;
  tuner : Tuner.t option;
      (* adaptive-distance controller, ticked after every retired demand
         load — the same point in both engines, which is what makes
         adaptive runs engine-independent *)
  mutable rob_slot : int; (* next ROB ring slot (out-of-order only) *)
  mutable cur : int;
  mutable halted : bool;
  mutable retval : int option;
  mutable last_dispatch : int;
  mutable last_retire : int;
}

(* [extra_slots] extends the value arrays beyond the SSA ids: the tape
   engine materializes immediates into trailing constant slots (written
   once at create, ready-time permanently 0) so every operand becomes a
   plain slot index.  Instruction destinations are always < n_instrs, so
   the extension is invisible to the other engines. *)
let create ~machine ~tscale ~dram ?stats ?cancel ?attrib ?tuner
    ?(extra_slots = 0) ~mem ~args func =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  (* The tuner steers by its own sink's loop totals: feeding memsys a
     different one would leave those at zero and the run at its initial
     distances, silently. *)
  let attrib =
    match (attrib, tuner) with
    | Some a, Some tu when a != Tuner.attrib tu ->
        invalid_arg
          "Exec_state.create: ~attrib must be the tuner's own (Tuner.attrib)"
    | Some _, _ -> attrib
    | None, Some tu -> Some (Tuner.attrib tu)
    | None, None -> None
  in
  let memsys = Memsys.create machine ~tscale ~dram ~stats ?attrib () in
  let n = Ir.n_instrs func in
  let slots = max (n + extra_slots) 1 in
  let t =
    {
      machine;
      func;
      mem;
      memsys;
      stats;
      env = Array.make slots 0;
      fenv = Array.make slots 0.0;
      ready = Array.make slots 0;
      call_fns = Array.make (max n 1) None;
      tscale;
      disp_int = max 1 (tscale * machine.Machine.inst_cost / machine.width);
      in_order = machine.kind = Machine.In_order;
      rob_ring = Array.make (max machine.rob 1) 0;
      demand_free = Array.make (max machine.demand_slots 1) 0;
      miss_restart = machine.miss_restart * tscale;
      cancel;
      tuner;
      rob_slot = 0;
      cur = func.Ir.entry;
      halted = false;
      retval = None;
      last_dispatch = 0;
      last_retire = 0;
    }
  in
  (* Bind parameters. *)
  Array.iteri
    (fun k id -> if k < Array.length args then t.env.(id) <- args.(k))
    func.Ir.param_ids;
  (* Distance registers are parameters past the caller's arguments; the
     tuner seeds them with their initial distances. *)
  (match tuner with Some tu -> Tuner.init_env tu t.env | None -> ());
  t

(* Raise [Cancelled] once this state's deadline has passed.  Called by
   the engines' run loops every 1024 blocks — one clock read per poll is
   invisible next to the simulated work, and a deadline is observed
   within microseconds of passing. *)
let poll_cancel t =
  match t.cancel with
  | Some c when is_cancelled c -> raise (Cancelled t.stats)
  | _ -> ()

(* --- operand access ---------------------------------------------------- *)

let ival t = function
  | Ir.Var id -> t.env.(id)
  | Ir.Imm n -> n
  | Ir.Fimm x -> Int64.to_int (Int64.bits_of_float x)

let fval t = function
  | Ir.Var id -> t.fenv.(id)
  | Ir.Fimm x -> x
  | Ir.Imm n -> float_of_int n

let rtime t = function Ir.Var id -> t.ready.(id) | Ir.Imm _ | Ir.Fimm _ -> 0

(* Int-specialized max: [Stdlib.max] is a generic call into polymorphic
   compare without flambda, and these run several times per dynamic
   instruction. *)
let[@inline always] imax (a : int) (b : int) = if a < b then b else a

(* Latency table shared by both engines (scaled by [tscale] at use/decode
   time). *)
let binop_latency = function
  | Ir.Mul -> 3
  | Ir.Sdiv | Ir.Srem -> 12
  | Ir.Fadd | Ir.Fsub | Ir.Fmul -> 4
  | Ir.Fdiv -> 12
  | Ir.Add | Ir.Sub | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr | Ir.Ashr
  | Ir.Smin | Ir.Smax -> 1

(* --- dispatch / retire ------------------------------------------------- *)

(* Dispatch the next dynamic instruction; returns its start time.  The
   out-of-order path walks the ROB ring with an explicit rolling slot
   (advanced by [retire], which strictly alternates with [dispatch])
   instead of [inst_index mod rob] — one less integer division per
   dynamic instruction, same values. *)
(* In-order issue: wait for operands at issue time (stall-on-use).  The
   fast path is [operands_ready <= slot] — on an L1-hit-dominated stream
   every source is ready by the next issue slot, so issue advances by
   exactly [disp_int] and the stall max is a predicted-not-taken
   branch. *)
let[@inline always] dispatch_in_order t ~operands_ready =
  let slot = t.last_dispatch + t.disp_int in
  let issue = if operands_ready <= slot then slot else operands_ready in
  t.last_dispatch <- issue;
  issue

let[@inline always] dispatch_out_of_order t ~operands_ready =
  let d = imax (t.last_dispatch + t.disp_int) t.rob_ring.(t.rob_slot) in
  t.last_dispatch <- d;
  imax d operands_ready

let[@inline always] dispatch t ~operands_ready =
  if t.in_order then dispatch_in_order t ~operands_ready
  else dispatch_out_of_order t ~operands_ready

(* Record in-order retirement (OoO ROB bookkeeping). *)
let[@inline always] retire t ~complete =
  let r = imax complete t.last_retire in
  t.last_retire <- r;
  if not t.in_order then begin
    t.rob_ring.(t.rob_slot) <- r;
    let s = t.rob_slot + 1 in
    t.rob_slot <- (if s = Array.length t.rob_ring then 0 else s)
  end

(* Index of the earliest-free outstanding-demand-miss slot. *)
let free_demand_slot t =
  let slots = t.demand_free in
  let k = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!k) then k := i
  done;
  !k

(* Refresh the cycle counter after a completed step (never mid-step, so a
   trapped step leaves the previous step's value, as always).  The block
   boundary is also where dead in-flight fill records get pruned:
   [last_dispatch] only ever grows and every memory access issues at or
   after it, so it is a sound low-water mark for
   {!Memsys.prune_inflight}. *)
let[@inline always] update_cycles t =
  let time = imax t.last_retire t.last_dispatch in
  (* Every shipped machine model runs at the default tscale, and division
     by a literal constant compiles to a multiply-shift where the generic
     [/ t.tscale] pays a hardware divide on every block boundary.  The
     branch is perfectly predicted (tscale is fixed per run). *)
  t.stats.Stats.cycles <-
    (if t.tscale = 12 then time / 12 else time / t.tscale);
  Memsys.prune_inflight t.memsys ~low_water:t.last_dispatch

let time t = imax t.last_retire t.last_dispatch

(* --- memory operations ------------------------------------------------- *)

(* The full demand-load sequence: bounds check (trap), functional load
   into the destination slot, in-order miss-slot serialisation, Memsys
   timing, and the ROB-restart penalty on DRAM fills.  Returns the
   completion time. *)
let exec_load t ~pc ~dst ~ty ~addr ~start =
  let width = Ir.size_of_ty ty in
  if not (Memory.in_bounds t.mem ~addr ~width) then
    raise (Trap { pc; addr; width; is_store = false });
  (match ty with
  | Ir.F64 -> t.fenv.(dst) <- Memory.unsafe_load_f64 t.mem addr
  | Ir.I8 | Ir.I16 | Ir.I32 | Ir.I64 ->
      t.env.(dst) <- Memory.unsafe_load t.mem ty addr);
  (* In-order cores support few outstanding demand misses: a load cannot
     begin its lookup until a slot frees (stall-on-miss when
     [demand_slots] = 1).  Hits release the slot immediately. *)
  let slot = if t.in_order then free_demand_slot t else -1 in
  let start = if t.in_order then imax start t.demand_free.(slot) else start in
  let completion =
    Memsys.access t.memsys ~kind:Memsys.Demand ~pc ~addr ~now:start
  in
  (* Tick the adaptive-distance controller on every retired demand load —
     the window boundary is thereby identical in both engines. *)
  (match t.tuner with Some tu -> Tuner.tick tu ~env:t.env | None -> ());
  match Memsys.last_level t.memsys with
  | Memsys.L1 | Memsys.Dropped -> completion
  | Memsys.Inflight | Memsys.L2 | Memsys.L3 ->
      if t.in_order then t.demand_free.(slot) <- completion;
      completion
  | Memsys.Dram ->
      if t.in_order then t.demand_free.(slot) <- completion;
      completion + t.miss_restart

(* The demand-store sequence: bounds check (trap), functional store, write
   access for the cache model.  Returns the completion time. *)
let exec_store_i t ~pc ~ty ~addr ~v ~start =
  let width = Ir.size_of_ty ty in
  if not (Memory.in_bounds t.mem ~addr ~width) then
    raise (Trap { pc; addr; width; is_store = true });
  Memory.unsafe_store t.mem ty addr v;
  ignore (Memsys.access t.memsys ~kind:Memsys.Write ~pc ~addr ~now:start);
  start + t.tscale

let exec_store_f t ~pc ~addr ~v ~start =
  if not (Memory.in_bounds t.mem ~addr ~width:8) then
    raise (Trap { pc; addr; width = 8; is_store = true });
  Memory.unsafe_store_f64 t.mem addr v;
  ignore (Memsys.access t.memsys ~kind:Memsys.Write ~pc ~addr ~now:start);
  start + t.tscale

(* Prefetches are hints: out-of-bounds or unmapped addresses are dropped
   without faulting (and without touching the cache/TLB model) but
   counted, so fuzzing can observe how often the pass leans on this
   escape hatch. *)
let exec_prefetch t ~pc ~addr ~start =
  if Memory.in_bounds t.mem ~addr ~width:1 then
    ignore (Memsys.access t.memsys ~kind:Memsys.Sw_prefetch ~pc ~addr ~now:start)
  else t.stats.Stats.dropped_prefetches <- t.stats.Stats.dropped_prefetches + 1;
  start + t.tscale

let exec_call t ~pc ~callee args_v =
  match t.call_fns.(pc) with
  | Some fn -> fn args_v
  | None -> failwith ("Interp: unknown intrinsic " ^ callee)

(* --- phi parallel copies ----------------------------------------------- *)

(* The phi parallel copies of CFG edge (pred, succ), analysed once so the
   engines never consult an assoc list on a taken edge.  [Bad_edge] is
   raised only if the edge is actually taken, matching the historical lazy
   behaviour. *)
type edge_copies =
  | No_copies
  | Copies of { dsts : int array; srcs : Ir.operand array }
  | Bad_edge of string

let phi_copies func ~pred ~succ =
  let copies = ref [] and missing = ref None in
  Array.iter
    (fun id ->
      let i = Ir.instr func id in
      match i.Ir.kind with
      | Ir.Phi incoming -> (
          match List.assoc_opt pred incoming with
          | Some v -> copies := (i.Ir.id, v) :: !copies
          | None ->
              if !missing = None then
                missing :=
                  Some
                    (Printf.sprintf "Interp: phi %d lacks edge from bb%d"
                       i.Ir.id pred))
      | _ -> ())
    (Ir.block func succ).Ir.instrs;
  match !missing with
  | Some msg -> Bad_edge msg
  | None -> (
      match List.rev !copies with
      | [] -> No_copies
      | copies ->
          Copies
            {
              dsts = Array.of_list (List.map fst copies);
              srcs = Array.of_list (List.map snd copies);
            })
