module Ir = Spf_ir.Ir
module Usedef = Spf_ir.Usedef
module S = Exec_state

(* Micro-op tape execution engine.

   Each static instruction is decoded once into contiguous
   struct-of-arrays storage — an int opcode array plus parallel operand /
   destination / latency arrays — so the hot loop is a direct [match] on
   an unboxed opcode (a jump table), with zero closure captures, instead
   of the classic interpreter's pattern match over [Ir.instr] records.
   A whole run, this loop and the memory system under it, allocates
   under one minor-heap word per retired instruction (pinned by the
   memsys suite).  A GEP whose
   single use is the very next load/store's address fuses into that
   memory micro-op ({!fusable}).

   Operands are unified into plain slot indices: SSA values keep their
   instruction ids, and immediates are materialized once into trailing
   {e constant slots} of the shared [env]/[fenv]/[ready] arrays (written
   at create time, ready-time permanently 0, never overwritten because
   instruction destinations stay below [Ir.n_instrs]).  Two subtleties
   force the slot tables to mirror the interpreter exactly:

   - an [Imm n] read as a float operand evaluates to [float_of_int n]
     ([Exec_state.fval]), but an [Imm n] flowing through a phi edge-copy
     writes [0.0] into the destination's float half ([Interp.take_edge]);
     the two roles therefore intern {e distinct} constant slots;
   - a [Select] whose picked arm is an [Imm] leaves the destination's
     float half untouched, so selects decode into four opcode variants
     keyed on which arms write [fenv].

   Blocks are laid out as {e superblocks}: decode greedily chains blocks
   across unconditional [Br] edges to not-yet-placed targets, so a
   straight-line kernel body becomes one contiguous tape segment.  An
   interior [Br] becomes a [SEAM] opcode — same terminator timing, same
   pre-planned phi edge-copies, same per-block fuel/cancellation/cycle
   accounting (bit-identical observability), but control simply falls
   through to the next tape pc instead of reloading an edge target.

   Every micro-op drives the shared {!Exec_state} with the shared
   dispatch/retire/memory helpers in exactly the interpreter's order, so
   the engine is bit-identical to the classic interpreter: same Stats,
   same Trap/Fuel_exhausted/Cancelled behaviour, same multicore schedule.
   The golden suite, the cross-engine fuzz oracle and the symbolic
   validator pin this.

   Decoded tapes are cached per domain, keyed by (tscale, structural
   signature), so sweeps that rebuild and re-run one workload function
   decode once per domain.  The phi-copy scratch buffers are written and
   fully consumed inside one block boundary and are therefore safe to
   share between instances on one domain. *)

(* --- opcode space -------------------------------------------------------

   0..12   int binops (Ir.binop declaration order)
   13..16  float binops
   17..22  integer compares (Ir.cmp declaration order)
   23..26  select variants: 23 + (true arm writes fenv) + 2*(false arm)
   27      gep
   28..32  loads (I8, I16, I32, I64, F64)
   33..37  stores (I8, I16, I32, I64, F64)
   38      prefetch
   39      alloc
   40      call (side descriptor array)
   41      param
   42..46  fused gep+load
   47..51  fused gep+store
   52..56  terminators: br, seam, cbr, ret, unreachable

   Per-uop payload (parallel arrays): [xa]/[xb]/[xc] are operand slots
   (or edge indices for branches, the call-descriptor index for calls),
   [dd] is the destination slot / faulting pc, [lt] is the pre-scaled
   latency for binops, the scale for (fused) GEPs, and the call
   latency. *)

let op_of_binop = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Sdiv -> 3
  | Ir.Srem -> 4
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Lshr -> 9
  | Ir.Ashr -> 10
  | Ir.Smin -> 11
  | Ir.Smax -> 12
  | Ir.Fadd -> 13
  | Ir.Fsub -> 14
  | Ir.Fmul -> 15
  | Ir.Fdiv -> 16

let op_of_cmp = function
  | Ir.Eq -> 17
  | Ir.Ne -> 18
  | Ir.Slt -> 19
  | Ir.Sle -> 20
  | Ir.Sgt -> 21
  | Ir.Sge -> 22

let op_select = 23 (* +1 if the true arm writes fenv, +2 if the false arm *)
let op_gep = 27
let op_load = 28 (* + ty offset *)
let op_store = 33
let op_prefetch = 38
let op_alloc = 39
let op_call = 40
let op_param = 41
let op_gep_load = 42
let op_gep_store = 47
let op_br = 52
let op_seam = 53
let op_cbr = 54
let op_ret = 55
let op_unreachable = 56

let ty_off = function
  | Ir.I8 -> 0
  | Ir.I16 -> 1
  | Ir.I32 -> 2
  | Ir.I64 -> 3
  | Ir.F64 -> 4

(* Inverse of [ty_off], for the load/store arms of the dispatch loop. *)
let[@inline always] ty_of (c : int) =
  if c = 0 then Ir.I8
  else if c = 1 then Ir.I16
  else if c = 2 then Ir.I32
  else if c = 3 then Ir.I64
  else Ir.F64

type call_site = {
  c_pc : int; (* call instruction id (fault/intrinsic table index) *)
  c_dst : int;
  c_callee : string;
  c_args : int array; (* argument slots *)
}

type program = {
  code : int array;
  xa : int array;
  xb : int array;
  xc : int array;
  dd : int array;
  lt : int array;
  bstart : int array; (* per block id: tape pc of its first micro-op *)
  (* CFG edges, struct-of-arrays; phi parallel copies flattened. *)
  e_succ : int array;
  e_pc : int array; (* tape pc of the successor's first micro-op *)
  e_cp_off : int array;
  e_cp_len : int array; (* -1 marks a bad edge (lazy failure, see below) *)
  e_bad : string array;
  cp_dst : int array;
  cp_src : int array;
  (* Read-all-before-write-any scratch for the widest edge; consumed
     within one block boundary, so sharable per domain. *)
  scratch_i : int array;
  scratch_f : float array;
  scratch_r : int array;
  calls : call_site array;
  const_env : int array; (* trailing constant slots: initial values *)
  const_fenv : float array;
  n_base : int; (* first constant slot = Ir.n_instrs *)
  n_seams : int; (* superblock interior edges formed *)
}

let n_extra_slots p = Array.length p.const_env
let seams p = p.n_seams

(* Write the constant slots into a freshly created state (whose arrays
   were sized with [extra_slots = n_extra_slots p]). *)
let init_consts p (st : S.t) =
  let m = Array.length p.const_env in
  Array.blit p.const_env 0 st.S.env p.n_base m;
  Array.blit p.const_fenv 0 st.S.fenv p.n_base m

(* --- decode ------------------------------------------------------------- *)

(* GEP fusion legality: [g] is a GEP whose value has exactly one use —
   the immediately following load/store [nxt]'s address operand (for a
   store, the stored value is not the GEP itself) — and no terminator
   use (phi uses appear in [Usedef.uses], so a phi reader also blocks
   fusion).  The fused micro-op still performs both instructions' full
   timing sequences (two instruction counts, two dispatches, two
   retirements); what it elides is the env/ready round-trip through the
   GEP's SSA slot, which the single-use condition makes unobservable. *)
let fusable usedef (g : Ir.instr) (nxt : Ir.instr) =
  match g.Ir.kind with
  | Ir.Gep _ -> (
      match (Usedef.uses usedef g.Ir.id, Usedef.term_uses usedef g.Ir.id) with
      | [ u ], [] when u = nxt.Ir.id -> (
          match nxt.Ir.kind with
          | Ir.Load (_, Ir.Var a) -> a = g.Ir.id
          | Ir.Store (_, Ir.Var a, v) -> a = g.Ir.id && v <> Ir.Var g.Ir.id
          | _ -> false)
      | _ -> false)
  | _ -> false

exception Decode_error of string

let decode_raw ~tsc func : program =
  let usedef = Usedef.build func in
  let nb = Ir.n_blocks func in
  let n = Ir.n_instrs func in
  (* Constant-slot interning: key = (int value, float-half bit pattern),
     so Imm-as-operand (float half = float_of_int n) and Imm-as-phi-source
     (float half = 0.0) get distinct slots. *)
  let ctbl = Hashtbl.create 16 in
  let rev_consts = ref [] and n_consts = ref 0 in
  let slot_for (iv : int) (fv : float) =
    let key = (iv, Int64.bits_of_float fv) in
    match Hashtbl.find_opt ctbl key with
    | Some s -> s
    | None ->
        let s = n + !n_consts in
        incr n_consts;
        rev_consts := (iv, fv) :: !rev_consts;
        Hashtbl.add ctbl key s;
        s
  in
  let slot_of = function
    | Ir.Var id -> id
    | Ir.Imm v -> slot_for v (float_of_int v)
    | Ir.Fimm x -> slot_for (Int64.to_int (Int64.bits_of_float x)) x
  in
  let slot_of_phi_src = function
    | Ir.Var id -> id
    | Ir.Imm v -> slot_for v 0.0 (* edge copies zero the float half *)
    | Ir.Fimm x -> slot_for (Int64.to_int (Int64.bits_of_float x)) x
  in
  (* Micro-op emission into reversed accumulators. *)
  let rev_uops = ref [] and n_uops = ref 0 in
  let emit ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) ?(l = 0) op =
    rev_uops := (op, a, b, c, d, l) :: !rev_uops;
    incr n_uops
  in
  (* Superblock layout: chains follow unconditional Br edges to unplaced
     targets, entry chain first; every reached-by-layout block gets a
     contiguous tape segment, and interior Br edges become seams. *)
  let placed = Array.make (max nb 1) false in
  let rev_layout = ref [] in
  let chain b0 =
    let b = ref b0 and more = ref true in
    while !more do
      placed.(!b) <- true;
      rev_layout := !b :: !rev_layout;
      match (Ir.block func !b).Ir.term with
      | Ir.Br s when not placed.(s) -> b := s
      | _ -> more := false
    done
  in
  if nb > 0 then chain func.Ir.entry;
  for b = 0 to nb - 1 do
    if not placed.(b) then chain b
  done;
  let layout = Array.of_list (List.rev !rev_layout) in
  (* Edges: interned per (pred, succ); phi copies flattened with their
     sources pre-resolved to slots.  A phi lacking the edge fails only if
     the edge is actually taken, matching the other engines. *)
  let etbl = Hashtbl.create 16 in
  let rev_edges = ref [] and n_edges = ref 0 in
  let rev_cp = ref [] and n_cp = ref 0 and max_cp = ref 0 in
  let edge_idx ~pred ~succ =
    match Hashtbl.find_opt etbl (pred, succ) with
    | Some e -> e
    | None ->
        let e = !n_edges in
        incr n_edges;
        let off, len, bad =
          match S.phi_copies func ~pred ~succ with
          | S.No_copies -> (0, 0, "")
          | S.Bad_edge msg -> (0, -1, msg)
          | S.Copies { dsts; srcs } ->
              let off = !n_cp in
              let m = Array.length dsts in
              for k = 0 to m - 1 do
                rev_cp := (dsts.(k), slot_of_phi_src srcs.(k)) :: !rev_cp
              done;
              n_cp := !n_cp + m;
              if m > !max_cp then max_cp := m;
              (off, m, "")
        in
        rev_edges := (succ, off, len, bad) :: !rev_edges;
        Hashtbl.add etbl (pred, succ) e;
        e
  in
  let rev_calls = ref [] and n_calls = ref 0 in
  let emit_instr (i : Ir.instr) =
    let dst = i.Ir.id in
    match i.Ir.kind with
    | Ir.Binop (op, x, y) ->
        emit (op_of_binop op) ~a:(slot_of x) ~b:(slot_of y) ~d:dst
          ~l:(S.binop_latency op * tsc)
    | Ir.Cmp (p, x, y) ->
        emit (op_of_cmp p) ~a:(slot_of x) ~b:(slot_of y) ~d:dst
    | Ir.Select (c0, x, y) ->
        let writes = function Ir.Imm _ -> 0 | Ir.Var _ | Ir.Fimm _ -> 1 in
        emit
          (op_select + writes x + (2 * writes y))
          ~a:(slot_of c0) ~b:(slot_of x) ~c:(slot_of y) ~d:dst
    | Ir.Gep { base; index; scale } ->
        emit op_gep ~a:(slot_of base) ~b:(slot_of index) ~d:dst ~l:scale
    | Ir.Load (ty, a) -> emit (op_load + ty_off ty) ~a:(slot_of a) ~d:dst
    | Ir.Store (ty, a, v) ->
        emit (op_store + ty_off ty) ~a:(slot_of a) ~b:(slot_of v) ~d:dst
    | Ir.Prefetch a -> emit op_prefetch ~a:(slot_of a) ~d:dst
    | Ir.Alloc sz -> emit op_alloc ~a:(slot_of sz) ~d:dst
    | Ir.Call { callee; args; _ } ->
        let ci =
          {
            c_pc = dst;
            c_dst = dst;
            c_callee = callee;
            c_args = Array.of_list (List.map slot_of args);
          }
        in
        let idx = !n_calls in
        incr n_calls;
        rev_calls := ci :: !rev_calls;
        emit op_call ~a:idx ~d:dst ~l:(10 * tsc)
    | Ir.Param _ -> emit op_param ~d:dst
    | Ir.Phi _ ->
        (* Phis execute on edges; blocks are filtered below. *)
        assert false
  in
  let emit_fused (g : Ir.instr) (nxt : Ir.instr) =
    let base, index, scale =
      match g.Ir.kind with
      | Ir.Gep { base; index; scale } -> (base, index, scale)
      | _ -> assert false
    in
    let a = slot_of base and b = slot_of index in
    match nxt.Ir.kind with
    | Ir.Load (ty, _) ->
        emit (op_gep_load + ty_off ty) ~a ~b ~d:nxt.Ir.id ~l:scale
    | Ir.Store (ty, _, v) ->
        emit
          (op_gep_store + ty_off ty)
          ~a ~b ~c:(slot_of v) ~d:nxt.Ir.id ~l:scale
    | _ -> assert false
  in
  let bstart = Array.make (max nb 1) 0 in
  let n_seams = ref 0 in
  Array.iteri
    (fun li b ->
      bstart.(b) <- !n_uops;
      let non_phi =
        Array.to_list (Ir.block func b).Ir.instrs
        |> List.filter_map (fun id ->
               let i = Ir.instr func id in
               match i.Ir.kind with Ir.Phi _ -> None | _ -> Some i)
      in
      let rec go = function
        | g :: nxt :: rest when fusable usedef g nxt ->
            emit_fused g nxt;
            go rest
        | i :: rest ->
            emit_instr i;
            go rest
        | [] -> ()
      in
      go non_phi;
      match (Ir.block func b).Ir.term with
      | Ir.Br s when li + 1 < Array.length layout && layout.(li + 1) = s ->
          incr n_seams;
          emit op_seam ~a:(edge_idx ~pred:b ~succ:s)
      | Ir.Br s -> emit op_br ~a:(edge_idx ~pred:b ~succ:s)
      | Ir.Cbr (c0, bt, bf) ->
          emit op_cbr ~a:(slot_of c0)
            ~b:(edge_idx ~pred:b ~succ:bt)
            ~c:(edge_idx ~pred:b ~succ:bf)
      | Ir.Ret (Some o) -> emit op_ret ~a:(slot_of o)
      | Ir.Ret None -> emit op_ret ~a:(-1)
      | Ir.Unreachable -> emit op_unreachable)
    layout;
  (* Freeze the accumulators into the parallel arrays. *)
  let nu = !n_uops in
  let code = Array.make (max nu 1) op_unreachable in
  let xa = Array.make (max nu 1) 0 in
  let xb = Array.make (max nu 1) 0 in
  let xc = Array.make (max nu 1) 0 in
  let dd = Array.make (max nu 1) 0 in
  let lt = Array.make (max nu 1) 0 in
  let k = ref nu in
  List.iter
    (fun (op, a, b, c, d, l) ->
      decr k;
      code.(!k) <- op;
      xa.(!k) <- a;
      xb.(!k) <- b;
      xc.(!k) <- c;
      dd.(!k) <- d;
      lt.(!k) <- l)
    !rev_uops;
  let ne = !n_edges in
  let e_succ = Array.make (max ne 1) 0 in
  let e_pc = Array.make (max ne 1) 0 in
  let e_cp_off = Array.make (max ne 1) 0 in
  let e_cp_len = Array.make (max ne 1) 0 in
  let e_bad = Array.make (max ne 1) "" in
  let k = ref ne in
  List.iter
    (fun (succ, off, len, bad) ->
      decr k;
      e_succ.(!k) <- succ;
      e_pc.(!k) <- bstart.(succ);
      e_cp_off.(!k) <- off;
      e_cp_len.(!k) <- len;
      e_bad.(!k) <- bad)
    !rev_edges;
  let nc = !n_cp in
  let cp_dst = Array.make (max nc 1) 0 in
  let cp_src = Array.make (max nc 1) 0 in
  let k = ref nc in
  List.iter
    (fun (d, s) ->
      decr k;
      cp_dst.(!k) <- d;
      cp_src.(!k) <- s)
    !rev_cp;
  let calls = Array.of_list (List.rev !rev_calls) in
  let m = !n_consts in
  let const_env = Array.make (max m 1) 0 in
  let const_fenv = Array.make (max m 1) 0.0 in
  let k = ref m in
  List.iter
    (fun (iv, fv) ->
      decr k;
      const_env.(!k) <- iv;
      const_fenv.(!k) <- fv)
    !rev_consts;
  {
    code;
    xa;
    xb;
    xc;
    dd;
    lt;
    bstart;
    e_succ;
    e_pc;
    e_cp_off;
    e_cp_len;
    e_bad;
    cp_dst;
    cp_src;
    scratch_i = Array.make (max !max_cp 1) 0;
    scratch_f = Array.make (max !max_cp 1) 0.0;
    scratch_r = Array.make (max !max_cp 1) 0;
    calls;
    const_env = Array.sub const_env 0 m;
    const_fenv = Array.sub const_fenv 0 m;
    n_base = n;
    n_seams = !n_seams;
  }

let decode ~tscale func : program =
  try decode_raw ~tsc:tscale func
  with
  | Decode_error _ as e -> raise e
  | e ->
      (* Anything escaping decode means this engine cannot run the
         program; wrapping it lets a supervisor distinguish "the tape
         engine choked" (fall back to the classic interpreter) from "the
         program is bad" (fail the job). *)
      raise (Decode_error (Printexc.to_string e))

(* --- per-domain decode cache ------------------------------------------- *)

type cache = {
  tbl : (string, program) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let cache_key : cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 32; hits = 0; misses = 0 })

(* A tape only references slot indices, immediates and [tscale]-scaled
   constants, so (tscale, structural signature) fully determines it —
   one decode serves every machine model and every rebuild of the same
   workload on this domain, and tapes decoded at one [tscale] are never
   served at another. *)
let max_cache_entries = 512

let get ~tscale func : program =
  let c = Domain.DLS.get cache_key in
  let key = string_of_int tscale ^ "#" ^ Ir.signature func in
  match Hashtbl.find_opt c.tbl key with
  | Some p ->
      c.hits <- c.hits + 1;
      p
  | None ->
      c.misses <- c.misses + 1;
      let p = decode ~tscale func in
      if Hashtbl.length c.tbl >= max_cache_entries then Hashtbl.reset c.tbl;
      Hashtbl.add c.tbl key p;
      p

let cache_counters () =
  let c = Domain.DLS.get cache_key in
  (c.hits, c.misses)

(* --- execution ---------------------------------------------------------- *)

let[@inline always] count_instr (s : Stats.t) =
  s.Stats.instructions <- s.Stats.instructions + 1

(* Terminators occupy a dispatch slot; branch direction is assumed
   predicted, so control does not wait on the condition's readiness. *)
let[@inline always] term_pre (st : S.t) tsc =
  count_instr st.S.stats;
  let start = S.dispatch st ~operands_ready:0 in
  S.retire st ~complete:(start + tsc)

(* Take CFG edge [e]: phi parallel copies (read-all-before-write-any via
   the program's scratch buffers), then the successor becomes current. *)
let take_edge p (st : S.t) e =
  let len = Array.unsafe_get p.e_cp_len e in
  if len <> 0 then begin
    if len < 0 then failwith p.e_bad.(e);
    let off = Array.unsafe_get p.e_cp_off e in
    let env = st.S.env and fenv = st.S.fenv and ready = st.S.ready in
    let si = p.scratch_i and sf = p.scratch_f and sr = p.scratch_r in
    let cp_src = p.cp_src and cp_dst = p.cp_dst in
    for k = 0 to len - 1 do
      let s = Array.unsafe_get cp_src (off + k) in
      Array.unsafe_set si k (Array.unsafe_get env s);
      Array.unsafe_set sf k (Array.unsafe_get fenv s);
      Array.unsafe_set sr k (Array.unsafe_get ready s)
    done;
    for k = 0 to len - 1 do
      let d = Array.unsafe_get cp_dst (off + k) in
      Array.unsafe_set env d (Array.unsafe_get si k);
      Array.unsafe_set fenv d (Array.unsafe_get sf k);
      Array.unsafe_set ready d (Array.unsafe_get sr k)
    done
  end;
  st.S.cur <- Array.unsafe_get p.e_succ e

(* Cancellation poll mask: same observable granularity as the other
   engines' run loops (a clock read every 1024th block). *)
let poll_mask = 1023

(* Execute up to [fuel] original basic blocks starting from [st.cur];
   stops early once the function returns.  Does not raise
   [Fuel_exhausted] itself — the caller checks [halted] — but replicates
   the interpreter run loop's accounting exactly: the block counter
   increments after every block (including the halting one), the cancel
   token is polled at 1024-block boundaries of {e this call}, and the
   cycle counter refreshes at every original block boundary (seams
   included), so stats-so-far at a Trap/Cancelled are bit-identical.

   The state must have been created with [extra_slots = n_extra_slots p]
   and initialized with {!init_consts}. *)
let exec ~fuel (p : program) (st : S.t) =
  if (not st.S.halted) && fuel > 0 then begin
    let code = p.code
    and xa = p.xa
    and xb = p.xb
    and xc = p.xc
    and dd = p.dd
    and lt = p.lt in
    let env = st.S.env and fenv = st.S.fenv and ready = st.S.ready in
    let stats = st.S.stats in
    let tsc = st.S.tscale in
    let steps = ref 0 in
    let pc = ref p.bstart.(st.S.cur) in
    let running = ref true in
    while !running do
      let k = !pc in
      let op = Array.unsafe_get code k in
      match op with
      | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12 ->
          (* int binop *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let start =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let va = Array.unsafe_get env sa and vb = Array.unsafe_get env sb in
          let v =
            match op with
            | 0 -> va + vb
            | 1 -> va - vb
            | 2 -> va * vb
            | 3 -> va / vb
            | 4 -> va mod vb
            | 5 -> va land vb
            | 6 -> va lor vb
            | 7 -> va lxor vb
            | 8 -> va lsl vb
            | 9 -> va lsr vb
            | 10 -> va asr vb
            | 11 -> if va < vb then va else vb
            | _ -> if va > vb then va else vb
          in
          let d = Array.unsafe_get dd k in
          Array.unsafe_set env d v;
          let c = start + Array.unsafe_get lt k in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 13 | 14 | 15 | 16 ->
          (* float binop *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let start =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let va = Array.unsafe_get fenv sa
          and vb = Array.unsafe_get fenv sb in
          let v =
            match op with
            | 13 -> va +. vb
            | 14 -> va -. vb
            | 15 -> va *. vb
            | _ -> va /. vb
          in
          let d = Array.unsafe_get dd k in
          Array.unsafe_set fenv d v;
          let c = start + Array.unsafe_get lt k in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 17 | 18 | 19 | 20 | 21 | 22 ->
          (* cmp *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let start =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let va = Array.unsafe_get env sa and vb = Array.unsafe_get env sb in
          let r =
            match op with
            | 17 -> va = vb
            | 18 -> va <> vb
            | 19 -> va < vb
            | 20 -> va <= vb
            | 21 -> va > vb
            | _ -> va >= vb
          in
          let d = Array.unsafe_get dd k in
          Array.unsafe_set env d (if r then 1 else 0);
          let c = start + tsc in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 23 | 24 | 25 | 26 ->
          (* select; variant encodes which arms write the float half *)
          count_instr stats;
          let sc = Array.unsafe_get xa k
          and sx = Array.unsafe_get xb k
          and sy = Array.unsafe_get xc k in
          let rx = Array.unsafe_get ready sx
          and ry = Array.unsafe_get ready sy in
          let r2 = if rx > ry then rx else ry in
          let rc = Array.unsafe_get ready sc in
          let start =
            S.dispatch st ~operands_ready:(if rc > r2 then rc else r2)
          in
          let d = Array.unsafe_get dd k in
          if Array.unsafe_get env sc <> 0 then begin
            Array.unsafe_set env d (Array.unsafe_get env sx);
            if op land 1 = 1 then
              Array.unsafe_set fenv d (Array.unsafe_get fenv sx)
          end
          else begin
            Array.unsafe_set env d (Array.unsafe_get env sy);
            if op land 2 = 2 then
              Array.unsafe_set fenv d (Array.unsafe_get fenv sy)
          end;
          let c = start + tsc in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 27 ->
          (* gep *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let start =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let d = Array.unsafe_get dd k in
          Array.unsafe_set env d
            (Array.unsafe_get env sa
            + (Array.unsafe_get env sb * Array.unsafe_get lt k));
          let c = start + tsc in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 28 | 29 | 30 | 31 | 32 ->
          (* load *)
          count_instr stats;
          let sa = Array.unsafe_get xa k in
          let start = S.dispatch st ~operands_ready:(Array.unsafe_get ready sa) in
          let d = Array.unsafe_get dd k in
          let c =
            S.exec_load st ~pc:d ~dst:d ~ty:(ty_of (op - 28))
              ~addr:(Array.unsafe_get env sa) ~start
          in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 33 | 34 | 35 | 36 ->
          (* int store *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sv = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rv = Array.unsafe_get ready sv in
          let start =
            S.dispatch st ~operands_ready:(if ra > rv then ra else rv)
          in
          let c =
            S.exec_store_i st ~pc:(Array.unsafe_get dd k) ~ty:(ty_of (op - 33))
              ~addr:(Array.unsafe_get env sa)
              ~v:(Array.unsafe_get env sv) ~start
          in
          S.retire st ~complete:c;
          pc := k + 1
      | 37 ->
          (* f64 store *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sv = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rv = Array.unsafe_get ready sv in
          let start =
            S.dispatch st ~operands_ready:(if ra > rv then ra else rv)
          in
          let c =
            S.exec_store_f st ~pc:(Array.unsafe_get dd k)
              ~addr:(Array.unsafe_get env sa)
              ~v:(Array.unsafe_get fenv sv) ~start
          in
          S.retire st ~complete:c;
          pc := k + 1
      | 38 ->
          (* prefetch *)
          count_instr stats;
          let sa = Array.unsafe_get xa k in
          let start = S.dispatch st ~operands_ready:(Array.unsafe_get ready sa) in
          let c =
            S.exec_prefetch st ~pc:(Array.unsafe_get dd k)
              ~addr:(Array.unsafe_get env sa) ~start
          in
          S.retire st ~complete:c;
          pc := k + 1
      | 39 ->
          (* alloc *)
          count_instr stats;
          let sa = Array.unsafe_get xa k in
          let start = S.dispatch st ~operands_ready:(Array.unsafe_get ready sa) in
          let d = Array.unsafe_get dd k in
          Array.unsafe_set env d
            (Memory.alloc st.S.mem (Array.unsafe_get env sa));
          let c = start + tsc in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 40 ->
          (* call *)
          let ci = Array.unsafe_get p.calls (Array.unsafe_get xa k) in
          count_instr stats;
          let args = ci.c_args in
          let rdy = ref 0 in
          for i = 0 to Array.length args - 1 do
            let r = Array.unsafe_get ready (Array.unsafe_get args i) in
            if r > !rdy then rdy := r
          done;
          let start = S.dispatch st ~operands_ready:!rdy in
          let argv = Array.map (fun s -> Array.unsafe_get env s) args in
          let d = ci.c_dst in
          Array.unsafe_set env d
            (S.exec_call st ~pc:ci.c_pc ~callee:ci.c_callee argv);
          let c = start + Array.unsafe_get lt k in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 41 ->
          (* param *)
          count_instr stats;
          let start = S.dispatch st ~operands_ready:0 in
          let d = Array.unsafe_get dd k in
          let c = start + tsc in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 42 | 43 | 44 | 45 | 46 ->
          (* fused gep+load: both instructions' full timing sequences *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let gstart =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let addr =
            Array.unsafe_get env sa
            + (Array.unsafe_get env sb * Array.unsafe_get lt k)
          in
          let gc = gstart + tsc in
          S.retire st ~complete:gc;
          count_instr stats;
          let start = S.dispatch st ~operands_ready:gc in
          let d = Array.unsafe_get dd k in
          let c = S.exec_load st ~pc:d ~dst:d ~ty:(ty_of (op - 42)) ~addr ~start in
          Array.unsafe_set ready d c;
          S.retire st ~complete:c;
          pc := k + 1
      | 47 | 48 | 49 | 50 ->
          (* fused gep+store (int) *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let gstart =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let addr =
            Array.unsafe_get env sa
            + (Array.unsafe_get env sb * Array.unsafe_get lt k)
          in
          let gc = gstart + tsc in
          S.retire st ~complete:gc;
          count_instr stats;
          let sv = Array.unsafe_get xc k in
          let rv = Array.unsafe_get ready sv in
          let start = S.dispatch st ~operands_ready:(if gc > rv then gc else rv) in
          let c =
            S.exec_store_i st ~pc:(Array.unsafe_get dd k) ~ty:(ty_of (op - 47))
              ~addr ~v:(Array.unsafe_get env sv) ~start
          in
          S.retire st ~complete:c;
          pc := k + 1
      | 51 ->
          (* fused gep+store (f64) *)
          count_instr stats;
          let sa = Array.unsafe_get xa k and sb = Array.unsafe_get xb k in
          let ra = Array.unsafe_get ready sa
          and rb = Array.unsafe_get ready sb in
          let gstart =
            S.dispatch st ~operands_ready:(if ra > rb then ra else rb)
          in
          let addr =
            Array.unsafe_get env sa
            + (Array.unsafe_get env sb * Array.unsafe_get lt k)
          in
          let gc = gstart + tsc in
          S.retire st ~complete:gc;
          count_instr stats;
          let sv = Array.unsafe_get xc k in
          let rv = Array.unsafe_get ready sv in
          let start = S.dispatch st ~operands_ready:(if gc > rv then gc else rv) in
          let c =
            S.exec_store_f st ~pc:(Array.unsafe_get dd k) ~addr
              ~v:(Array.unsafe_get fenv sv) ~start
          in
          S.retire st ~complete:c;
          pc := k + 1
      | 52 ->
          (* br *)
          term_pre st tsc;
          let e = Array.unsafe_get xa k in
          take_edge p st e;
          S.update_cycles st;
          incr steps;
          if !steps land poll_mask = 0 then S.poll_cancel st;
          if !steps >= fuel then running := false
          else pc := Array.unsafe_get p.e_pc e
      | 53 ->
          (* seam: a Br whose target is laid out next — same timing, same
             edge copies, same per-block accounting, but control falls
             through to the adjacent tape segment *)
          term_pre st tsc;
          take_edge p st (Array.unsafe_get xa k);
          S.update_cycles st;
          incr steps;
          if !steps land poll_mask = 0 then S.poll_cancel st;
          if !steps >= fuel then running := false else pc := k + 1
      | 54 ->
          (* cbr *)
          term_pre st tsc;
          let e =
            if Array.unsafe_get env (Array.unsafe_get xa k) <> 0 then
              Array.unsafe_get xb k
            else Array.unsafe_get xc k
          in
          take_edge p st e;
          S.update_cycles st;
          incr steps;
          if !steps land poll_mask = 0 then S.poll_cancel st;
          if !steps >= fuel then running := false
          else pc := Array.unsafe_get p.e_pc e
      | 55 ->
          (* ret *)
          term_pre st tsc;
          let sv = Array.unsafe_get xa k in
          st.S.retval <-
            (if sv >= 0 then Some (Array.unsafe_get env sv) else None);
          st.S.halted <- true;
          S.update_cycles st;
          incr steps;
          if !steps land poll_mask = 0 then S.poll_cancel st;
          running := false
      | 56 ->
          term_pre st tsc;
          failwith "Interp: reached unreachable"
      | _ -> assert false
    done
  end

(* Execute the current block only; [false] once the function returned.
   Identical protocol to the other engines' [step] — the multicore
   scheduler interleaves cores at this granularity. *)
let step (p : program) (st : S.t) =
  if st.S.halted then false
  else begin
    exec ~fuel:1 p st;
    not st.S.halted
  end
