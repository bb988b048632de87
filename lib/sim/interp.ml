module Ir = Spf_ir.Ir
module S = Exec_state

(* IR execution with a dataflow timing model.

   Functional execution and timing are computed together: every SSA value
   carries a ready-time alongside its contents, and every memory operation
   consults the {!Memsys} model.  Two core models share the machinery:

   - {e out-of-order}: instructions dispatch in order at the machine's
     width, bounded by a reorder buffer (an instruction cannot dispatch
     until the instruction [rob] slots earlier has retired); execution
     starts when operands are ready; retirement is in order.  Independent
     load misses therefore overlap up to the ROB/MSHR limits, which is why
     software prefetching buys little on Haswell/A57 but still helps.

   - {e in-order}: instructions issue strictly in order and stall until
     their operands are ready; demand misses are additionally serialised
     through [demand_slots] (1 on A53/Phi, per the paper's "stalls on load
     misses").  Software prefetches never stall, which is where the large
     in-order speedups come from.

   The state and the timing/memory helpers live in {!Exec_state}; two
   engines drive them (selected per instance, see {!Engine}):

   - the {e classic} engine below walks [Ir.instr] records and
     pattern-matches every dynamic instruction — the reference
     semantics;
   - the {e tape} engine ({!Tape}, the default) decodes each function
     once into contiguous struct-of-arrays micro-ops and the hot loop is
     a direct match on an unboxed opcode.

   The two are bit-identical — pinned by the golden suite and the
   cross-engine fuzz oracle. *)

let default_tscale = S.default_tscale

type fault = S.fault = { pc : int; addr : int; width : int; is_store : bool }

exception Trap = S.Trap

exception Fuel_exhausted = S.Fuel_exhausted

exception Cancelled = S.Cancelled

type cancel = S.cancel

let new_cancel = S.new_cancel
let fault_to_string = S.fault_to_string

(* Parallel phi copies for one CFG edge, precomputed at {!create} so the
   hot loop never consults a hash table or assoc list.  The scratch
   buffers ([iv]/[fv]/[rd]) implement read-all-before-write-any without
   allocating on every edge traversal. *)
type edge =
  | No_copies
  | Copies of {
      dsts : int array;
      srcs : Ir.operand array;
      iv : int array;
      fv : float array;
      rd : int array;
    }
  | Bad_phi of string
      (* a phi in the successor lacks this edge; the error is raised only
         if the edge is actually taken, matching the old lazy behaviour *)

type classic = {
  blocks : Ir.instr array array; (* per block: non-phi instructions *)
  terms : Ir.terminator array;
  edges : edge array; (* (pred * nblocks + succ) -> phi parallel copies *)
}

type impl = Classic of classic | Tape of Tape.program

type t = {
  st : S.t;
  impl : impl;
  call_sites : (int * string) list; (* (call instr id, callee name) *)
}

let build_classic func : classic =
  let nb = Ir.n_blocks func in
  let blocks =
    Array.init nb (fun b ->
        let ids = (Ir.block func b).Ir.instrs in
        let non_phi =
          Array.to_list ids
          |> List.filter_map (fun id ->
                 let i = Ir.instr func id in
                 match i.Ir.kind with Ir.Phi _ -> None | _ -> Some i)
        in
        Array.of_list non_phi)
  in
  let terms = Array.init nb (fun b -> (Ir.block func b).Ir.term) in
  let edges = Array.make (nb * nb) No_copies in
  Array.iteri
    (fun pred term ->
      List.iter
        (fun succ ->
          edges.((pred * nb) + succ) <-
            (match S.phi_copies func ~pred ~succ with
            | S.No_copies -> No_copies
            | S.Bad_edge msg -> Bad_phi msg
            | S.Copies { dsts; srcs } ->
                let m = Array.length dsts in
                Copies
                  {
                    dsts;
                    srcs;
                    iv = Array.make m 0;
                    fv = Array.make m 0.0;
                    rd = Array.make m 0;
                  }))
        (Ir.successors term))
    terms;
  { blocks; terms; edges }

let create ~machine ?(tscale = default_tscale) ?dram ?stats ?cancel ?attrib
    ?tuner ?(engine = Engine.default) ~mem ~args func =
  let dram =
    match dram with
    | Some d -> d
    | None -> Dram.create machine.Machine.dram ~tscale
  in
  (* The tape is decoded before the state exists: its constant-slot count
     sizes the value arrays ([extra_slots]), and the slots' values are
     written right after creation. *)
  let tape =
    match engine with
    | Engine.Tape -> Some (Tape.get ~tscale func)
    | Engine.Interp -> None
  in
  let extra_slots =
    match tape with Some p -> Tape.n_extra_slots p | None -> 0
  in
  let st =
    S.create ~machine ~tscale ~dram ?stats ?cancel ?attrib ?tuner ~extra_slots
      ~mem ~args func
  in
  (match tape with Some p -> Tape.init_consts p st | None -> ());
  (* Call sites, so intrinsics resolve into a per-instruction array at
     registration time instead of a Hashtbl probe per dynamic call. *)
  let call_sites =
    Array.fold_left
      (fun acc (b : Ir.block) ->
        Array.fold_left
          (fun acc id ->
            let i = Ir.instr func id in
            match i.Ir.kind with
            | Ir.Call { callee; _ } -> (i.Ir.id, callee) :: acc
            | _ -> acc)
          acc b.Ir.instrs)
      [] func.Ir.blocks
  in
  let impl =
    match tape with Some p -> Tape p | None -> Classic (build_classic func)
  in
  { st; impl; call_sites }

let register_intrinsic t name fn =
  List.iter
    (fun (id, callee) ->
      if String.equal callee name then t.st.S.call_fns.(id) <- Some fn)
    t.call_sites

(* --- the classic engine ------------------------------------------------ *)

let srcs_ready st (k : Ir.kind) =
  match k with
  | Ir.Binop (_, a, b) | Ir.Cmp (_, a, b) | Ir.Store (_, a, b) ->
      S.imax (S.rtime st a) (S.rtime st b)
  | Ir.Select (c, a, b) ->
      S.imax (S.rtime st c) (S.imax (S.rtime st a) (S.rtime st b))
  | Ir.Load (_, a) | Ir.Prefetch a | Ir.Alloc a -> S.rtime st a
  | Ir.Gep { base; index; _ } -> S.imax (S.rtime st base) (S.rtime st index)
  | Ir.Call { args; _ } ->
      List.fold_left (fun m a -> S.imax m (S.rtime st a)) 0 args
  | Ir.Phi _ | Ir.Param _ -> 0

let exec_binop st op x y dst =
  match op with
  | Ir.Add -> st.S.env.(dst) <- S.ival st x + S.ival st y
  | Ir.Sub -> st.S.env.(dst) <- S.ival st x - S.ival st y
  | Ir.Mul -> st.S.env.(dst) <- S.ival st x * S.ival st y
  | Ir.Sdiv -> st.S.env.(dst) <- S.ival st x / S.ival st y
  | Ir.Srem -> st.S.env.(dst) <- S.ival st x mod S.ival st y
  | Ir.And -> st.S.env.(dst) <- S.ival st x land S.ival st y
  | Ir.Or -> st.S.env.(dst) <- S.ival st x lor S.ival st y
  | Ir.Xor -> st.S.env.(dst) <- S.ival st x lxor S.ival st y
  | Ir.Shl -> st.S.env.(dst) <- S.ival st x lsl S.ival st y
  | Ir.Lshr -> st.S.env.(dst) <- S.ival st x lsr S.ival st y
  | Ir.Ashr -> st.S.env.(dst) <- S.ival st x asr S.ival st y
  | Ir.Smin -> st.S.env.(dst) <- min (S.ival st x) (S.ival st y)
  | Ir.Smax -> st.S.env.(dst) <- max (S.ival st x) (S.ival st y)
  | Ir.Fadd -> st.S.fenv.(dst) <- S.fval st x +. S.fval st y
  | Ir.Fsub -> st.S.fenv.(dst) <- S.fval st x -. S.fval st y
  | Ir.Fmul -> st.S.fenv.(dst) <- S.fval st x *. S.fval st y
  | Ir.Fdiv -> st.S.fenv.(dst) <- S.fval st x /. S.fval st y

let eval_cmp pred (a : int) (b : int) =
  match pred with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Slt -> a < b
  | Ir.Sle -> a <= b
  | Ir.Sgt -> a > b
  | Ir.Sge -> a >= b

let exec_instr st (i : Ir.instr) =
  st.S.stats.Stats.instructions <- st.S.stats.Stats.instructions + 1;
  let start = S.dispatch st ~operands_ready:(srcs_ready st i.Ir.kind) in
  let dst = i.Ir.id in
  let complete =
    match i.Ir.kind with
    | Ir.Binop (op, x, y) ->
        exec_binop st op x y dst;
        start + (S.binop_latency op * st.S.tscale)
    | Ir.Cmp (pred, x, y) ->
        st.S.env.(dst) <-
          (if eval_cmp pred (S.ival st x) (S.ival st y) then 1 else 0);
        start + st.S.tscale
    | Ir.Select (c, x, y) ->
        let pick = if S.ival st c <> 0 then x else y in
        st.S.env.(dst) <- S.ival st pick;
        (match pick with
        | Ir.Var id -> st.S.fenv.(dst) <- st.S.fenv.(id)
        | Ir.Fimm f -> st.S.fenv.(dst) <- f
        | Ir.Imm _ -> ());
        start + st.S.tscale
    | Ir.Gep { base; index; scale } ->
        st.S.env.(dst) <- S.ival st base + (S.ival st index * scale);
        start + st.S.tscale
    | Ir.Load (ty, a) ->
        S.exec_load st ~pc:dst ~dst ~ty ~addr:(S.ival st a) ~start
    | Ir.Store (Ir.F64, a, v) ->
        S.exec_store_f st ~pc:dst ~addr:(S.ival st a) ~v:(S.fval st v) ~start
    | Ir.Store (ty, a, v) ->
        S.exec_store_i st ~pc:dst ~ty ~addr:(S.ival st a) ~v:(S.ival st v)
          ~start
    | Ir.Prefetch a -> S.exec_prefetch st ~pc:dst ~addr:(S.ival st a) ~start
    | Ir.Alloc sz ->
        st.S.env.(dst) <- Memory.alloc st.S.mem (S.ival st sz);
        start + st.S.tscale
    | Ir.Call { callee; args; _ } ->
        st.S.env.(dst) <-
          S.exec_call st ~pc:dst ~callee
            (Array.of_list (List.map (S.ival st) args));
        start + (10 * st.S.tscale)
    | Ir.Param k ->
        ignore k;
        start + st.S.tscale
    | Ir.Phi _ -> (* executed on edges *) start
  in
  if Ir.defines_value i.Ir.kind then st.S.ready.(dst) <- complete;
  S.retire st ~complete

(* Execute the precomputed phi parallel copies of edge (pred, succ):
   read every source into the edge's scratch buffers, then write every
   destination (read-all-before-write-any). *)
let take_edge (c : classic) st ~pred ~succ =
  (match c.edges.((pred * Array.length c.blocks) + succ) with
  | No_copies -> ()
  | Bad_phi msg -> failwith msg
  | Copies { dsts; srcs; iv; fv; rd } ->
      let n = Array.length dsts in
      for k = 0 to n - 1 do
        let src = srcs.(k) in
        iv.(k) <- S.ival st src;
        (match src with
        | Ir.Var id -> fv.(k) <- st.S.fenv.(id)
        | Ir.Fimm f -> fv.(k) <- f
        | Ir.Imm _ -> fv.(k) <- 0.0);
        rd.(k) <- S.rtime st src
      done;
      for k = 0 to n - 1 do
        let dst = dsts.(k) in
        st.S.env.(dst) <- iv.(k);
        st.S.fenv.(dst) <- fv.(k);
        st.S.ready.(dst) <- rd.(k)
      done);
  st.S.cur <- succ

(* Execute the current block (non-phi instructions plus terminator);
   returns [false] once the function has returned. *)
let step_classic (c : classic) st =
  if st.S.halted then false
  else begin
    let instrs = c.blocks.(st.S.cur) in
    for k = 0 to Array.length instrs - 1 do
      exec_instr st instrs.(k)
    done;
    (* Terminators occupy a dispatch slot; branch direction is assumed
       predicted, so control does not wait on the condition's readiness. *)
    st.S.stats.Stats.instructions <- st.S.stats.Stats.instructions + 1;
    let start = S.dispatch st ~operands_ready:0 in
    S.retire st ~complete:(start + st.S.tscale);
    (match c.terms.(st.S.cur) with
    | Ir.Br succ -> take_edge c st ~pred:st.S.cur ~succ
    | Ir.Cbr (cond, bt, bf) ->
        let succ = if S.ival st cond <> 0 then bt else bf in
        take_edge c st ~pred:st.S.cur ~succ
    | Ir.Ret v ->
        st.S.retval <- Option.map (S.ival st) v;
        st.S.halted <- true
    | Ir.Unreachable -> failwith "Interp: reached unreachable");
    S.update_cycles st;
    not st.S.halted
  end

(* --- engine dispatch --------------------------------------------------- *)

let step t =
  match t.impl with
  | Classic c -> step_classic c t.st
  | Tape p -> Tape.step p t.st

(* Cancellation poll mask: the engines check the token every [poll_mask
   + 1] blocks, so supervision costs one land+branch per block and a
   clock read only every 1024th. *)
let poll_mask = 1023

let run ?(fuel = max_int) t =
  let steps = ref 0 in
  (match t.impl with
  | Classic c ->
      let st = t.st in
      while (not st.S.halted) && !steps < fuel do
        ignore (step_classic c st);
        incr steps;
        if !steps land poll_mask = 0 then S.poll_cancel st
      done
  | Tape p ->
      (* The tape engine keeps its own block counter inside one flat
         dispatch loop, with the same fuel/poll accounting as above. *)
      Tape.exec ~fuel p t.st);
  if not t.st.S.halted then raise Fuel_exhausted

let poll_cancel t = S.poll_cancel t.st
let release t = Memsys.release t.st.S.memsys

let stats t = t.st.S.stats
let cycles t = t.st.S.stats.Stats.cycles
let retval t = t.st.S.retval
let time t = S.time t.st
let halted t = t.st.S.halted
let memory t = t.st.S.mem
