module Ir = Spf_ir.Ir
module Cfg = Spf_ir.Cfg
module Dom = Spf_ir.Dom
module Loops = Spf_ir.Loops

(* Lockstep symbolic execution of an original function and its
   pass-transformed twin, proving they agree on all observable behaviour
   — demand loads/stores, calls, return values — modulo prefetch
   instructions (which never fault) and the pass's inserted look-ahead
   loads (which must be proved to stay inside addresses the original
   itself touches; see the obligation discharge below).

   Shape of the argument:

   - Both functions must share the CFG skeleton (the pass only inserts
     and deletes straight-line instructions).  The checker walks both
     programs block by block along the same path.
   - Values are {!Term}s over shared symbols: parameters, matched call
     results, and the widened loop-carried values introduced at loop
     headers.  Two observables agree when their terms are equal.
   - Loops are not unrolled.  The first arrival at a loop header
     {e widens} it: every loop-carried value is replaced by a fresh
     symbol shared between the two sides (sound because the closing
     head arrival verifies both sides compute equal next-iteration
     values — the inductive step), memory is havocked over the loop's
     statically-collected store regions, and the sound invariant
     [iv >= v0] is assumed for induction variables whose latch update
     is a non-negative constant step.  One widened body iteration closes
     the induction; the exit arm continues with the negated head
     condition.
   - Memory is a write-version counter plus a log of (version, address,
     region) entries.  A load yields the opaque term
     [mem_v\[addr\]], where [v] is {e canonicalized} to the oldest
     version not separated from the present by a possibly-aliasing
     write.  Matched stores keep both sides' logs identical, so matched
     loads get equal terms without store-to-load forwarding.  Distinct
     function parameters (and distinct allocations) are assumed to
     address disjoint regions — exactly the aliasing model
     [Safety.vet]'s store-alias filter already relies on.
   - Transformed-side extra loads (the §4.2 look-ahead clones) raise a
     proof obligation: the address must be one the original itself
     demand-accesses, given that the original completes trap-free.
     Discharge is by direct membership in this path's observed access
     set, or by loop-footprint coverage: the original unconditionally
     accesses [A(iv)] for every [iv] in [v0, bound), so it suffices to
     exhibit [U] with [addr = A(U)] and [v0 <= U <= hi] — which the
     {!Prove} entailment checker establishes from the path facts and the
     clamp's min/max structure.

   The checker returns [Proved], a [Mismatch] carrying the first failed
   check (which the caller must confirm concretely before calling it a
   counterexample), or [Gave_up]. *)

(* Search budgets: the path and step counts past which the checker
   gives up. *)
let max_paths = 4096
let max_steps = 200_000

type result =
  | Proved of { paths : int; obligations : int }
  | Mismatch of string
  | Gave_up of string

exception Give_up of string
exception Found_mismatch of string

let give_up fmt = Printf.ksprintf (fun s -> raise (Give_up s)) fmt
let mismatch fmt = Printf.ksprintf (fun s -> raise (Found_mismatch s)) fmt

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

(* A region is the set of base symbols an address may be derived from;
   [None] is "unknown — may alias anything". *)
type region = int list option

let region_union a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> Some (List.sort_uniq Stdlib.compare (x @ y))

let regions_may_overlap a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some x, Some y -> List.exists (fun i -> List.mem i y) x

(* ------------------------------------------------------------------ *)
(* Static analysis of the original function                            *)
(* ------------------------------------------------------------------ *)

type cond_info = {
  ci_pid : int;  (** the header phi compared in the head condition *)
  ci_pred : Ir.cmp;  (** Slt or Sle, phi on the left *)
  ci_bound : Ir.operand;
  ci_body_true : bool;  (** the in-loop arm is the true arm *)
}

type chase_static = {
  ch_phi : int;  (** the null-tested pointer phi *)
  ch_offsets : (int * int) list;
      (** (offset, width) accesses off the phi, once per iteration *)
  ch_next : int;  (** offset of the field whose value becomes the next node *)
}

type linfo = {
  li_loop : Loops.loop;
  li_steps : (int * int) list;  (** header phi id -> constant latch step *)
  li_cond : cond_info option;
  li_chase : chase_static option;
  li_uncond : bool array;
      (** blocks executing exactly once per iteration: members whose
          innermost loop is this one and which dominate every latch *)
  li_stores_present : bool;
  li_store_regions : region;
  li_header_exits_only : bool;
}

type static = {
  cfg : Cfg.t;
  dom : Dom.t;
  loops : Loops.t;
  linfos : (int * linfo) list;  (** header bid -> info *)
  has_alloc : bool;
  has_store : bool;  (** any store or impure call anywhere in the function *)
  nparams : int;
}

let header_phis (f : Ir.func) bid =
  Array.to_list (Ir.block f bid).Ir.instrs
  |> List.filter_map (fun id ->
         let i = Ir.instr f id in
         match i.Ir.kind with Ir.Phi inc -> Some (id, inc) | _ -> None)

let rec static_region (f : Ir.func) (op : Ir.operand) depth : region =
  if depth <= 0 then None
  else
    match op with
    | Ir.Imm _ | Ir.Fimm _ -> None
    | Ir.Var id -> (
        match (Ir.instr f id).Ir.kind with
        | Ir.Param k -> Some [ k ]
        | Ir.Gep { base; _ } -> static_region f base (depth - 1)
        | _ -> None)

let analyze_loop f (st_cfg : Cfg.t) dom loops (l : Loops.loop) =
  let phis = header_phis f l.Loops.header in
  let steps =
    match l.Loops.latches with
    | [ latch ] ->
        List.filter_map
          (fun (pid, inc) ->
            match List.assoc_opt latch inc with
            | Some (Ir.Var u) -> (
                match (Ir.instr f u).Ir.kind with
                | Ir.Binop (Ir.Add, Ir.Var p, Ir.Imm c)
                | Ir.Binop (Ir.Add, Ir.Imm c, Ir.Var p)
                  when p = pid && c >= 0 ->
                    Some (pid, c)
                | _ -> None)
            | _ -> None)
          phis
    | _ -> []
  in
  let cond =
    match (Ir.block f l.Loops.header).Ir.term with
    | Ir.Cbr (Ir.Var cid, t, fl) -> (
        match (Ir.instr f cid).Ir.kind with
        | Ir.Cmp ((Ir.Slt | Ir.Sle) as pred, Ir.Var p, bound)
          when List.mem_assoc p phis ->
            let t_in = Loops.contains l t and f_in = Loops.contains l fl in
            if t_in && not f_in then
              Some { ci_pid = p; ci_pred = pred; ci_bound = bound; ci_body_true = true }
            else None
        | _ -> None)
    | _ -> None
  in
  let uncond = Array.make (Ir.n_blocks f) false in
  Array.iteri
    (fun bid inl ->
      if
        inl
        && Loops.innermost loops bid = Some l.Loops.index
        && List.for_all (fun latch -> Dom.dominates dom bid latch) l.Loops.latches
      then uncond.(bid) <- true)
    l.Loops.member;
  let stores_present = ref false in
  let store_regions = ref (Some []) in
  Ir.iter_instrs f (fun i ->
      if Loops.contains l i.Ir.block then
        match i.Ir.kind with
        | Ir.Store (_, addr, _) ->
            stores_present := true;
            store_regions := region_union !store_regions (static_region f addr 8)
        | Ir.Call { pure = false; _ } ->
            stores_present := true;
            store_regions := None
        | _ -> ());
  let header_exits_only =
    List.for_all (fun (src, _) -> src = l.Loops.header) (Loops.exit_edges st_cfg l)
  in
  (* Pointer-chase shape: `while (node != 0) { ... node = node->next }`.
     The per-iteration accesses at constant offsets off the node phi are
     what a staggered manual prefetch chain re-executes speculatively. *)
  let chase =
    (* Constant offset of an address operand relative to the phi [p]. *)
    let rel_off p (op : Ir.operand) =
      match op with
      | Ir.Var v when v = p -> Some 0
      | Ir.Var v -> (
          match (Ir.instr f v).Ir.kind with
          | Ir.Gep { base = Ir.Var b; index = Ir.Imm k; scale } when b = p ->
              Some (k * scale)
          | _ -> None)
      | _ -> None
    in
    match ((Ir.block f l.Loops.header).Ir.term, l.Loops.latches) with
    | Ir.Cbr (Ir.Var cid, t, fl), [ latch ] -> (
        match (Ir.instr f cid).Ir.kind with
        | Ir.Cmp (Ir.Ne, Ir.Var p, Ir.Imm 0)
          when List.mem_assoc p phis
               && Loops.contains l t
               && not (Loops.contains l fl) -> (
            let offsets = ref [] in
            Ir.iter_instrs f (fun i ->
                if uncond.(i.Ir.block) then
                  match i.Ir.kind with
                  | Ir.Load (ty, a) | Ir.Store (ty, a, _) -> (
                      match rel_off p a with
                      | Some o -> offsets := (o, Ir.size_of_ty ty) :: !offsets
                      | None -> ())
                  | _ -> ());
            match List.assoc_opt latch (List.assoc p phis) with
            | Some (Ir.Var u) -> (
                match (Ir.instr f u).Ir.kind with
                | Ir.Load (_, a) when uncond.(( Ir.instr f u).Ir.block) -> (
                    match rel_off p a with
                    | Some o ->
                        Some { ch_phi = p; ch_offsets = !offsets; ch_next = o }
                    | None -> None)
                | _ -> None)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  {
    li_loop = l;
    li_steps = steps;
    li_cond = cond;
    li_chase = chase;
    li_uncond = uncond;
    li_stores_present = !stores_present;
    li_store_regions = !store_regions;
    li_header_exits_only = header_exits_only;
  }

let analyze (f : Ir.func) =
  let cfg = Cfg.build f in
  let dom = Dom.build cfg in
  let loops = Loops.analyze f cfg dom in
  let linfos =
    Array.to_list (Loops.loops loops)
    |> List.map (fun l -> (l.Loops.header, analyze_loop f cfg dom loops l))
  in
  let has_alloc = ref false and has_store = ref false in
  Ir.iter_instrs f (fun i ->
      match i.Ir.kind with
      | Ir.Alloc _ -> has_alloc := true
      | Ir.Store _ | Ir.Call { pure = false; _ } -> has_store := true
      | _ -> ());
  {
    cfg;
    dom;
    loops;
    linfos;
    has_alloc = !has_alloc;
    has_store = !has_store;
    nparams = Array.length f.Ir.param_ids;
  }

(* The pass only inserts/deletes straight-line instructions; both
   functions must share block structure and terminator shape. *)
let check_skeleton (o : Ir.func) (x : Ir.func) =
  if Ir.n_blocks o <> Ir.n_blocks x then give_up "block structure differs";
  if o.Ir.entry <> x.Ir.entry then give_up "entry block differs";
  for bid = 0 to Ir.n_blocks o - 1 do
    let to_ = (Ir.block o bid).Ir.term and tx = (Ir.block x bid).Ir.term in
    let same =
      match (to_, tx) with
      | Ir.Br a, Ir.Br b -> a = b
      | Ir.Cbr (_, a, b), Ir.Cbr (_, a', b') -> a = a' && b = b'
      | Ir.Ret None, Ir.Ret None -> true
      | Ir.Ret (Some _), Ir.Ret (Some _) -> true
      | Ir.Unreachable, Ir.Unreachable -> true
      | _ -> false
    in
    if not same then give_up "terminator structure differs at bb%d" bid
  done

(* ------------------------------------------------------------------ *)
(* Path state                                                          *)
(* ------------------------------------------------------------------ *)

type mentry =
  | Mstore of { ver : int; addr : Term.t; width : int; region : region }
  | Mhavoc of { ver : int; region : region }

type event =
  | Eload of { pc : int; ty : Ir.ty; addr : Term.t; value : Term.t }
  | Estore of { pc : int; ty : Ir.ty; addr : Term.t; value : Term.t }
  | Eprefetch
  | Ecall of { pc : int; callee : string; args : Term.t list; pure : bool }
  | Ealloc of { pc : int; size : Term.t }

type coverage = { cov_iv_sym : int; cov_lo : Term.t; cov_hi : Term.t }

(* One pointer-chase family recorded against an enclosing widened loop:
   at iteration [iv], the original enters a null-tested walk whose first
   node is [ch_entry] (a term over the loop's iv symbol) and, for every
   non-null node it reaches, accesses the node's [ch_offs] fields — the
   [ch_nexto] field's value being the next node.  Recorded only in
   store-free, alloc-free functions (node values must be stable) and
   discharged together with the null-page invariant (addresses below
   4096 are always mapped). *)
type chase = { ch_entry : Term.t; ch_offs : (int * int) list; ch_nexto : int }

type ctx = {
  cx_header : int;
  cx_loop : Loops.loop;
  cx_uncond : bool array;
  cx_cov : coverage option;
  cx_armed : bool;  (** widened, header terminator not yet taken *)
  cx_nbase : int;  (** fork count at which uniform candidates are valid *)
  cx_cands : (Term.t * int) list;  (** iteration-uniform access terms *)
  cx_chases : chase list;
}

type path = {
  p_bid : int;
  p_pred : int;
  p_env_o : Term.t option array;
  p_env_x : Term.t option array;
  p_facts : Term.t list;
  p_ver : int;
  p_log : mentry list;  (** newest first *)
  p_ctxs : ctx list;  (** innermost first *)
  p_nforks : int;
  p_seen : (Term.t * int) list;  (** original-side demand accesses so far *)
  p_oblig : (int * Term.t * int) list;
      (** pending look-ahead obligations: (pc, addr, width) *)
}

type shared = {
  s_orig : Ir.func;
  s_xform : Ir.func;
  s_static : static;
  s_cancel : Spf_sim.Exec_state.cancel option;
  mutable s_fresh : int;
  s_regions : (int, unit) Hashtbl.t;  (** region-tagged symbol ids *)
  mutable s_paths : int;
  mutable s_steps : int;
  mutable s_obligations : int;
}

let fresh sh =
  let i = sh.s_fresh in
  sh.s_fresh <- i + 1;
  i

let term_region sh t : region =
  let syms =
    List.filter_map
      (fun (i, _) -> if Hashtbl.mem sh.s_regions i then Some i else None)
      (Term.top_syms t)
  in
  match syms with [] -> None | l -> Some l

let entry_may_alias sh entry ~addr ~width ~region =
  match entry with
  | Mhavoc { region = r; _ } -> regions_may_overlap r region
  | Mstore { addr = sa; width = sw; region = sr; _ } ->
      if not (regions_may_overlap sr region) then false
      else (
        match Term.as_const (Term.sub addr sa) with
        | Some d -> not (d >= sw || -d >= width)
        | None -> ignore sh; true)

(* Oldest version not separated from [entries @ log]'s present by a
   possibly-aliasing write. *)
let canonical_ver sh ~local ~log ~addr ~width =
  let region = term_region sh addr in
  let rec scan = function
    | [] -> 0
    | e :: rest ->
        if entry_may_alias sh e ~addr ~width ~region then
          (match e with Mstore { ver; _ } | Mhavoc { ver; _ } -> ver)
        else scan rest
  in
  match scan local with 0 -> scan log | v -> v

(* ------------------------------------------------------------------ *)
(* Per-side block execution                                            *)
(* ------------------------------------------------------------------ *)

type side_result = {
  r_events : event list;  (** in execution order *)
  r_stores : mentry list;  (** newest first, versions above the shared base *)
}

let eval_operand env (op : Ir.operand) =
  match op with
  | Ir.Imm i -> Term.of_int i
  | Ir.Fimm f -> Term.fconst f
  | Ir.Var id -> (
      match env.(id) with
      | Some t -> t
      | None -> give_up "use of undefined value %%%d" id)

(* Execute the non-phi instructions of block [bid] on one side.
   [call_syms]/[alloc_syms] are filled by the original side and consumed
   by the transformed side so matched calls/allocs share result
   symbols. *)
let exec_side sh (f : Ir.func) env ~bid ~ver ~log ~call_syms ~alloc_syms
    ~is_orig =
  let events = ref [] and local = ref [] in
  let ncalls = ref 0 and nallocs = ref 0 in
  let emit e = events := e :: !events in
  Array.iter
    (fun id ->
      let i = Ir.instr f id in
      let ev op = eval_operand env op in
      match i.Ir.kind with
      | Ir.Phi _ -> ()
      | Ir.Param k -> env.(id) <- Some (Term.sym k)
      | Ir.Binop (op, a, b) -> (
          match Term.binop op (ev a) (ev b) with
          | t -> env.(id) <- Some t
          | exception Term.Symbolic_division ->
              give_up "sdiv/srem with symbolic or zero divisor at pc %d" id)
      | Ir.Cmp (p, a, b) -> env.(id) <- Some (Term.cmp p (ev a) (ev b))
      | Ir.Select (c, a, b) -> env.(id) <- Some (Term.select (ev c) (ev a) (ev b))
      | Ir.Gep { base; index; scale } ->
          env.(id) <- Some (Term.add (ev base) (Term.mul_const scale (ev index)))
      | Ir.Load (ty, a) ->
          let addr = ev a in
          let width = Ir.size_of_ty ty in
          let cver = canonical_ver sh ~local:!local ~log ~addr ~width in
          let value = Term.read ~ver:cver ~addr ~ty in
          env.(id) <- Some value;
          emit (Eload { pc = id; ty; addr; value })
      | Ir.Store (ty, a, v) ->
          let addr = ev a and value = ev v in
          let width = Ir.size_of_ty ty in
          emit (Estore { pc = id; ty; addr; value });
          local :=
            Mstore
              {
                ver = ver + List.length !local + 1;
                addr;
                width;
                region = term_region sh addr;
              }
            :: !local
      | Ir.Call { callee; args; pure } ->
          let args = List.map ev args in
          if pure then
            (* Uninterpreted function application: a pass-inserted pure
               look-ahead call is provably equal to the demand call it
               clones whenever the arguments are, with no event to
               align and no memory effect. *)
            env.(id) <- Some (Term.call callee args)
          else begin
            (* Impure calls are observables, matched positionally: the
               k-th call on each side shares a result symbol. *)
            let s =
              if is_orig then begin
                let s = fresh sh in
                call_syms := !call_syms @ [ s ];
                s
              end
              else begin
                let k = !ncalls in
                match List.nth_opt !call_syms k with
                | Some s -> s
                | None -> fresh sh
              end
            in
            incr ncalls;
            env.(id) <- Some (Term.sym s);
            emit (Ecall { pc = id; callee; args; pure });
            local :=
              Mhavoc { ver = ver + List.length !local + 1; region = None }
              :: !local
          end
      | Ir.Alloc size_op ->
          let size = ev size_op in
          let s =
            if is_orig then begin
              let s = fresh sh in
              Hashtbl.replace sh.s_regions s ();
              alloc_syms := !alloc_syms @ [ s ];
              s
            end
            else begin
              let k = !nallocs in
              match List.nth_opt !alloc_syms k with
              | Some s -> s
              | None ->
                  let s = fresh sh in
                  Hashtbl.replace sh.s_regions s ();
                  s
            end
          in
          incr nallocs;
          env.(id) <- Some (Term.sym s);
          emit (Ealloc { pc = id; size })
      | Ir.Prefetch _ -> emit Eprefetch)
    (Ir.block f bid).Ir.instrs;
  { r_events = List.rev !events; r_stores = !local }

(* ------------------------------------------------------------------ *)
(* Event alignment and obligations                                     *)
(* ------------------------------------------------------------------ *)

let demand_access = function
  | Eload { addr; ty; _ } | Estore { addr; ty; _ } -> Some (addr, Ir.size_of_ty ty)
  | _ -> None

let events_equal a b =
  match (a, b) with
  | Eload l1, Eload l2 ->
      l1.ty = l2.ty && Term.equal l1.addr l2.addr && Term.equal l1.value l2.value
  | Estore s1, Estore s2 ->
      s1.ty = s2.ty && Term.equal s1.addr s2.addr && Term.equal s1.value s2.value
  | Ecall c1, Ecall c2 ->
      c1.callee = c2.callee && c1.pure = c2.pure
      && List.length c1.args = List.length c2.args
      && List.for_all2 Term.equal c1.args c2.args
  | Ealloc a1, Ealloc a2 -> Term.equal a1.size a2.size
  | _ -> false

(* Longest matching alignment (classic LCS over the two short per-block
   event lists), returning each side's unmatched events. *)
let align_events os xs =
  let o = Array.of_list os and x = Array.of_list xs in
  let n = Array.length o and m = Array.length x in
  let tbl = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      tbl.(i).(j) <-
        (if events_equal o.(i) x.(j) then 1 + tbl.(i + 1).(j + 1)
         else max tbl.(i + 1).(j) tbl.(i).(j + 1))
    done
  done;
  let un_o = ref [] and un_x = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < n && !j < m do
    if events_equal o.(!i) x.(!j) then (incr i; incr j)
    else if tbl.(!i + 1).(!j) >= tbl.(!i).(!j + 1) then begin
      un_o := o.(!i) :: !un_o;
      incr i
    end
    else begin
      un_x := x.(!j) :: !un_x;
      incr j
    end
  done;
  while !i < n do un_o := o.(!i) :: !un_o; incr i done;
  while !j < m do un_x := x.(!j) :: !un_x; incr j done;
  (List.rev !un_o, List.rev !un_x)

let event_desc = function
  | Eload { pc; addr; _ } ->
      Printf.sprintf "load at pc %d, addr %s" pc (Term.to_string addr)
  | Estore { pc; addr; _ } ->
      Printf.sprintf "store at pc %d, addr %s" pc (Term.to_string addr)
  | Ecall { pc; callee; _ } -> Printf.sprintf "call %s at pc %d" callee pc
  | Ealloc { pc; _ } -> Printf.sprintf "alloc at pc %d" pc
  | Eprefetch -> "prefetch"

(* Prove that a transformed-side extra load touches only addresses the
   original demand-accesses (given it completes trap-free).  Returns
   [false] when unproved — the caller keeps the obligation pending and
   retries as the path accumulates more coverage (a chase family is only
   recorded once the walk loop it describes is reached). *)
let try_discharge sh p ~addr ~width ~pc =
  ignore pc;
  (not sh.s_static.has_alloc)
  &&
  let direct =
    List.exists
      (fun (a, w) -> width <= w && Term.equal a addr)
      p.p_seen
  in
  let by_coverage () =
    List.exists
      (fun cx ->
        match cx.cx_cov with
        | None -> false
        | Some cov ->
            List.exists
              (fun (cand, w) ->
                width <= w
                &&
                match Term.unify ~pat:cand ~target:addr ~var:cov.cov_iv_sym with
                | None -> false
                | Some u ->
                    Prove.prove_ge0 ~facts:p.p_facts (Term.sub u cov.cov_lo)
                    && Prove.prove_ge0 ~facts:p.p_facts
                         (Term.sub cov.cov_hi u))
              cx.cx_cands)
      p.p_ctxs
  in
  (* Chase coverage: [addr = N + o] where [N] is a chain-node value the
     original provably walks at some covered iteration (or null, in
     which case the address lands in the always-mapped null page). *)
  let by_chase () =
    List.exists
      (fun cx ->
        match cx.cx_cov with
        | None -> false
        | Some cov ->
            let in_range u =
              Prove.prove_ge0 ~facts:p.p_facts (Term.sub u cov.cov_lo)
              && Prove.prove_ge0 ~facts:p.p_facts (Term.sub cov.cov_hi u)
            in
            List.exists
              (fun ch ->
                let rec node t =
                  (match
                     Term.unify ~pat:ch.ch_entry ~target:t ~var:cov.cov_iv_sym
                   with
                  | Some u -> in_range u
                  | None -> false)
                  ||
                  match (Term.lin t, Term.const t) with
                  | [ (Term.Aread { addr = a; ty; _ }, 1) ], 0 ->
                      (* the value of some node's next field *)
                      let w = Ir.size_of_ty ty in
                      List.exists
                        (fun (o, w') -> o = ch.ch_nexto && w' >= w)
                        ch.ch_offs
                      && ch.ch_nexto >= 0
                      && ch.ch_nexto + w <= 4096
                      && node (Term.add_const (-ch.ch_nexto) a)
                  | _ -> false
                in
                List.exists
                  (fun (o, w) ->
                    w >= width && o >= 0
                    && o + width <= 4096
                    && node (Term.add_const (-o) addr))
                  ch.ch_offs)
              cx.cx_chases)
      p.p_ctxs
  in
  direct || by_coverage () || by_chase ()

(* Retry every pending obligation against the path's current contexts. *)
let flush_obligations sh p =
  match p.p_oblig with
  | [] -> p
  | pending ->
      {
        p with
        p_oblig =
          List.filter
            (fun (pc, addr, width) ->
              not (try_discharge sh p ~addr ~width ~pc))
            pending;
      }

let require_discharged p =
  match p.p_oblig with
  | [] -> ()
  | (pc, addr, _) :: _ ->
      mismatch "unproved look-ahead load at pc %d, addr %s" pc
        (Term.to_string addr)

(* ------------------------------------------------------------------ *)
(* Widening at loop heads                                              *)
(* ------------------------------------------------------------------ *)

let is_phi (f : Ir.func) id =
  match (Ir.instr f id).Ir.kind with Ir.Phi _ -> true | _ -> false

let phi_incoming ~line phis pred =
  match List.assoc_opt pred phis with
  | Some op -> op
  | None -> give_up "phi at bb%d has no incoming for edge from bb%d" line pred

(* Replace every loop-carried value by a fresh symbol (shared between
   the sides for positionally-paired header phis, per-side otherwise),
   havoc memory over the loop's store regions, and assume the sound
   step invariant.  Returns the widened envs/facts/log and the new
   context. *)
let widen sh p (li : linfo) ~bid =
  let env_o = p.p_env_o and env_x = p.p_env_x in
  let o_phis = header_phis sh.s_orig bid and x_phis = header_phis sh.s_xform bid in
  let rec pair acc os xs =
    match (os, xs) with
    | (oid, oinc) :: os', (xid, xinc) :: xs' ->
        let vo = eval_operand env_o (phi_incoming ~line:bid oinc p.p_pred) in
        let vx = eval_operand env_x (phi_incoming ~line:bid xinc p.p_pred) in
        if not (Term.equal vo vx) then
          mismatch "loop entry values differ at bb%d: %s vs %s" bid
            (Term.to_string vo) (Term.to_string vx);
        let s = fresh sh in
        env_o.(oid) <- Some (Term.sym s);
        env_x.(xid) <- Some (Term.sym s);
        pair ((oid, s, vo) :: acc) os' xs'
    | rest_o, rest_x ->
        (* Unpaired extras (neither the pass nor the builders create
           them): havoc per side. *)
        List.iter (fun (oid, _) -> env_o.(oid) <- Some (Term.sym (fresh sh))) rest_o;
        List.iter (fun (xid, _) -> env_x.(xid) <- Some (Term.sym (fresh sh))) rest_x;
        List.rev acc
  in
  let pairs = pair [] o_phis x_phis in
  let facts =
    List.fold_left
      (fun facts (oid, s, v0) ->
        if List.mem_assoc oid li.li_steps then
          Term.sub (Term.sym s) v0 :: facts
        else facts)
      p.p_facts pairs
  in
  (* Values defined inside the loop may flow across iterations without a
     phi (a def whose block dominates a later-iteration use), and inner
     header phis carry inner-loop state: havoc everything the loop
     defines except this header's own phis, which were just paired. *)
  let havoc_side (f : Ir.func) env =
    Ir.iter_instrs f (fun i ->
        if
          Loops.contains li.li_loop i.Ir.block
          && Ir.defines_value i.Ir.kind
          && not (i.Ir.block = bid && is_phi f i.Ir.id)
        then env.(i.Ir.id) <- Some (Term.sym (fresh sh)))
  in
  havoc_side sh.s_orig env_o;
  havoc_side sh.s_xform env_x;
  let ver, log =
    if li.li_stores_present then
      ( p.p_ver + 1,
        Mhavoc { ver = p.p_ver + 1; region = li.li_store_regions } :: p.p_log )
    else (p.p_ver, p.p_log)
  in
  let cov =
    match li.li_cond with
    | Some ci
      when li.li_header_exits_only
           && List.assoc_opt ci.ci_pid li.li_steps = Some 1
           && ci.ci_body_true -> (
        match List.find_opt (fun (oid, _, _) -> oid = ci.ci_pid) pairs with
        | Some (_, s_iv, v0) ->
            let bound = eval_operand env_o ci.ci_bound in
            let hi =
              match ci.ci_pred with
              | Ir.Slt -> Term.add_const (-1) bound
              | _ -> bound
            in
            Some { cov_iv_sym = s_iv; cov_lo = v0; cov_hi = hi }
        | None -> None)
    | _ -> None
  in
  let ctx =
    {
      cx_header = bid;
      cx_loop = li.li_loop;
      cx_uncond = li.li_uncond;
      cx_cov = cov;
      cx_armed = true;
      cx_nbase = p.p_nforks;
      cx_cands = [];
      cx_chases = [];
    }
  in
  (* If this loop is a null-tested pointer walk, its entry value as seen
     by each enclosing widened loop is an iteration-uniform chase family
     — provided node values are stable (no stores/allocs anywhere), this
     header runs once per enclosing iteration (dominates its latches),
     and the path from the enclosing header is fork-free. *)
  let enclosing =
    match li.li_chase with
    | Some cs
      when (not sh.s_static.has_store) && not sh.s_static.has_alloc -> (
        match List.find_opt (fun (oid, _, _) -> oid = cs.ch_phi) pairs with
        | Some (_, _, entry) ->
            List.map
              (fun cx ->
                if
                  cx.cx_cov <> None
                  && (cx.cx_armed || p.p_nforks = cx.cx_nbase)
                  && List.for_all
                       (fun latch -> Dom.dominates sh.s_static.dom bid latch)
                       cx.cx_loop.Loops.latches
                then
                  {
                    cx with
                    cx_chases =
                      {
                        ch_entry = entry;
                        ch_offs = cs.ch_offsets;
                        ch_nexto = cs.ch_next;
                      }
                      :: cx.cx_chases;
                  }
                else cx)
              p.p_ctxs
        | None -> p.p_ctxs)
    | _ -> p.p_ctxs
  in
  { p with p_facts = facts; p_ver = ver; p_log = log; p_ctxs = ctx :: enclosing }

(* The closing head arrival: verify both sides carry equal values into
   the next (arbitrary) iteration — the inductive step — then stop. *)
let check_closing sh p ~bid =
  let o_phis = header_phis sh.s_orig bid and x_phis = header_phis sh.s_xform bid in
  let rec go os xs =
    match (os, xs) with
    | (oid, oinc) :: os', (_, xinc) :: xs' ->
        let vo = eval_operand p.p_env_o (phi_incoming ~line:bid oinc p.p_pred) in
        let vx = eval_operand p.p_env_x (phi_incoming ~line:bid xinc p.p_pred) in
        if not (Term.equal vo vx) then
          mismatch "loop-carried value for %%%d differs at bb%d: %s vs %s" oid
            bid (Term.to_string vo) (Term.to_string vx);
        go os' xs'
    | _ -> ()
  in
  go o_phis x_phis

(* ------------------------------------------------------------------ *)
(* The lockstep block step                                             *)
(* ------------------------------------------------------------------ *)

let exec_phis (f : Ir.func) env ~bid ~pred =
  let phis = header_phis f bid in
  let values =
    List.map
      (fun (id, inc) -> (id, eval_operand env (phi_incoming ~line:bid inc pred)))
      phis
  in
  List.iter (fun (id, v) -> env.(id) <- Some v) values

type outcome = Leaf of path | Continue of path list

let copy_path p =
  {
    p with
    p_env_o = Array.copy p.p_env_o;
    p_env_x = Array.copy p.p_env_x;
  }

let step sh p : outcome =
  (match sh.s_cancel with
  | Some c when Spf_sim.Exec_state.is_cancelled c ->
      give_up "cancelled (supervision deadline)"
  | _ -> ());
  sh.s_steps <- sh.s_steps + 1;
  if sh.s_steps > max_steps then give_up "step budget exhausted";
  let bid = p.p_bid in
  (* Drop contexts of loops this block is no longer inside. *)
  let p = { p with p_ctxs = List.filter (fun c -> Loops.contains c.cx_loop bid) p.p_ctxs } in
  (* Loop-header bookkeeping. *)
  if List.exists (fun c -> c.cx_header = bid) p.p_ctxs then begin
    check_closing sh p ~bid;
    Leaf (flush_obligations sh p)
  end
  else begin
    let p =
      match List.assoc_opt bid sh.s_static.linfos with
      | Some li -> widen sh p li ~bid
      | None ->
          if p.p_pred >= 0 then begin
            exec_phis sh.s_orig p.p_env_o ~bid ~pred:p.p_pred;
            exec_phis sh.s_xform p.p_env_x ~bid ~pred:p.p_pred
          end;
          p
    in
    (* Execute both sides' straight-line code. *)
    let call_syms = ref [] and alloc_syms = ref [] in
    let ro =
      exec_side sh sh.s_orig p.p_env_o ~bid ~ver:p.p_ver ~log:p.p_log
        ~call_syms ~alloc_syms ~is_orig:true
    in
    let rx =
      exec_side sh sh.s_xform p.p_env_x ~bid ~ver:p.p_ver ~log:p.p_log
        ~call_syms ~alloc_syms ~is_orig:false
    in
    (* Record the original's demand accesses: path-global, plus
       per-iteration-uniform coverage candidates for enclosing widened
       loops. *)
    let accesses = List.filter_map demand_access ro.r_events in
    let p = { p with p_seen = accesses @ p.p_seen } in
    let p =
      {
        p with
        p_ctxs =
          List.map
            (fun cx ->
              if
                cx.cx_uncond.(bid)
                && (cx.cx_armed || p.p_nforks = cx.cx_nbase)
              then { cx with cx_cands = accesses @ cx.cx_cands }
              else cx)
            p.p_ctxs;
      }
    in
    (* Align the event streams; classify leftovers. *)
    let un_o, un_x = align_events ro.r_events rx.r_events in
    List.iter
      (fun e ->
        match e with
        | Eprefetch | Eload _ -> () (* dead load removed by the cleanup DCE *)
        | _ -> mismatch "original-only %s" (event_desc e))
      un_o;
    let fresh_obligs =
      List.filter_map
        (fun e ->
          match e with
          | Eprefetch -> None
          | Eload { pc; ty; addr; _ } ->
              let width = Ir.size_of_ty ty in
              sh.s_obligations <- sh.s_obligations + 1;
              if try_discharge sh p ~addr ~width ~pc then None
              else Some (pc, addr, width)
          | _ -> mismatch "transformed-only %s" (event_desc e))
        un_x
    in
    (* Stores matched 1:1: commit the original side's entries. *)
    let p =
      {
        p with
        p_ver = p.p_ver + List.length ro.r_stores;
        p_log = ro.r_stores @ p.p_log;
        p_oblig = fresh_obligs @ p.p_oblig;
      }
    in
    let p = flush_obligations sh p in
    (* Terminators. *)
    let term_o = (Ir.block sh.s_orig bid).Ir.term in
    let term_x = (Ir.block sh.s_xform bid).Ir.term in
    match (term_o, term_x) with
    | Ir.Br t, Ir.Br _ -> Continue [ { p with p_bid = t; p_pred = bid } ]
    | Ir.Ret None, Ir.Ret None -> Leaf p
    | Ir.Ret (Some a), Ir.Ret (Some b) ->
        let vo = eval_operand p.p_env_o a and vx = eval_operand p.p_env_x b in
        if Term.equal vo vx then Leaf p
        else mismatch "return values differ: %s vs %s" (Term.to_string vo) (Term.to_string vx)
    | Ir.Unreachable, Ir.Unreachable -> Leaf p
    | Ir.Cbr (c_o, t, f), Ir.Cbr (c_x, _, _) -> (
        let vo = eval_operand p.p_env_o c_o and vx = eval_operand p.p_env_x c_x in
        if not (Term.equal vo vx) then
          mismatch "branch conditions differ at bb%d: %s vs %s" bid
            (Term.to_string vo) (Term.to_string vx);
        match Term.as_const vo with
        | Some 0 -> Continue [ { p with p_bid = f; p_pred = bid } ]
        | Some _ -> Continue [ { p with p_bid = t; p_pred = bid } ]
        | None ->
            let nforks = p.p_nforks + 1 in
            let disarm p' =
              {
                p' with
                p_ctxs =
                  List.map
                    (fun cx ->
                      if cx.cx_armed && cx.cx_header = bid then
                        { cx with cx_armed = false; cx_nbase = p'.p_nforks }
                      else cx)
                    p'.p_ctxs;
              }
            in
            let arm cond_value target =
              let q = copy_path p in
              let q =
                {
                  q with
                  p_bid = target;
                  p_pred = bid;
                  p_nforks = nforks;
                  p_facts = Prove.assert_cond vo cond_value @ q.p_facts;
                }
              in
              disarm q
            in
            Continue [ arm true t; arm false f ])
    | _ -> give_up "terminator shapes differ at bb%d" bid
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let check ?cancel ~orig ~xform () =
  try
    check_skeleton orig xform;
    let static = analyze orig in
    let sh =
      {
        s_orig = orig;
        s_xform = xform;
        s_static = static;
        s_cancel = cancel;
        s_fresh = static.nparams;
        s_regions = Hashtbl.create 16;
        s_paths = 0;
        s_steps = 0;
        s_obligations = 0;
      }
    in
    for k = 0 to static.nparams - 1 do
      Hashtbl.replace sh.s_regions k ()
    done;
    let init =
      {
        p_bid = orig.Ir.entry;
        p_pred = -1;
        p_env_o = Array.make (Ir.n_instrs orig) None;
        p_env_x = Array.make (Ir.n_instrs xform) None;
        p_facts = [];
        p_ver = 0;
        p_log = [];
        p_ctxs = [];
        p_nforks = 0;
        p_seen = [];
        p_oblig = [];
      }
    in
    let stack = ref [ init ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | p :: rest -> (
          stack := rest;
          match step sh p with
          | Leaf p' ->
              require_discharged p';
              sh.s_paths <- sh.s_paths + 1;
              if sh.s_paths > max_paths then give_up "path budget exhausted"
          | Continue ps -> stack := ps @ !stack)
    done;
    Proved { paths = sh.s_paths; obligations = sh.s_obligations }
  with
  | Give_up r -> Gave_up r
  | Found_mismatch d -> Mismatch d
