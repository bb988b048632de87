module Ir = Spf_ir.Ir
module Builder = Spf_ir.Builder
module Memory = Spf_sim.Memory

(* Graph500 seq-csr: breadth-first search over a Kronecker (R-MAT) graph in
   compressed-sparse-row format, with the reference code's single work
   queue.

   The queue bound (tail) grows inside the loop, so the outer work-list
   loads are out of reach of the pass — no loop-invariant bound, and the
   queue itself is stored to — exactly the "complicated control flow" the
   paper blames for the pass missing the work/vertex/edge-list prefetches.
   What the pass does catch is the edge→visited stride-indirect in the
   inner loop (parent[col[e]] under the edge induction variable), whose
   look-ahead is clamped to the current vertex's edges; that pattern
   dominates on the in-order machines (§6.1).  The manual variant adds the
   staggered work→vertex→edge chain and small-distance cross-vertex parent
   prefetches, using the runtime knowledge the compiler lacks. *)

type params = {
  scale : int;
  edge_factor : int;
  seed : int;
  max_vertices : int option;
      (* stop after dequeuing this many vertices: bounds simulation cost
         while keeping the full graph's memory footprint (the BFS touches
         a working set far larger than any cache, as the paper's -s 21
         does); [None] runs to an empty queue *)
}

(* Stand-ins for the paper's -s 16 (mostly cache-resident) and -s 21 (well
   past every cache) at simulator-tractable costs; DESIGN.md §4 records the
   substitution. *)
let small = { scale = 16; edge_factor = 16; seed = 5; max_vertices = None }

let large =
  { scale = 19; edge_factor = 10; seed = 5; max_vertices = Some 12_000 }

type manual = {
  c_work : int;
  c_edge : int;
  c_col : int;
  inner : bool;
      (* emit the per-edge prefetches?  The paper's Haswell-optimal scheme
         restricts manual prefetching to the outer loops (§6.2, Fig 8);
         on the in-order machines the inner-loop prefetches dominate. *)
}

let optimal = { c_work = 16; c_edge = 32; c_col = 64; inner = true }
let optimal_ooo = { optimal with inner = false }

type graph = {
  n : int;
  row : int array; (* n+1 *)
  col : int array;
}

(* R-MAT edge sampling with the Graph500 parameters (A=0.57, B=0.19,
   C=0.19), one draw per bit of each endpoint, symmetrised into CSR.

   A draw r = x / 2^48, x the low 48 bits of [Rng.next], selects quadrant
   (0,0) below 0.57, (0,1) below 0.76, (1,0) below 0.95 and (1,1) above.
   Both the conversion of x < 2^48 and the division by a power of two
   are exact, so [r < c] holds exactly when [x < ceil (c * 2^48)], and
   c * 2^48 (an exponent shift) is exact too.  The quadrant bits are then
   three integer compares against those thresholds and no branch:
   ub = [x >= t2] and vb = [x >= t1] xor [x >= t2] xor [x >= t3].

   Nothing is allocated per edge: sampled edge k is packed as
   (u lsl 32) lor v in one flat array (so scale <= 30), degrees are
   counted as it is drawn, and the scatter writes (u, v) then (v, u) for
   each k in draw order, so row u lists the far endpoint of every edge
   at u in the order the edges were drawn (a self-loop twice). *)
let threshold c = int_of_float (Float.ceil (Float.ldexp c 48))

let kronecker p =
  if p.scale > 30 then invalid_arg "G500.kronecker: scale must be <= 30";
  let n = 1 lsl p.scale in
  let m = p.edge_factor * n in
  let rng = Rng.create ~seed:p.seed in
  let t1 = threshold 0.57 and t2 = threshold 0.76 and t3 = threshold 0.95 in
  let edges = Array.make m 0 in
  let deg = Array.make n 0 in
  for k = 0 to m - 1 do
    let u = ref 0 and v = ref 0 in
    for bit = 0 to p.scale - 1 do
      let x = Rng.next rng land 0xFFFF_FFFF_FFFF in
      let ge2 = Bool.to_int (x >= t2) in
      u := !u lor (ge2 lsl bit);
      v :=
        !v
        lor ((Bool.to_int (x >= t1) lxor ge2 lxor Bool.to_int (x >= t3)) lsl bit)
    done;
    edges.(k) <- (!u lsl 32) lor !v;
    deg.(!u) <- deg.(!u) + 1;
    deg.(!v) <- deg.(!v) + 1
  done;
  let row = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i) + deg.(i)
  done;
  let fill = Array.sub row 0 n in
  let col = Array.make (2 * m) 0 in
  Array.iter
    (fun e ->
      let u = e lsr 32 and v = e land 0xFFFF_FFFF in
      col.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      col.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  { n; row; col }

let root_of g =
  let rec find i = if g.row.(i + 1) > g.row.(i) then i else find (i + 1) in
  find 0

(* Reference BFS with identical queue semantics (and the same optional
   vertex budget as the kernel). *)
let reference_bfs g ~root ~max_vertices =
  let budget = Option.value max_vertices ~default:g.n in
  let parent = Array.make g.n (-1) in
  let work = Array.make g.n 0 in
  parent.(root) <- root;
  work.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && !head < budget do
    let v = work.(!head) in
    incr head;
    for e = g.row.(v) to g.row.(v + 1) - 1 do
      let dest = g.col.(e) in
      if parent.(dest) < 0 then begin
        parent.(dest) <- v;
        work.(!tail) <- dest;
        incr tail
      end
    done
  done;
  (parent, !tail)

(* params: 0 = work, 1 = parent, 2 = row, 3 = col (+ the total edge count
   baked in for the manual variant's global clamp) *)
let build_func ?manual ?max_vertices g =
  let b = Builder.create ~name:"g500_bfs" ~nparams:4 in
  let work = Builder.param b 0
  and parent = Builder.param b 1
  and row = Builder.param b 2
  and col = Builder.param b 3 in
  let m_edges = Array.length g.col in
  let ohead = Builder.new_block b "work.head" in
  let obody = Builder.new_block b "work.body" in
  let oexit = Builder.new_block b "work.exit" in
  let entry = Builder.current_block b in
  Builder.br b ohead;
  Builder.set_block b ohead;
  let head = Builder.phi ~name:"head" b [ (entry, Ir.Imm 0) ] in
  let tail = Builder.phi ~name:"tail" b [ (entry, Ir.Imm 1) ] in
  let cond = Builder.cmp b Ir.Slt head tail in
  let cond =
    match max_vertices with
    | None -> cond
    | Some k ->
        Builder.binop b Ir.And cond (Builder.cmp b Ir.Slt head (Ir.Imm k))
  in
  Builder.cbr b cond obody oexit;
  Builder.set_block b obody;
  (match manual with
  | Some mc ->
      (* Staggered work -> vertex -> edge-list prefetches, clamped by the
         live queue extent. *)
      let tail_m1 = Builder.sub ~name:"tail.m1" b tail (Ir.Imm 1) in
      let at off =
        Builder.binop b Ir.Smin (Builder.add b head (Ir.Imm off)) tail_m1
      in
      Builder.prefetch b (Builder.gep b work (at mc.c_work) 4);
      let v1 = Builder.load b Ir.I32 (Builder.gep b work (at (mc.c_work / 2)) 4) in
      Builder.prefetch b (Builder.gep b row v1 4);
      let v2 = Builder.load b Ir.I32 (Builder.gep b work (at (mc.c_work / 4)) 4) in
      let rs2 = Builder.load b Ir.I32 (Builder.gep b row v2 4) in
      Builder.prefetch b (Builder.gep b col rs2 4)
  | None -> ());
  let v = Builder.load ~name:"v" b Ir.I32 (Builder.gep b work head 4) in
  let rs = Builder.load ~name:"row.s" b Ir.I32 (Builder.gep b row v 4) in
  let re =
    Builder.load ~name:"row.e" b Ir.I32
      (Builder.gep b row (Builder.add b v (Ir.Imm 1)) 4)
  in
  (* Inner edge loop. *)
  let ehead = Builder.new_block b "edge.head" in
  let ebody = Builder.new_block b "edge.body" in
  let eif = Builder.new_block b "edge.if" in
  let elatch = Builder.new_block b "edge.latch" in
  let eexit = Builder.new_block b "edge.exit" in
  Builder.br b ehead;
  Builder.set_block b ehead;
  let e = Builder.phi ~name:"e" b [ (obody, rs) ] in
  let tail_in = Builder.phi ~name:"tail.in" b [ (obody, tail) ] in
  let econd = Builder.cmp b Ir.Slt e re in
  Builder.cbr b econd ebody eexit;
  Builder.set_block b ebody;
  (match manual with
  | Some mc when mc.inner ->
      (* Cross-vertex prefetches at small distance, clamped only by the
         global edge count — the runtime-knowledge trade-off of §5.1. *)
      let gat off =
        Builder.binop b Ir.Smin (Builder.add b e (Ir.Imm off))
          (Ir.Imm (m_edges - 1))
      in
      Builder.prefetch b (Builder.gep b col (gat mc.c_col) 4);
      let d' = Builder.load b Ir.I32 (Builder.gep b col (gat mc.c_edge) 4) in
      Builder.prefetch b (Builder.gep b parent d' 8)
  | Some _ | None -> ());
  let dest = Builder.load ~name:"dest" b Ir.I32 (Builder.gep b col e 4) in
  let pv = Builder.load ~name:"pv" b Ir.I64 (Builder.gep b parent dest 8) in
  (* parent entries are stored as value+1 so that "unvisited" is 0 and the
     load needs no sign handling; 8-byte entries match Graph500's int64_t
     parent array. *)
  let unvisited = Builder.cmp ~name:"unvis" b Ir.Eq pv (Ir.Imm 0) in
  Builder.cbr b unvisited eif elatch;
  Builder.set_block b eif;
  let vp1 = Builder.add b v (Ir.Imm 1) in
  Builder.store b Ir.I64 (Builder.gep b parent dest 8) vp1;
  Builder.store b Ir.I32 (Builder.gep b work tail_in 4) dest;
  let tail_if = Builder.add b tail_in (Ir.Imm 1) in
  Builder.br b elatch;
  Builder.set_block b elatch;
  let tail2 =
    Builder.phi ~name:"tail2" b [ (ebody, tail_in); (eif, tail_if) ]
  in
  let e' = Builder.add b e (Ir.Imm 1) in
  Builder.br b ehead;
  Builder.add_incoming b e ~pred:elatch e';
  Builder.add_incoming b tail_in ~pred:elatch tail2;
  Builder.set_block b eexit;
  let head' = Builder.add b head (Ir.Imm 1) in
  Builder.br b ohead;
  Builder.add_incoming b head ~pred:eexit head';
  Builder.add_incoming b tail ~pred:eexit tail_in;
  Builder.set_block b oexit;
  Builder.ret b (Some tail);
  Builder.finish b

let checksum_parents ~get n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := Workload.mix !acc (get i)
  done;
  !acc

(* Graph construction and the reference BFS are by far the most expensive
   host-side work; cache them per parameter set (they are immutable).
   Pool domains share the memo, so the whole find-or-generate holds one
   lock: a second domain asking for the same graph waits for it rather
   than racing the table or generating it again. *)
let graph_cache : (params, graph * int * int array * int) Hashtbl.t =
  Hashtbl.create 4

let graph_lock = Mutex.create ()

let graph_of p =
  Mutex.protect graph_lock (fun () ->
      match Hashtbl.find_opt graph_cache p with
      | Some entry -> entry
      | None ->
          let g = kronecker p in
          let root = root_of g in
          let parent_ref, visited =
            reference_bfs g ~root ~max_vertices:p.max_vertices
          in
          let entry = (g, root, parent_ref, visited) in
          Hashtbl.replace graph_cache p entry;
          entry)

let build ?manual ?(name = "G500") (p : params) : Workload.built =
  let g, root, parent_ref, visited = graph_of p in
  (* The image is sized to what the four arrays below take (plus the
     first page, never handed out, and each allocation's line
     alignment), so it is zeroed once and never grown. *)
  let footprint =
    4096
    + (4 * g.n) + (8 * g.n)
    + (4 * Array.length g.row)
    + (4 * Array.length g.col)
    + (4 * Spf_sim.Machine.line_size)
  in
  let mem = Memory.create ~initial:footprint () in
  let work_base = Memory.alloc mem (4 * g.n) in
  let parent_base = Memory.alloc mem (8 * g.n) in
  let row_base = Memory.alloc_i32_array mem g.row in
  let col_base = Memory.alloc_i32_array mem g.col in
  Memory.store mem Ir.I32 (work_base + 0) root;
  Memory.store mem Ir.I64 (parent_base + (8 * root)) (root + 1);
  let expected =
    Workload.mix (checksum_parents ~get:(fun i -> parent_ref.(i) + 1) g.n) visited
  in
  let check m ~retval =
    let parents =
      checksum_parents ~get:(fun i -> Memory.load m Ir.I64 (parent_base + (8 * i))) g.n
    in
    Workload.mix parents (Option.value retval ~default:min_int)
  in
  {
    Workload.name = name;
    func = build_func ?manual ?max_vertices:p.max_vertices g;
    mem;
    args = [| work_base; parent_base; row_base; col_base |];
    expected;
    check;
  }
