(** Graph500 seq-csr: queue-based breadth-first search over a Kronecker
    (R-MAT) graph in CSR form.

    The queue bound grows inside the loop and the queue is stored to, so
    the work/vertex/edge-list chains are out of the pass's reach — the
    "complicated control flow" of §6.1 — while the edge→visited
    stride-indirect in the inner loop is picked up with row-clamped
    look-ahead.  The manual variant adds the staggered work→vertex→edge
    chain and small-distance cross-vertex parent prefetches. *)

type params = {
  scale : int;  (** 2^scale vertices *)
  edge_factor : int;
  seed : int;
  max_vertices : int option;
      (** optional vertex budget: bounds simulation cost while keeping the
          full graph's memory footprint (DESIGN.md §4) *)
}

val small : params
(** Stand-in for the paper's -s 16: footprint around LLC size. *)

val large : params
(** Stand-in for -s 21: footprint far past every cache, vertex-budgeted. *)

type manual = { c_work : int; c_edge : int; c_col : int; inner : bool }

val optimal : manual
val optimal_ooo : manual
(** Outer-loop prefetches only — the scheme the paper found best on
    Haswell (§6.2). *)

type graph = { n : int; row : int array; col : int array }

val kronecker : params -> graph
(** R-MAT sampling with the Graph500 parameters (A=0.57, B=C=0.19),
    symmetrised, in CSR.
    @raise Invalid_argument if [scale > 30]. *)

val root_of : graph -> int
val reference_bfs :
  graph -> root:int -> max_vertices:int option -> int array * int
(** Reference parent array and visited count, with kernel-identical queue
    semantics. *)

val build_func :
  ?manual:manual -> ?max_vertices:int -> graph -> Spf_ir.Ir.func

val build : ?manual:manual -> ?name:string -> params -> Workload.built
(** Graphs and reference BFS results are cached per [params], in one
    memo that concurrent domains share under a lock. *)
