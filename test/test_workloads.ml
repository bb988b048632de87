module Ir = Spf_ir.Ir
module Workload = Spf_workloads.Workload
module Is = Spf_workloads.Is
module Cg = Spf_workloads.Cg
module Ra = Spf_workloads.Ra
module Hj = Spf_workloads.Hj
module G500 = Spf_workloads.G500
module Rng = Spf_workloads.Rng

(* Every workload variant must execute to the reference checksum on both an
   in-order and an out-of-order machine, with and without the pass. *)

let machines = [ Spf_sim.Machine.haswell; Spf_sim.Machine.a53 ]

let run_and_validate ?(transform = fun _ -> ()) (b : Workload.built) machine =
  transform b.Workload.func;
  Helpers.verify_ok b.Workload.func;
  let interp =
    Spf_sim.Interp.create ~machine ~mem:b.Workload.mem ~args:b.Workload.args
      b.Workload.func
  in
  Spf_sim.Interp.run ~fuel:50_000_000 interp;
  Workload.validate b ~retval:(Spf_sim.Interp.retval interp)

let check_all ~name builds =
  List.iter
    (fun machine ->
      List.iter
        (fun build ->
          try run_and_validate (build ()) machine
          with Failure m -> Alcotest.failf "%s: %s" name m)
        builds)
    machines

let test_is () =
  check_all ~name:"IS"
    [
      (fun () -> Is.build Test_pass.small_is);
      (fun () -> Is.build ~manual:Is.intuitive Test_pass.small_is);
      (fun () -> Is.build ~manual:Is.optimal Test_pass.small_is);
      (fun () -> Is.build ~manual:Is.offset_too_small Test_pass.small_is);
      (fun () -> Is.build ~manual:Is.offset_too_big Test_pass.small_is);
    ]

let test_cg () =
  check_all ~name:"CG"
    [
      (fun () -> Cg.build Test_pass.small_cg);
      (fun () -> Cg.build ~manual:Cg.optimal Test_pass.small_cg);
      (fun () -> Cg.build ~manual:{ Cg.c = 8; stride = false } Test_pass.small_cg);
    ]

let test_ra () =
  check_all ~name:"RA"
    [
      (fun () -> Ra.build Test_pass.small_ra);
      (fun () -> Ra.build ~manual:Ra.optimal Test_pass.small_ra);
      (fun () ->
        Ra.build ~manual:{ Ra.during_generation = false; c = 16 } Test_pass.small_ra);
    ]

let test_hj () =
  check_all ~name:"HJ"
    [
      (fun () -> Hj.build Test_pass.small_hj2);
      (fun () -> Hj.build ~manual:Hj.optimal_hj2 Test_pass.small_hj2);
      (fun () -> Hj.build Test_pass.small_hj8);
      (fun () -> Hj.build ~manual:{ Hj.c = 32; depth = 4 } Test_pass.small_hj8);
      (fun () -> Hj.build ~manual:{ Hj.c = 32; depth = 1 } Test_pass.small_hj8);
    ]

let test_g500 () =
  check_all ~name:"G500"
    [
      (fun () -> G500.build Test_pass.small_g500);
      (fun () -> G500.build ~manual:G500.optimal Test_pass.small_g500);
      (fun () -> G500.build ~manual:G500.optimal_ooo Test_pass.small_g500);
      (fun () -> G500.build Test_pass.bounded_g500);
      (fun () -> G500.build ~manual:G500.optimal Test_pass.bounded_g500);
    ]

(* HJ structural invariants: exact occupancy and hash consistency. *)
let test_hj_construction () =
  let p = Test_pass.small_hj8 in
  let mask = (1 lsl p.Hj.log_buckets) - 1 in
  for bkt = 0 to 20 do
    for slot = 0 to p.Hj.elems_per_bucket - 1 do
      let k = Hj.key_of ~bucket:bkt ~slot in
      Alcotest.(check int) "hash inverts the crafted key" bkt (Hj.hash ~mask k)
    done
  done;
  (* All keys distinct. *)
  let seen = Hashtbl.create 64 in
  for bkt = 0 to (1 lsl p.Hj.log_buckets) - 1 do
    for slot = 0 to p.Hj.elems_per_bucket - 1 do
      let k = Hj.key_of ~bucket:bkt ~slot in
      Alcotest.(check bool) "key unique" false (Hashtbl.mem seen k);
      Hashtbl.replace seen k ()
    done
  done

(* Kronecker/CSR invariants. *)
let test_g500_graph () =
  let p = Test_pass.small_g500 in
  let g = G500.kronecker p in
  Alcotest.(check int) "row array has n+1 entries" (g.G500.n + 1)
    (Array.length g.G500.row);
  Alcotest.(check int) "row.(n) = number of directed edges"
    (Array.length g.G500.col)
    g.G500.row.(g.G500.n);
  Alcotest.(check int) "2 * edge_factor * n directed edges"
    (2 * p.G500.edge_factor * (1 lsl p.G500.scale))
    (Array.length g.G500.col);
  (* Monotone row offsets; in-range column ids. *)
  for i = 0 to g.G500.n - 1 do
    assert (g.G500.row.(i) <= g.G500.row.(i + 1))
  done;
  Array.iter (fun c -> assert (c >= 0 && c < g.G500.n)) g.G500.col;
  (* The graph is symmetric (each sampled edge added both ways), so BFS
     parents are consistent: parent.(v) is a vertex with an edge to v. *)
  let root = G500.root_of g in
  let parent, visited = G500.reference_bfs g ~root ~max_vertices:None in
  Alcotest.(check bool) "bfs visits at least the root" true (visited >= 1);
  Array.iteri
    (fun v pv ->
      if pv >= 0 && v <> root then begin
        let found = ref false in
        for e = g.G500.row.(pv) to g.G500.row.(pv + 1) - 1 do
          if g.G500.col.(e) = v then found := true
        done;
        if not !found then Alcotest.failf "parent of %d is not a neighbour" v
      end)
    parent

(* Every G500 graph the figures, perfbench and the tests build, pinned bit
   for bit: the MD5 of [row] and of [col], each rendered as int32
   little-endian bytes (a stable rendering, unlike a Marshal image).  A
   generator rewrite must make the same draws in the same order and
   scatter both directions of each edge in the same order. *)
let graph_pins =
  [
    ("Test_pass.small_g500", Test_pass.small_g500,
      "135cd2c7d617bb46de8f8a286b12d05b", "a2053dac78c8b25f3176b0eed5ffddf6");
    ("G500.small", G500.small,
      "fbaa5175663be59d0c6cab72705dcf5d", "4183a9b73abfe2c6c13887aa34967008");
    ("fig-graph s18",
      { G500.scale = 18; edge_factor = 10; seed = 5; max_vertices = None },
      "eb1a24c75f5351c31978b020922a9d49", "f842cb7f925039be5629e635861315f5");
    ("G500.large", G500.large,
      "0e48014bee4784d21a5a35038f7c0297", "59b05b0220407b09a1f8e93189b7d495");
  ]

let md5_i32_le a =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) a;
  Digest.to_hex (Digest.bytes b)

let test_g500_graph_pinned () =
  List.iter
    (fun (name, p, row_md5, col_md5) ->
      let g = G500.kronecker p in
      Alcotest.(check string) (name ^ " row") row_md5 (md5_i32_le g.G500.row);
      Alcotest.(check string) (name ^ " col") col_md5 (md5_i32_le g.G500.col))
    graph_pins;
  (* An edge packs both endpoints into one int, 32 bits each. *)
  Alcotest.check_raises "scale past the packing limit"
    (Invalid_argument "G500.kronecker: scale must be <= 30") (fun () ->
      ignore
        (G500.kronecker
           { G500.scale = 31; edge_factor = 1; seed = 1; max_vertices = None }))

(* Pool domains share the graph memo: two domains building the same
   (not yet cached) params at once must each get the instance a serial
   build gets, and its CSR image must be the generator's graph. *)
let test_g500_cache_concurrent () =
  let p = { G500.scale = 11; edge_factor = 8; seed = 23; max_vertices = None } in
  let fingerprint (b : Workload.built) =
    (b.Workload.expected, Spf_sim.Memory.digest b.Workload.mem)
  in
  let build () = fingerprint (G500.build p) in
  let d1 = Domain.spawn build and d2 = Domain.spawn build in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let serial = G500.build p in
  let expected, digest = fingerprint serial in
  List.iter
    (fun (e, d) ->
      Alcotest.(check int) "expected equals the serial build's" expected e;
      Alcotest.(check string) "memory digest equals the serial build's" digest d)
    [ r1; r2 ];
  let g = G500.kronecker p in
  let read i len =
    Spf_sim.Memory.read_i32_array serial.Workload.mem
      ~base:serial.Workload.args.(i) ~len
  in
  Alcotest.(check bool) "row image is the generator's" true
    (read 2 (g.G500.n + 1) = g.G500.row);
  Alcotest.(check bool) "col image is the generator's" true
    (read 3 (Array.length g.G500.col) = g.G500.col)

(* The bounded BFS is a prefix of the full BFS. *)
let test_g500_bounded_prefix () =
  let p = Test_pass.small_g500 in
  let g = G500.kronecker p in
  let root = G500.root_of g in
  let full, full_visited = G500.reference_bfs g ~root ~max_vertices:None in
  let bounded, bounded_visited =
    G500.reference_bfs g ~root ~max_vertices:(Some 10)
  in
  Alcotest.(check bool) "bounded visits fewer" true (bounded_visited <= full_visited);
  Array.iteri
    (fun v pv -> if pv >= 0 then Alcotest.(check int) "prefix agrees" full.(v) pv)
    bounded

(* Deterministic RNG. *)
let test_rng_deterministic () =
  let a = Rng.create ~seed:11 and b = Rng.create ~seed:11 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create ~seed:12 in
  Alcotest.(check bool) "different seed, different stream" true
    (List.init 10 (fun _ -> Rng.next a) <> List.init 10 (fun _ -> Rng.next c))

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    assert (v >= 0 && v < 17);
    let f = Rng.float r in
    assert (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_is_permutation () =
  let r = Rng.create ~seed:5 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 100 (fun i -> i))

let suite =
  [
    Alcotest.test_case "IS variants validate" `Slow test_is;
    Alcotest.test_case "CG variants validate" `Slow test_cg;
    Alcotest.test_case "RA variants validate" `Slow test_ra;
    Alcotest.test_case "HJ variants validate" `Slow test_hj;
    Alcotest.test_case "G500 variants validate" `Slow test_g500;
    Alcotest.test_case "HJ table construction" `Quick test_hj_construction;
    Alcotest.test_case "Kronecker/CSR invariants" `Quick test_g500_graph;
    Alcotest.test_case "G500 graphs pinned bit for bit" `Slow
      test_g500_graph_pinned;
    Alcotest.test_case "G500 graph memo shared by two domains" `Quick
      test_g500_cache_concurrent;
    Alcotest.test_case "bounded BFS is a prefix" `Quick test_g500_bounded_prefix;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_is_permutation;
  ]
