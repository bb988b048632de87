module Pool = Spf_harness.Pool
module Sup = Spf_harness.Supervisor
module Driver = Spf_fuzz.Driver

(* The domain pool (PERFORMANCE.md): submission-ordered collection,
   per-job exception capture, and the determinism guarantee that a
   parallel fuzz campaign is indistinguishable from a serial one. *)

exception Boom of int

let test_map_ordering () =
  (* Results must come back in submission order even when later jobs
     finish first (earlier jobs do more work). *)
  let xs = List.init 64 Fun.id in
  let f i =
    let acc = ref 0 in
    for _ = 1 to (64 - i) * 2000 do
      incr acc
    done;
    ignore !acc;
    i * i
  in
  Alcotest.(check (list int))
    "ordered squares" (List.map f xs)
    (Pool.map ~jobs:4 f xs)

let test_run_captures_exceptions () =
  let thunks =
    [
      (fun () -> 1);
      (fun () -> raise (Boom 1));
      (fun () -> 3);
      (fun () -> raise (Boom 3));
      (fun () -> 5);
    ]
  in
  let rs = Pool.run ~jobs:3 thunks in
  let describe = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error (Boom k) -> Printf.sprintf "boom:%d" k
    | Error e -> raise e
  in
  Alcotest.(check (list string))
    "each job's outcome in its own slot"
    [ "ok:1"; "boom:1"; "ok:3"; "boom:3"; "ok:5" ]
    (List.map describe rs)

let test_map_reraises_first_failure () =
  (* map must re-raise the failure of the lowest submission index (what a
     serial loop would have hit first), not whichever finished first. *)
  let f i = if i = 2 || i = 7 then raise (Boom i) else i in
  (match Pool.map ~jobs:4 f (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 2 -> ()
  | exception Boom k -> Alcotest.failf "raised Boom %d, wanted Boom 2" k)

let test_serial_path_inline () =
  (* jobs=1 must not spawn domains: side effects happen in order on the
     calling domain. *)
  let order = ref [] in
  let f i = order := i :: !order; i in
  ignore (Pool.map ~jobs:1 f [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int)) "inline order" [ 3; 2; 1; 0 ] !order

let summaries_equal (a : Driver.summary) (b : Driver.summary) =
  compare a b = 0

let test_fuzz_campaign_deterministic_across_jobs () =
  (* The ISSUE's headline determinism guarantee: a 4-domain campaign
     produces an identical summary (counters and ordered failure list) to
     a serial one on the same seed. *)
  let run jobs = Driver.run ~seed:7 ~sup:(Sup.options ~jobs ()) ~count:60 () in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check bool)
    "j=4 summary equals j=1 summary" true
    (summaries_equal serial parallel);
  (* And re-running serially is stable with itself. *)
  Alcotest.(check bool)
    "serial rerun stable" true
    (summaries_equal serial (run 1))

let suite =
  [
    Alcotest.test_case "map preserves submission order" `Quick
      test_map_ordering;
    Alcotest.test_case "run captures per-job exceptions" `Quick
      test_run_captures_exceptions;
    Alcotest.test_case "map re-raises first failure by index" `Quick
      test_map_reraises_first_failure;
    Alcotest.test_case "jobs=1 runs inline in order" `Quick
      test_serial_path_inline;
    Alcotest.test_case "fuzz campaign identical at -j 1 and -j 4" `Slow
      test_fuzz_campaign_deterministic_across_jobs;
  ]
