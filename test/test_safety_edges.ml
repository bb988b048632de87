module Ir = Spf_ir.Ir
module Builder = Spf_ir.Builder
module Pass = Spf_core.Pass
module Memory = Spf_sim.Memory
module Interp = Spf_sim.Interp
module Machine = Spf_sim.Machine
module Gen = Spf_fuzz.Gen
module Oracle = Spf_fuzz.Oracle

(* §4.2 clamp edge cases, all under tight allocation (the index array ends
   exactly at the memory break, so ANY unclamped look-ahead load traps):
   zero-length arrays, a look-ahead offset that overruns the bound by
   exactly one element, and loop-variant trip counts. *)

let check_agrees name spec =
  match Oracle.check spec with
  | Oracle.Agree a ->
      Alcotest.(check bool) (name ^ ": compared, not discarded") false
        a.Oracle.discarded
  | Oracle.Diverged d ->
      Alcotest.failf "%s: %s" name (Oracle.divergence_to_string d)
  | Oracle.Undecided r -> Alcotest.failf "%s: undecided: %s" name r

let tight_spec ~n =
  {
    Gen.shape = Gen.Indirect;
    n;
    inner = 1;
    len_a = 16;
    bound = Gen.Bound_imm;
    tight = true;
    alias_store = false;
    hash_depth = 1;
    data_seed = 1;
  }

let test_zero_length_array () =
  (* Empty loop over a zero-byte index array: the pass still transforms
     the body it never runs; nothing may fault. *)
  check_agrees "n=0 tight" (tight_spec ~n:0);
  check_agrees "n=0 param bound"
    { (tight_spec ~n:0) with Gen.bound = Gen.Bound_param }

let test_single_iteration () =
  (* One iteration: clamp must be 0 = the only valid index. *)
  check_agrees "n=1 tight" (tight_spec ~n:1)

let test_offset_overruns_bound_by_one () =
  (* Trip counts from 1 to 80 straddle the look-ahead constant c = 64 and
     its staggered fractions; each n makes some emitted offset min(i+off,
     n-1) sit exactly on the last element, where a one-element clamp error
     (min(i+off, n)) would cross the break and trap. *)
  for n = 1 to 80 do
    check_agrees (Printf.sprintf "n=%d tight off-by-one" n) (tight_spec ~n)
  done;
  (* And for the Clamp_expr path (runtime bound). *)
  List.iter
    (fun n ->
      check_agrees
        (Printf.sprintf "n=%d tight, param bound" n)
        { (tight_spec ~n) with Gen.bound = Gen.Bound_param })
    [ 1; 2; 63; 64; 65 ]

(* Loop-variant trip count: the inner loop's bound is loaded per outer
   iteration (len = L[i]; for j < len: acc += A[B[i*max+j]]).  The inner
   bound is a Var that is invariant w.r.t. the inner loop, so the pass
   clamps with Clamp_expr(len, -1); rows are packed back-to-back with the
   index array allocated last, so an unclamped or off-by-one look-ahead
   on the final row traps. *)
let variable_trip_kernel ~rows ~max_inner =
  let b = Builder.create ~name:"var_trip" ~nparams:4 in
  let a = Builder.param b 0 in
  let bp = Builder.param b 1 in
  let lens = Builder.param b 2 in
  let acc_loop tag bound body =
    let head = Builder.new_block b (tag ^ ".head") in
    let bodyb = Builder.new_block b (tag ^ ".body") in
    let exit = Builder.new_block b (tag ^ ".exit") in
    let entry = Builder.current_block b in
    Builder.br b head;
    Builder.set_block b head;
    let i = Builder.phi ~name:(tag ^ ".i") b [ (entry, Ir.Imm 0) ] in
    let acc = Builder.phi ~name:(tag ^ ".acc") b [ (entry, Ir.Imm 0) ] in
    let c = Builder.cmp b Ir.Slt i bound in
    Builder.cbr b c bodyb exit;
    Builder.set_block b bodyb;
    let acc' = body i acc in
    let i' = Builder.add b i (Ir.Imm 1) in
    let latch = Builder.current_block b in
    Builder.br b head;
    Builder.add_incoming b i ~pred:latch i';
    Builder.add_incoming b acc ~pred:latch acc';
    Builder.set_block b exit;
    acc
  in
  let total =
    acc_loop "i" (Ir.Imm rows) (fun i acc ->
        let len =
          Builder.load ~name:"len" b Ir.I32 (Builder.gep b lens i 4)
        in
        let row = Builder.gep ~name:"row" b bp (Builder.mul b i (Ir.Imm max_inner)) 4 in
        let inner =
          acc_loop "j" len (fun j jacc ->
              let k = Builder.load ~name:"key" b Ir.I32 (Builder.gep b row j 4) in
              Builder.add b jacc
                (Builder.load ~name:"v" b Ir.I32 (Builder.gep b a k 4)))
        in
        Builder.add b acc inner)
  in
  Builder.ret b (Some total);
  Builder.finish b

let build_variable_trip ~rows ~max_inner ~seed =
  let mem = Memory.create () in
  let rng = Spf_workloads.Rng.create ~seed in
  let len_a = 32 in
  let a_base =
    Memory.alloc_i32_array mem
      (Array.init len_a (fun _ -> Spf_workloads.Rng.int rng 100))
  in
  let lens = Array.init rows (fun _ -> Spf_workloads.Rng.int rng (max_inner + 1)) in
  let lens_base = Memory.alloc_i32_array mem lens in
  (* Index array LAST and exactly rows*max_inner entries: tight. *)
  let b_base =
    Memory.alloc_i32_array mem
      (Array.init (rows * max_inner) (fun _ -> Spf_workloads.Rng.int rng len_a))
  in
  (variable_trip_kernel ~rows ~max_inner, mem, [| a_base; b_base; lens_base; 0 |])

let run_once (func, mem, args) =
  let interp = Interp.create ~machine:Machine.haswell ~mem ~args func in
  Interp.run ~fuel:1_000_000 interp;
  (Interp.retval interp, Memory.digest mem)

let test_loop_variant_trip_counts () =
  List.iter
    (fun seed ->
      let original = run_once (build_variable_trip ~rows:24 ~max_inner:8 ~seed) in
      let func, mem, args = build_variable_trip ~rows:24 ~max_inner:8 ~seed in
      let report = Pass.run func in
      Helpers.verify_ok func;
      Alcotest.(check bool) "inner chain transformed" true
        (report.Pass.n_prefetches > 0);
      let transformed =
        match run_once (func, mem, args) with
        | r -> r
        | exception Interp.Trap f ->
            Alcotest.failf "transformed run trapped: %s (seed %d)"
              (Interp.fault_to_string f) seed
      in
      Alcotest.(check bool) "retval and memory preserved" true
        (original = transformed))
    [ 1; 2; 3; 4; 5 ]

(* --- An executable spec of the safety filters ---------------------------

   For each reject reason in [Safety.reject], one hand-built program the
   filter must reject (the pass emits nothing and records that reason)
   and one minimally-different twin it must accept (the pass emits at
   least one prefetch).  Both sides are then handed to the translation
   validator: a rejected program must prove trivially (zero proof
   obligations — the pass really did nothing), an accepted one must
   prove with at least one discharged look-ahead obligation. *)

module Config = Spf_core.Config
module Safety = Spf_core.Safety
module Validate = Spf_valid.Validate
module Model = Spf_valid.Model

let n_keys = 64
let len_t = 32

(* for i = 0; i < bound; i += step do body i done.  The body callback may
   open extra blocks; whatever block it leaves current becomes the latch. *)
let for_loop ?(step = 1) b ~bound body =
  let head = Builder.new_block b "head" in
  let bodyb = Builder.new_block b "body" in
  let exit = Builder.new_block b "exit" in
  let entry = Builder.current_block b in
  Builder.br b head;
  Builder.set_block b head;
  let i = Builder.phi ~name:"i" b [ (entry, Ir.Imm 0) ] in
  let c = Builder.cmp b Ir.Slt i bound in
  Builder.cbr b c bodyb exit;
  Builder.set_block b bodyb;
  body i;
  let i' = Builder.add b i (Ir.Imm step) in
  let latch = Builder.current_block b in
  Builder.br b head;
  Builder.add_incoming b i ~pred:latch i';
  Builder.set_block b exit

let with_func k =
  let b = Builder.create ~name:"spec" ~nparams:2 in
  k b (Builder.param b 0) (Builder.param b 1);
  Builder.ret b None;
  Builder.finish b

let chase_key b a i = Builder.load ~name:"k" b Ir.I32 (Builder.gep b a i 4)
let chase_val b tgt k = Builder.load ~name:"v" b Ir.I32 (Builder.gep b tgt k 4)

(* The baseline accept kernel: for i < 64: v = tgt[a[i]].  Its step-2
   twin may not clamp to the bound's 63, which it never visits; [a] is a
   parameter, so no allocation clamp is available either. *)
let k_indirect ~step () =
  with_func (fun b a tgt ->
      for_loop ~step b ~bound:(Ir.Imm n_keys) (fun i ->
          ignore (chase_val b tgt (chase_key b a i))))

let k_call ~pure () =
  with_func (fun b a tgt ->
      for_loop b ~bound:(Ir.Imm n_keys) (fun i ->
          let k = chase_key b a i in
          let h = Builder.call ~name:"h" b ~pure "mix" [ k ] in
          ignore (chase_val b tgt h)))

(* The index is the {e previous} iteration's key — a loop-carried,
   non-induction phi sits squarely in the address slice. *)
let k_non_iv_phi () =
  with_func (fun b a tgt ->
      let head = Builder.new_block b "head" in
      let bodyb = Builder.new_block b "body" in
      let exit = Builder.new_block b "exit" in
      let entry = Builder.current_block b in
      Builder.br b head;
      Builder.set_block b head;
      let i = Builder.phi ~name:"i" b [ (entry, Ir.Imm 0) ] in
      let prev = Builder.phi ~name:"prev" b [ (entry, Ir.Imm 0) ] in
      let c = Builder.cmp b Ir.Slt i (Ir.Imm n_keys) in
      Builder.cbr b c bodyb exit;
      Builder.set_block b bodyb;
      let k = chase_key b a i in
      ignore (chase_val b tgt prev);
      let i' = Builder.add b i (Ir.Imm 1) in
      let latch = Builder.current_block b in
      Builder.br b head;
      Builder.add_incoming b i ~pred:latch i';
      Builder.add_incoming b prev ~pred:latch k;
      Builder.set_block b exit)

let k_conditional () =
  with_func (fun b a tgt ->
      for_loop b ~bound:(Ir.Imm n_keys) (fun i ->
          let k = chase_key b a i in
          let thenb = Builder.new_block b "then" in
          let joinb = Builder.new_block b "join" in
          let c = Builder.cmp b Ir.Slt k (Ir.Imm (len_t / 2)) in
          Builder.cbr b c thenb joinb;
          Builder.set_block b thenb;
          ignore (chase_val b tgt k);
          Builder.br b joinb;
          Builder.set_block b joinb))

(* Two latches: the increment is shared but the back-edge is taken from
   either of two blocks depending on the loaded value. *)
let k_multi_latch () =
  with_func (fun b a tgt ->
      let head = Builder.new_block b "head" in
      let bodyb = Builder.new_block b "body" in
      let l1 = Builder.new_block b "l1" in
      let l2 = Builder.new_block b "l2" in
      let exit = Builder.new_block b "exit" in
      let entry = Builder.current_block b in
      Builder.br b head;
      Builder.set_block b head;
      let i = Builder.phi ~name:"i" b [ (entry, Ir.Imm 0) ] in
      let c = Builder.cmp b Ir.Slt i (Ir.Imm n_keys) in
      Builder.cbr b c bodyb exit;
      Builder.set_block b bodyb;
      let k = chase_key b a i in
      let v = chase_val b tgt k in
      let i' = Builder.add b i (Ir.Imm 1) in
      let cv = Builder.cmp b Ir.Slt v (Ir.Imm 500) in
      Builder.cbr b cv l1 l2;
      Builder.set_block b l1;
      Builder.br b head;
      Builder.set_block b l2;
      Builder.br b head;
      Builder.add_incoming b i ~pred:l1 i';
      Builder.add_incoming b i ~pred:l2 i';
      Builder.set_block b exit)

(* Descending induction variable: i = 63 down to 0, step -1. *)
let k_descending () =
  with_func (fun b a tgt ->
      let head = Builder.new_block b "head" in
      let bodyb = Builder.new_block b "body" in
      let exit = Builder.new_block b "exit" in
      let entry = Builder.current_block b in
      Builder.br b head;
      Builder.set_block b head;
      let i = Builder.phi ~name:"i" b [ (entry, Ir.Imm (n_keys - 1)) ] in
      let c = Builder.cmp b Ir.Sgt i (Ir.Imm (-1)) in
      Builder.cbr b c bodyb exit;
      Builder.set_block b bodyb;
      ignore (chase_val b tgt (chase_key b a i));
      let i' = Builder.add b i (Ir.Imm (-1)) in
      let latch = Builder.current_block b in
      Builder.br b head;
      Builder.add_incoming b i ~pred:latch i';
      Builder.set_block b exit)

let k_store ~into_index () =
  let b = Builder.create ~name:"spec" ~nparams:3 in
  let a = Builder.param b 0
  and tgt = Builder.param b 1
  and out = Builder.param b 2 in
  for_loop b ~bound:(Ir.Imm n_keys) (fun i ->
      let v = chase_val b tgt (chase_key b a i) in
      let dst = if into_index then a else out in
      Builder.store b Ir.I32 (Builder.gep b dst i 4) v);
  Builder.ret b None;
  Builder.finish b

(* A search loop: a second exit edge (break on sentinel) means no single
   exit condition, so no clamp can be derived. *)
let k_break () =
  with_func (fun b a tgt ->
      let head = Builder.new_block b "head" in
      let bodyb = Builder.new_block b "body" in
      let cont = Builder.new_block b "cont" in
      let exit = Builder.new_block b "exit" in
      let entry = Builder.current_block b in
      Builder.br b head;
      Builder.set_block b head;
      let i = Builder.phi ~name:"i" b [ (entry, Ir.Imm 0) ] in
      let c = Builder.cmp b Ir.Slt i (Ir.Imm n_keys) in
      Builder.cbr b c bodyb exit;
      Builder.set_block b bodyb;
      let v = chase_val b tgt (chase_key b a i) in
      let hit = Builder.cmp b Ir.Eq v (Ir.Imm 999_999) in
      Builder.cbr b hit exit cont;
      Builder.set_block b cont;
      let i' = Builder.add b i (Ir.Imm 1) in
      Builder.br b head;
      Builder.add_incoming b i ~pred:cont i';
      Builder.set_block b exit)

(* The induction variable reaches the index load through a multiply, not
   directly as a gep index: k = a[2*i]. *)
let k_strided_index () =
  with_func (fun b a tgt ->
      for_loop b ~bound:(Ir.Imm n_keys) (fun i ->
          let i2 = Builder.mul ~name:"i2" b i (Ir.Imm 2) in
          ignore (chase_val b tgt (chase_key b a i2))))

let k_pure_stride () =
  with_func (fun b a _tgt ->
      for_loop b ~bound:(Ir.Imm n_keys) (fun i -> ignore (chase_key b a i)))

let k_duplicate () =
  with_func (fun b a tgt ->
      for_loop b ~bound:(Ir.Imm n_keys) (fun i ->
          let k = chase_key b a i in
          let addr = Builder.gep b tgt k 4 in
          ignore (Builder.load ~name:"v1" b Ir.I32 addr);
          ignore (Builder.load ~name:"v2" b Ir.I32 addr)))

let k_two_targets () =
  let b = Builder.create ~name:"spec" ~nparams:3 in
  let a = Builder.param b 0
  and tgt = Builder.param b 1
  and tgt2 = Builder.param b 2 in
  for_loop b ~bound:(Ir.Imm n_keys) (fun i ->
      let k = chase_key b a i in
      ignore (chase_val b tgt k);
      ignore (chase_val b tgt2 k));
  Builder.ret b None;
  Builder.finish b

(* The only load in the loop has a loop-invariant address. *)
let k_invariant_addr () =
  with_func (fun b _a tgt ->
      for_loop b ~bound:(Ir.Imm n_keys) (fun _i ->
          ignore (Builder.load b Ir.I32 (Builder.gep b tgt (Ir.Imm 0) 4))))

(* Environments.  Target values are all zero so kernels that fold loaded
   values into addresses (k_non_iv_phi) stay inside the mapping. *)
let alloc_arrays ~extra () =
  let mem = Memory.create () in
  let rng = Spf_workloads.Rng.create ~seed:7 in
  let a =
    Memory.alloc_i32_array mem
      (Array.init n_keys (fun _ -> Spf_workloads.Rng.int rng len_t))
  in
  let tgt = Memory.alloc_i32_array mem (Array.make len_t 0) in
  match extra with
  | false -> (mem, [| a; tgt |])
  | true ->
      let third = Memory.alloc_i32_array mem (Array.make (2 * n_keys) 0) in
      (mem, [| a; tgt; third |])

let env2 () = alloc_arrays ~extra:false ()
let env3 () = alloc_arrays ~extra:true ()

type expect =
  | Rejects of Safety.reject  (** that reason recorded, nothing emitted *)
  | Emits  (** at least one prefetch *)
  | Emits_and_rejects of Safety.reject
      (** prefetches for one chain, that reason for another (Duplicate) *)

type row = {
  row : string;
  config : Config.t;
  build : unit -> Ir.func;
  env : unit -> Memory.t * int array;
  expect : expect;
}

let rows =
  let std = Config.default in
  [
    { row = "baseline accept"; config = std; build = k_indirect ~step:1;
      env = env2; expect = Emits };
    { row = "step-2 twin rejects (bound clamp needs unit step)"; config = std;
      build = k_indirect ~step:2; env = env2;
      expect = Rejects Safety.Non_unit_step };
    { row = "call rejects"; config = std; build = k_call ~pure:false;
      env = env2; expect = Rejects Safety.Contains_call };
    { row = "pure call accepts when allowed";
      config = { std with Config.allow_pure_calls = true };
      build = k_call ~pure:true; env = env2; expect = Emits };
    { row = "non-IV phi rejects"; config = std; build = k_non_iv_phi;
      env = env2; expect = Rejects Safety.Non_iv_phi };
    { row = "conditional load rejects"; config = std; build = k_conditional;
      env = env2; expect = Rejects Safety.Conditional_code };
    (* A two-latch loop has a 3-predecessor header, so no phi is ever
       recognised as an induction variable and the candidate dies before
       the dedicated Multi_latch filter (which is defence in depth).
       The observable contract — multi-latch loops are never
       transformed — is what this row pins. *)
    { row = "two latches reject"; config = std; build = k_multi_latch;
      env = env2; expect = Rejects Safety.No_candidate };
    { row = "descending step rejects"; config = std; build = k_descending;
      env = env2; expect = Rejects Safety.Bad_step };
    { row = "store into index array rejects"; config = std;
      build = k_store ~into_index:true; env = env3;
      expect = Rejects Safety.Store_alias };
    { row = "store into distinct array accepts"; config = std;
      build = k_store ~into_index:false; env = env3; expect = Emits };
    { row = "break exit rejects (no clamp)"; config = std; build = k_break;
      env = env2; expect = Rejects Safety.No_clamp };
    { row = "strided index rejects"; config = std; build = k_strided_index;
      env = env2; expect = Rejects Safety.Indirect_iv_use };
    { row = "pure stride rejects"; config = std; build = k_pure_stride;
      env = env2; expect = Rejects Safety.Pure_stride };
    { row = "duplicate chain rejects the copy"; config = std;
      build = k_duplicate; env = env2;
      expect = Emits_and_rejects Safety.Duplicate };
    { row = "distinct targets both accept"; config = std;
      build = k_two_targets; env = env3; expect = Emits };
    { row = "invariant address rejects"; config = std;
      build = k_invariant_addr; env = env2;
      expect = Rejects Safety.No_candidate };
  ]

let decision_to_string = function
  | Pass.Emitted _ -> "emitted"
  | Pass.Hoisted _ -> "hoisted"
  | Pass.Rejected r -> "rejected:" ^ Safety.string_of_reject r
  | Pass.Skipped _ -> "skipped"

let check_row r =
  let orig = r.build () in
  let xform = r.build () in
  let report = Pass.run ~config:r.config xform in
  Helpers.verify_ok xform;
  let decisions =
    List.map (fun (_, d) -> decision_to_string d) report.Pass.decisions
    |> String.concat ", "
  in
  let require_reason reason =
    let hit =
      List.exists
        (function _, Pass.Rejected rr -> rr = reason | _ -> false)
        report.Pass.decisions
    in
    if not hit then
      Alcotest.failf "%s: expected a %s rejection, decisions: [%s]" r.row
        (Safety.string_of_reject reason)
        decisions
  in
  (match r.expect with
  | Rejects reason ->
      if report.Pass.n_prefetches <> 0 then
        Alcotest.failf "%s: expected no prefetches, got %d [%s]" r.row
          report.Pass.n_prefetches decisions;
      require_reason reason
  | Emits ->
      if report.Pass.n_prefetches = 0 then
        Alcotest.failf "%s: expected a prefetch, decisions: [%s]" r.row
          decisions
  | Emits_and_rejects reason ->
      if report.Pass.n_prefetches = 0 then
        Alcotest.failf "%s: expected a prefetch, decisions: [%s]" r.row
          decisions;
      require_reason reason);
  let env = { Model.fresh = r.env; Model.fuel = 10_000_000 } in
  match Validate.check ~env ~orig ~xform () with
  | Validate.Proved { obligations; _ } -> (
      match r.expect with
      | Rejects _ ->
          Alcotest.(check int) (r.row ^ ": proved with no obligations") 0
            obligations
      | Emits | Emits_and_rejects _ ->
          Alcotest.(check bool)
            (r.row ^ ": proved with a look-ahead obligation")
            true (obligations > 0))
  | Validate.Refuted { detail; _ } ->
      Alcotest.failf "%s: validator refuted the pass: %s" r.row detail
  | Validate.Gave_up why ->
      Alcotest.failf "%s: validator gave up: %s" r.row why

let test_filter_spec () = List.iter check_row rows

let suite =
  [
    Alcotest.test_case "zero-length arrays" `Quick test_zero_length_array;
    Alcotest.test_case "single iteration" `Quick test_single_iteration;
    Alcotest.test_case "offset overruns bound by one" `Quick
      test_offset_overruns_bound_by_one;
    Alcotest.test_case "loop-variant trip counts" `Quick
      test_loop_variant_trip_counts;
    Alcotest.test_case "safety filter executable spec" `Quick
      test_filter_spec;
  ]
