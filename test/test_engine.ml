module Ir = Spf_ir.Ir
module Builder = Spf_ir.Builder
module Memory = Spf_sim.Memory
module Interp = Spf_sim.Interp
module Machine = Spf_sim.Machine
module Stats = Spf_sim.Stats
module Engine = Spf_sim.Engine
module Benches = Spf_harness.Benches
module Runner = Spf_harness.Runner

(* Cross-engine equivalence: the micro-op tape engine must be
   bit-identical to the classic interpreter — same return value, same
   fourteen stats counters, same traps and same fuel behaviour — on
   fused-GEP code, intrinsic calls, both timing models, and the real
   benchmark kernels. *)

let run_with ~engine ?(machine = Machine.haswell) ?(fuel = 10_000_000)
    ~mem ~args func =
  let interp = Interp.create ~machine ~engine ~mem ~args func in
  Interp.run ~fuel interp;
  (Interp.retval interp, Interp.stats interp)

(* Run [build] (a fresh memory/args/func per engine so no run sees
   another's side effects) under both engines and insist on equality,
   naming the first diverging stats counter in the failure message. *)
let check_both ?machine ?fuel ~what build =
  let run engine =
    let mem, args, func = build () in
    run_with ~engine ?machine ?fuel ~mem ~args func
  in
  let ret_i, st_i = run Engine.Interp in
  let ret_t, st_t = run Engine.Tape in
  if ret_i <> ret_t then
    Alcotest.failf "%s: retval differs: interp=%s tape=%s" what
      (match ret_i with Some v -> string_of_int v | None -> "none")
      (match ret_t with Some v -> string_of_int v | None -> "none");
  match Stats.first_mismatch st_i st_t with
  | None -> ()
  | Some (field, i, t) ->
      Alcotest.failf "%s: stats diverge at %s: interp=%d tape=%d" what field
        i t

let test_sum_kernel () =
  check_both ~what:"sum kernel" (fun () ->
      let mem = Memory.create () in
      let base = Memory.alloc_i32_array mem (Array.init 500 (fun i -> i)) in
      (mem, [| base |], Helpers.sum_kernel ~n:500))

let test_fused_gep_store () =
  (* b[a[i]]++ : both the load and the store consume single-use GEPs, so
     this exercises the tape engine's fused micro-ops on both paths. *)
  check_both ~what:"is-like kernel (fused geps)" (fun () ->
      let mem = Memory.create () in
      let n = 256 in
      let rng = Spf_workloads.Rng.create ~seed:7 in
      let a =
        Memory.alloc_i32_array mem
          (Array.init n (fun _ -> Spf_workloads.Rng.int rng n))
      in
      let tgt = Memory.alloc mem (4 * n) in
      (mem, [| a; tgt |], Helpers.is_like_kernel ~n))

let test_unfused_gep () =
  (* A GEP with two consumers must not be fused; both engines still agree. *)
  check_both ~what:"multi-use gep" (fun () ->
      let mem = Memory.create () in
      let base = Memory.alloc_i32_array mem [| 11; 22; 33 |] in
      let b = Builder.create ~name:"t" ~nparams:1 in
      let p = Builder.param b 0 in
      let g = Builder.gep b p (Ir.Imm 1) 4 in
      let v = Builder.load b Ir.I32 g in
      Builder.store b Ir.I32 g (Builder.add b v (Ir.Imm 1));
      let v2 = Builder.load b Ir.I32 g in
      Builder.ret b (Some v2);
      (mem, [| base |], Builder.finish b))

let test_in_order_machine () =
  check_both ~machine:Machine.a53 ~what:"in-order timing model" (fun () ->
      let mem = Memory.create () in
      let n = 512 in
      let rng = Spf_workloads.Rng.create ~seed:3 in
      let a =
        Memory.alloc_i32_array mem
          (Array.init n (fun _ -> Spf_workloads.Rng.int rng (1 lsl 16)))
      in
      let tgt = Memory.alloc mem (4 * (1 lsl 16)) in
      (mem, [| a; tgt |], Helpers.is_like_kernel ~n))

let test_benches_agree () =
  (* The real kernels, plain and pass-transformed (the latter adds the
     prefetch intrinsics and address-computation slices).  The golden
     suite already pins IS/CG/RA/HJ bit-exactly under both engines, so
     this only runs the benches golden leaves out (the Graph500 BFS,
     whose data-dependent traversal is the shape golden lacks). *)
  List.iter
    (fun (b : Benches.bench) ->
      List.iter
        (fun (variant, build) ->
          (* [Runner.run] validates the result checksum internally, so a
             value divergence would already fail the run; what's left to
             compare is the timing/stats fingerprint. *)
          let r_i = Runner.run ~engine:Engine.Interp ~machine:Machine.haswell (build ()) in
          let r_t = Runner.run ~engine:Engine.Tape ~machine:Machine.haswell (build ()) in
          match Stats.first_mismatch r_i.Runner.stats r_t.Runner.stats with
          | None -> ()
          | Some (field, i, t) ->
              Alcotest.failf
                "%s/%s: engine divergence at %s: interp=%d tape=%d" b.id
                variant field i t)
        [
          ("plain", fun () -> b.plain ());
          ("auto", fun () -> Benches.auto (b.plain ()));
        ])
    (List.filter
       (fun (b : Benches.bench) -> b.id = "G500-s16")
       (Benches.all ()))

let test_trap_identical () =
  let build () =
    let b = Builder.create ~name:"t" ~nparams:0 in
    let v = Builder.load b Ir.I64 (Ir.Imm max_int) in
    Builder.ret b (Some v);
    Builder.finish b
  in
  let fault engine =
    match
      run_with ~engine ~mem:(Memory.create ()) ~args:[||] (build ())
    with
    | _ -> Alcotest.fail "out-of-range load did not trap"
    | exception Interp.Trap f -> f
  in
  let fi = fault Engine.Interp and ft = fault Engine.Tape in
  Alcotest.(check int) "same faulting pc" fi.Interp.pc ft.Interp.pc;
  Alcotest.(check int) "same faulting addr" fi.Interp.addr ft.Interp.addr;
  Alcotest.(check int) "same faulting width" fi.Interp.width ft.Interp.width;
  Alcotest.(check bool)
    "same access kind" fi.Interp.is_store ft.Interp.is_store

let test_fuel_identical () =
  let build () =
    let b = Builder.create ~name:"spin" ~nparams:0 in
    let head = Builder.new_block b "head" in
    Builder.br b head;
    Builder.set_block b head;
    Builder.br b head;
    Builder.finish b
  in
  List.iter
    (fun engine ->
      match
        run_with ~engine ~fuel:1000 ~mem:(Memory.create ()) ~args:[||]
          (build ())
      with
      | _ -> Alcotest.failf "%s: infinite loop terminated" (Engine.to_string engine)
      | exception Interp.Fuel_exhausted -> ())
    Engine.all

let test_intrinsic_identical () =
  let build () =
    let b = Builder.create ~name:"t" ~nparams:1 in
    let v = Builder.call b ~pure:true "triple" [ Builder.param b 0 ] in
    Builder.ret b (Some v);
    Builder.finish b
  in
  List.iter
    (fun engine ->
      let interp =
        Interp.create ~machine:Machine.haswell ~engine ~mem:(Memory.create ())
          ~args:[| 14 |] (build ())
      in
      Interp.register_intrinsic interp "triple" (fun args -> 3 * args.(0));
      Interp.run interp;
      Alcotest.(check (option int))
        (Engine.to_string engine ^ " intrinsic result")
        (Some 42) (Interp.retval interp))
    Engine.all

let suite =
  [
    Alcotest.test_case "sum kernel" `Quick test_sum_kernel;
    Alcotest.test_case "fused geps" `Quick test_fused_gep_store;
    Alcotest.test_case "multi-use gep unfused" `Quick test_unfused_gep;
    Alcotest.test_case "in-order machine" `Quick test_in_order_machine;
    Alcotest.test_case "benches agree" `Slow test_benches_agree;
    Alcotest.test_case "traps identical" `Quick test_trap_identical;
    Alcotest.test_case "fuel identical" `Quick test_fuel_identical;
    Alcotest.test_case "intrinsics identical" `Quick test_intrinsic_identical;
  ]
