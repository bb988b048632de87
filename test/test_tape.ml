module Ir = Spf_ir.Ir
module Builder = Spf_ir.Builder
module Memory = Spf_sim.Memory
module Interp = Spf_sim.Interp
module Machine = Spf_sim.Machine
module Stats = Spf_sim.Stats
module Engine = Spf_sim.Engine
module Tape = Spf_sim.Tape

(* Corner cases of the micro-op tape engine: superblock seams must not
   coarsen any observable granularity.  A trap inside a superblock, fuel
   running out at a fused micro-op, and cooperative cancellation must all
   leave exactly the stats the classic interpreter leaves — the
   superblock is a decode-time layout trick, not an execution-time
   batching of blocks. *)

let stats_equal what (a : Stats.t) (b : Stats.t) =
  match Stats.first_mismatch a b with
  | None -> ()
  | Some (field, i, t) ->
      Alcotest.failf "%s: stats diverge at %s: interp=%d tape=%d" what field i
        t

(* A straightline four-block chain (entry -> b1 -> b2 -> b3) of
   unconditional branches — the shape superblock formation folds into a
   single tape segment with three seams.  Each block does real work (a
   load) so stats accumulate per block; the last block traps. *)
let chain_trap_func () =
  let b = Builder.create ~name:"chain" ~nparams:1 in
  let a = Builder.param b 0 in
  let b1 = Builder.new_block b "b1" in
  let b2 = Builder.new_block b "b2" in
  let b3 = Builder.new_block b "b3" in
  let v0 = Builder.load b Ir.I32 (Builder.gep b a (Ir.Imm 0) 4) in
  Builder.br b b1;
  Builder.set_block b b1;
  let v1 = Builder.load b Ir.I32 (Builder.gep b a (Ir.Imm 1) 4) in
  Builder.br b b2;
  Builder.set_block b b2;
  let v2 = Builder.load b Ir.I32 (Builder.gep b a (Ir.Imm 2) 4) in
  Builder.br b b3;
  Builder.set_block b b3;
  let bad = Builder.load b Ir.I64 (Ir.Imm max_int) in
  let s = Builder.add b (Builder.add b v0 v1) (Builder.add b v2 bad) in
  Builder.ret b (Some s);
  Builder.finish b

let test_chain_forms_superblock () =
  let p = Tape.get ~tscale:Interp.default_tscale (chain_trap_func ()) in
  Alcotest.(check int) "three interior edges become seams" 3 (Tape.seams p)

let test_trap_mid_superblock () =
  (* The trap sits in the final constituent block of the superblock: the
     three earlier blocks' retired instructions and refreshed cycle
     counter must be visible in the stats-so-far, exactly as the
     interpreter (which never fused the blocks) reports them. *)
  let fault_of engine =
    let mem = Memory.create () in
    let a = Memory.alloc_i32_array mem [| 10; 20; 30; 40 |] in
    let st =
      Interp.create ~machine:Machine.haswell ~engine ~mem ~args:[| a |]
        (chain_trap_func ())
    in
    match Interp.run ~fuel:1000 st with
    | () -> Alcotest.fail "chain did not trap"
    | exception Interp.Trap f -> (f, Interp.stats st)
  in
  let fi, si = fault_of Engine.Interp in
  let ft, st = fault_of Engine.Tape in
  Alcotest.(check int) "same faulting pc" fi.Interp.pc ft.Interp.pc;
  Alcotest.(check int) "same faulting addr" fi.Interp.addr ft.Interp.addr;
  Alcotest.(check bool)
    "same access kind" fi.Interp.is_store ft.Interp.is_store;
  Alcotest.(check bool) "loads retired before the trap" true (si.loads >= 3);
  stats_equal "trap mid-superblock" si st

let test_fuel_exhaustion_at_fused_gep_load () =
  (* b[a[i]]++ compiles with fused GEP+load (and GEP+store) micro-ops.
     Exhaust the fuel mid-loop: the tape and the interpreter must have
     executed the same number of blocks, leaving identical stats, even
     though the tape's loop body retires two instructions per fused
     op. *)
  let run engine =
    let mem = Memory.create () in
    let n = 64 in
    let rng = Spf_workloads.Rng.create ~seed:11 in
    let a =
      Memory.alloc_i32_array mem
        (Array.init n (fun _ -> Spf_workloads.Rng.int rng n))
    in
    let tgt = Memory.alloc mem (4 * n) in
    let st =
      Interp.create ~machine:Machine.haswell ~engine ~mem ~args:[| a; tgt |]
        (Helpers.is_like_kernel ~n)
    in
    match Interp.run ~fuel:25 st with
    | () -> Alcotest.fail "kernel finished inside 25 blocks"
    | exception Interp.Fuel_exhausted -> Interp.stats st
  in
  let si = run Engine.Interp and st = run Engine.Tape in
  Alcotest.(check bool) "made progress before fuel ran out" true
    (si.Stats.instructions > 0);
  stats_equal "fuel exhaustion at fused micro-ops" si st

let test_cancellation_same_block_count () =
  (* An already-expired token and an infinite arithmetic loop: every engine
     polls at the same 1024-block granularity, so the stats carried by
     [Cancelled] — instruction count included — must be identical across
     both, tape seams notwithstanding. *)
  let spin () =
    let b = Builder.create ~name:"spin" ~nparams:0 in
    let head = Builder.new_block b "head" in
    let entry = Builder.current_block b in
    Builder.br b head;
    Builder.set_block b head;
    let i = Builder.phi b [ (entry, Ir.Imm 0) ] in
    let i' = Builder.add b i (Ir.Imm 1) in
    Builder.add_incoming b i ~pred:head i';
    Builder.br b head;
    Builder.finish b
  in
  let cancelled_stats engine =
    let cancel = Interp.new_cancel ~until:0. in
    let st =
      Interp.create ~machine:Machine.haswell ~engine ~cancel
        ~mem:(Memory.create ()) ~args:[||] (spin ())
    in
    match Interp.run ~fuel:1_000_000 st with
    | () -> Alcotest.fail "infinite loop returned"
    | exception Interp.Cancelled stats -> stats
  in
  let si = cancelled_stats Engine.Interp in
  Alcotest.(check bool) "blocks ran before the poll" true
    (si.Stats.instructions > 0);
  stats_equal "cancellation block count (tape)" si
    (cancelled_stats Engine.Tape)

let test_decode_cache_across_tscale () =
  (* The decode cache is keyed by (tscale, signature): structurally
     identical functions share a tape, but a tape decoded at one tscale
     is never served at another — latencies are pre-scaled into the
     tape, so that would corrupt every timing number. *)
  let f () = Helpers.sum_kernel ~n:24 in
  let h0, m0 = Tape.cache_counters () in
  let p_a = Tape.get ~tscale:7 (f ()) in
  let p_a' = Tape.get ~tscale:7 (f ()) in
  let p_b = Tape.get ~tscale:9 (f ()) in
  let h1, m1 = Tape.cache_counters () in
  Alcotest.(check bool) "structural re-decode hits" true (p_a == p_a');
  Alcotest.(check bool) "tscale change misses" true (not (p_b == p_a));
  Alcotest.(check bool) "hit counted" true (h1 > h0);
  Alcotest.(check bool) "two misses counted" true (m1 >= m0 + 2);
  let p_a'' = Tape.get ~tscale:7 (f ()) in
  Alcotest.(check bool) "original tscale still cached" true (p_a'' == p_a)

let suite =
  [
    Alcotest.test_case "unconditional chain forms one superblock" `Quick
      test_chain_forms_superblock;
    Alcotest.test_case "trap mid-superblock keeps interp stats" `Quick
      test_trap_mid_superblock;
    Alcotest.test_case "fuel exhaustion at fused gep+load" `Quick
      test_fuel_exhaustion_at_fused_gep_load;
    Alcotest.test_case "cancellation at identical block count" `Quick
      test_cancellation_same_block_count;
    Alcotest.test_case "decode cache keyed by tscale" `Quick
      test_decode_cache_across_tscale;
  ]
