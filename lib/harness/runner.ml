module Interp = Spf_sim.Interp
module Machine = Spf_sim.Machine
module Stats = Spf_sim.Stats
module Workload = Spf_workloads.Workload

(* Run one built workload instance on one machine, verifying the IR and
   validating the result checksum — every number the harness reports comes
   from a semantically-checked execution. *)

type result = { stats : Stats.t; machine : string; bench : string }

(* Per-job execution context: everything a supervisor may want to vary
   or revoke under a running job.  [engine = None] means the engine
   default; [cancel] is the cooperative cancellation token carrying the
   attempt's deadline. *)
type ctx = {
  engine : Spf_sim.Engine.t option;
  cancel : Spf_sim.Exec_state.cancel option;
}

let null_ctx = { engine = None; cancel = None }
let ctx_of_engine engine = { engine; cancel = None }

let run ?fuel ?engine ?cancel ?attrib ?tuner ~(machine : Machine.t)
    (b : Workload.built) : result =
  (match Spf_ir.Verifier.check b.func with
  | [] -> ()
  | vs ->
      let msg =
        String.concat "; "
          (List.map (Format.asprintf "%a" Spf_ir.Verifier.pp_violation) vs)
      in
      failwith (Printf.sprintf "%s: verifier: %s" b.name msg));
  let interp =
    Interp.create ~machine ?engine ?cancel ?attrib ?tuner ~mem:b.mem
      ~args:b.args b.func
  in
  Interp.run ?fuel interp;
  Workload.validate b ~retval:(Interp.retval interp);
  { stats = Interp.stats interp; machine = machine.name; bench = b.name }

let run_ctx (c : ctx) ?fuel ?attrib ?tuner ~machine b =
  run ?fuel ?engine:c.engine ?cancel:c.cancel ?attrib ?tuner ~machine b

let cycles r = r.stats.Stats.cycles

let speedup ~baseline r =
  float_of_int (cycles baseline) /. float_of_int (cycles r)

let extra_instructions ~baseline r =
  let b = baseline.stats.Stats.instructions in
  100.0 *. float_of_int (r.stats.Stats.instructions - b) /. float_of_int b
