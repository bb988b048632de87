(* One request through verify -> pass -> simulate, memoised at both
   cache levels.

   The byte-identity discipline: the body a client sees is either the
   cached string (hits) or the string that was just rendered and cached
   (cold) — one rendering path, one canonical transformed program
   ([Parser.parse pass_entry.tfunc_text], cold or hot), so a hit can
   never differ from its cold run by a byte.

   Everything here runs on a pool domain under the supervisor: the
   cancellation token in the {!Spf_harness.Runner.ctx} is threaded into
   the simulation so a deadline fires mid-run, and every deliberate
   failure (parse error, verifier violation, demand fault, fuel) is a
   deterministic property of the request — the supervisor classifies it,
   the server maps it to an [ERR] reply, and the fleet keeps going. *)

module Ir = Spf_ir.Ir
module Parser = Spf_ir.Parser
module Printer = Spf_ir.Printer
module Verifier = Spf_ir.Verifier
module Pass = Spf_core.Pass
module Interp = Spf_sim.Interp
module Stats = Spf_sim.Stats
module Case = Spf_valid.Case
module Runner = Spf_harness.Runner
module Profile_guided = Spf_harness.Profile_guided

type status = Cold | Pass_hit | Sim_hit

let status_to_string = function
  | Cold -> "cold"
  | Pass_hit -> "pass-hit"
  | Sim_hit -> "sim-hit"

type reply = { body : string list; status : status }

type prepared = {
  req : Proto.request;
  case : Case.t;
  pass_key : string;
  sim_key : string;
}

(* Parse and key the request.  Runs on the connection thread for a
   request the request index does not know (the sim key enables the
   inline sim-level hit); a malformed payload surfaces here as
   [Parse_error]. *)
let prepare (req : Proto.request) =
  let case = Case.parse req.case_text in
  let sig_digest =
    Digest.to_hex (Digest.string (Ir.signature case.Case.func))
  in
  let pass_key = Rcache.pass_key ~sig_digest ~config:req.config in
  let sim_key =
    Rcache.sim_key ~pass_key ~env:(Rcache.env_digest case)
      ~machine:req.machine ~engine:req.engine ~tscale:req.tscale
  in
  { req; case; pass_key; sim_key }

let sim_hit body = { body = String.split_on_char '\n' body; status = Sim_hit }
let try_hit ~cache p = Option.map sim_hit (Rcache.find_sim cache p.sim_key)

type inline = Hit of reply | Miss of prepared

(* The connection thread's part of a request.  A request seen before is
   answered from the request index without a parse; otherwise it is
   prepared, its sim key indexed (a payload that fails to parse raises
   first, so it never gets an entry), and the sim level tried. *)
let inline ~cache (req : Proto.request) =
  let request_key =
    Rcache.request_key ~case_text:req.case_text ~config:req.config
      ~machine:req.machine ~engine:req.engine ~tscale:req.tscale
  in
  match Rcache.find_request cache request_key with
  | Some body -> Hit (sim_hit body)
  | None -> (
      let p = prepare req in
      Rcache.add_request cache request_key ~sim_key:p.sim_key;
      match try_hit ~cache p with Some r -> Hit r | None -> Miss p)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let render_report (ld : Pass.loop_distance list) ~n_prefetches ~n_support =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "R prefetches=%d support=%d loops=%d" n_prefetches
       n_support (List.length ld));
  List.iter
    (fun (d : Pass.loop_distance) ->
      Buffer.add_string b
        (Printf.sprintf "\nR loop bb%d: c=%d %s %s" d.Pass.header
           d.Pass.distance
           (if d.Pass.enabled then "enabled" else "disabled")
           (match d.Pass.dist_slot with
           | Some s -> Printf.sprintf "reg=%d" s
           | None -> "static")))
    ld;
  Buffer.contents b

let render_result ~report_text ~(stats : Stats.t) ~retval =
  let b = Buffer.create 512 in
  Buffer.add_string b report_text;
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "\nS %s %d" name v))
    (Stats.fields stats);
  Buffer.add_string b
    (match retval with
    | Some v -> Printf.sprintf "\nV %d" v
    | None -> "\nV -");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The pipeline.                                                       *)

let compile ~cache p =
  match Rcache.find_pass cache p.pass_key with
  | Some e -> (e, Pass_hit)
  | None ->
      (* The pass mutates in place; [p.case.func] is this request's own
         parse, so mutation is private.  Verify on both sides: garbage
         in is rejected, and a pass bug cannot serve garbage out. *)
      Verifier.check_exn p.case.Case.func;
      let report = Pass.run ~config:p.req.Proto.config p.case.Case.func in
      Verifier.check_exn p.case.Case.func;
      let n_prefetches, n_support =
        Pass.count_prefetches report.Pass.decisions
      in
      let e =
        {
          Rcache.tfunc_text = Printer.func_to_string p.case.Case.func;
          report_text =
            render_report report.Pass.loop_distances ~n_prefetches ~n_support;
          loop_distances = report.Pass.loop_distances;
          adaptive = report.Pass.adaptive;
        }
      in
      Rcache.add_pass cache p.pass_key e;
      (e, Cold)

let simulate ~(ctx : Runner.ctx) p (e : Rcache.pass_entry) =
  (* The canonical simulated program is the re-parse of the cached text
     on every path — the cold run included — so cold and pass-hit
     simulate structurally identical functions by construction (the
     printer round-trips instruction ids). *)
  let tfunc = Parser.parse e.Rcache.tfunc_text in
  let tuner =
    Profile_guided.tuner_of_distances ~machine:p.req.Proto.machine tfunc
      ~adaptive:e.Rcache.adaptive e.Rcache.loop_distances
  in
  let env = Case.to_env p.case in
  let mem, args = env.Spf_valid.Model.fresh () in
  let engine =
    match ctx.Runner.engine with Some e -> e | None -> p.req.Proto.engine
  in
  let inst =
    Interp.create ~machine:p.req.Proto.machine ~tscale:p.req.Proto.tscale
      ?cancel:ctx.Runner.cancel ?tuner ~engine ~mem ~args tfunc
  in
  (* Every exit — trap, fuel, cancellation included — hands the cache
     tag arrays back, so the next request on this domain reuses them. *)
  Fun.protect
    ~finally:(fun () -> Interp.release inst)
    (fun () ->
      Interp.run ~fuel:env.Spf_valid.Model.fuel inst;
      (Interp.stats inst, Interp.retval inst))

(* Full pipeline for one prepared request; runs on a pool domain.
   @raise on any deliberate failure — the supervisor classifies it. *)
let run ~cache ~ctx p =
  match try_hit ~cache p with
  | Some r -> r
  | None ->
      let e, status = compile ~cache p in
      let stats, retval = simulate ~ctx p e in
      let body = render_result ~report_text:e.Rcache.report_text ~stats ~retval in
      Rcache.add_sim cache p.sim_key body;
      { body = String.split_on_char '\n' body; status }

(* Human-readable single-line message for an [ERR] reply. *)
let describe_error = function
  | Parser.Parse_error { line; msg } ->
      Printf.sprintf "parse error at line %d: %s" line msg
  | Interp.Trap fault -> "demand fault: " ^ Interp.fault_to_string fault
  | Interp.Fuel_exhausted -> "fuel exhausted (program spins?)"
  | Invalid_argument msg -> "invalid program: " ^ msg
  | Failure msg -> msg
  | Interp.Cancelled _ -> "deadline exceeded"
  | exn -> Printexc.to_string exn
