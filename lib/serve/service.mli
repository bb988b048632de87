(** One request through verify -> pass -> simulate, memoised at both
    levels of the {!Rcache}.

    The byte-identity discipline: one rendering path and one canonical
    transformed program (the re-parse of the cached transformed-IR text,
    cold or hot), so a cache hit can never differ from its cold run by a
    byte.  All failure modes raise and are classified by the
    supervisor. *)

type status = Cold | Pass_hit | Sim_hit

val status_to_string : status -> string

type reply = { body : string list; status : status }

type prepared = {
  req : Proto.request;
  case : Spf_valid.Case.t;
  pass_key : string;
  sim_key : string;
}

val prepare : Proto.request -> prepared
(** Parse the payload and build both cache keys — cheap enough for the
    connection thread, enabling the inline {!try_hit} fast path.
    @raise Spf_ir.Parser.Parse_error on a malformed payload. *)

val try_hit : cache:Rcache.t -> prepared -> reply option
(** A sim-level hit for a prepared request, answered without touching
    the pool. *)

type inline = Hit of reply | Miss of prepared

val inline : cache:Rcache.t -> Proto.request -> inline
(** The connection thread's part of a request.  A request whose exact
    text and options were prepared before is answered from the request
    index ({!Rcache.find_request}) without a parse.  Any other is
    {!prepare}d, its sim key indexed, and {!try_hit} tried; [Miss] hands
    it on for {!run}.  Either way a hit is the same [Sim_hit] reply with
    the same body.
    @raise Spf_ir.Parser.Parse_error on a malformed payload (which is
    never indexed). *)

val run : cache:Rcache.t -> ctx:Spf_harness.Runner.ctx -> prepared -> reply
(** The full pipeline on a pool domain: sim lookup, then pass lookup or
    verify+pass+cache, then simulate and cache the rendered body.
    Honours the ctx's engine override and cancellation token.
    @raise Spf_sim.Interp.Trap on a demand fault (poisoned request),
    {!Spf_sim.Interp.Fuel_exhausted}, [Invalid_argument] on verifier
    violations, {!Spf_sim.Interp.Cancelled} on deadline. *)

val describe_error : exn -> string
(** Single-line human-readable message for an [ERR] reply. *)
