(* Every simulated run of every figure, pinned by digest: walks
   {!Spf_harness.Figures.table} in order, runs each figure's cells as one
   supervised campaign at -j 2 (static distance provider, figure text
   discarded), and prints one line per run:

     <job key> <run index> <machine> <bench> <MD5 of every Stats counter>

   The digest renders the counters as the golden suite does
   (test_golden.ml), so fig4's plain and auto lines for IS, CG, RA, HJ-2
   and HJ-8 on Haswell and A53 carry perfbench/reference.ml's fig-core
   digests.  The @fig-digests alias diffs this output against
   fig-digests.expected; it is not part of runtest (about two minutes on
   a 2-core host). *)

module Figures = Spf_harness.Figures
module Runner = Spf_harness.Runner
module Stats = Spf_sim.Stats

let digest (s : Stats.t) =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (Stats.fields s))))

let () =
  let sup = Spf_harness.Supervisor.options ~jobs:2 () in
  let discard = Format.make_formatter (fun _ _ _ -> ()) ignore in
  List.iter
    (fun fig ->
      List.iteri
        (fun i runs ->
          List.iteri
            (fun k (r : Runner.result) ->
              Printf.printf "%s/%d %d %s %s %s\n" (Figures.name fig) i k
                r.machine r.bench (digest r.stats))
            runs)
        (Figures.run ~out:discard sup ~provider:Spf_core.Distance.Static fig))
    Figures.table
