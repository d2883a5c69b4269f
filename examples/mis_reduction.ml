(* The Section-4 reduction: maximal matching on D_MM from a maximal
   independent set on the doubled graph H.

   H = two disjoint copies of G plus a complete bipartite graph between the
   two copies of the public vertices. Lemma 4.1: on a side whose public
   copies avoid the MIS, a hidden-matching pair (u, v) survived the edge
   dropping iff not both of its copies are independent-set members — so an
   MIS of H hands the referee the hidden matching of G, and an efficient
   MIS sketch would contradict Theorem 1 (that is Theorem 2).

   Run with: dune exec examples/mis_reduction.exe
   Pass `--trace out.json` for a Chrome trace_event export: sampling,
   the H construction and the end-to-end run are [example.*] spans,
   with the [graph.*] freeze spans of build_h nested inside. *)

let trace_out =
  match Array.to_list Sys.argv with _ :: "--trace" :: path :: _ -> Some path | _ -> None

let stage name f = Stdx.Trace.span ("example." ^ name) f

let () =
  Report.Trace_export.with_file trace_out @@ fun () ->
  let rs = Rsgraph.Rs_graph.bipartite 5 in
  let rng = Stdx.Prng.create 3 in
  let dmm = stage "sample-dmm" (fun () -> Core.Hard_dist.sample rs rng) in
  let g = dmm.Core.Hard_dist.graph in
  let h = stage "build-h" (fun () -> Core.Reduction.build_h dmm) in
  Printf.printf "G ~ D_MM: n=%d, m=%d; doubled graph H: n=%d, m=%d\n" (Dgraph.Graph.n g)
    (Dgraph.Graph.m g) (Dgraph.Graph.n h) (Dgraph.Graph.m h);

  (* Referee-side exact MIS of H (any maximal independent set works). *)
  let mis =
    Dgraph.Mis.greedy h ~order:(Stdx.Prng.permutation (Stdx.Prng.create 9) (Dgraph.Graph.n h)) ()
  in
  Printf.printf "MIS of H: %d vertices (independent=%b maximal=%b)\n" (List.length mis)
    (Dgraph.Mis.is_independent h mis)
    (Dgraph.Mis.is_maximal h mis);

  let empty_left = Core.Reduction.side_public_empty dmm mis Core.Reduction.Left in
  let empty_right = Core.Reduction.side_public_empty dmm mis Core.Reduction.Right in
  Printf.printf "public copies avoided by the MIS: left=%b right=%b (biclique forces >= one)\n"
    empty_left empty_right;

  let verdict = Core.Reduction.check dmm mis in
  Printf.printf "Lemma 4.1 holds on the public-free side: %b\n" verdict.Core.Reduction.lemma41_ok;
  Printf.printf
    "paper's referee (larger side): %d pairs, contains all %d surviving hidden edges=%b, %d valid\n"
    verdict.Core.Reduction.output_size verdict.Core.Reduction.surviving
    verdict.Core.Reduction.complete verdict.Core.Reduction.valid_edges;

  let exact = Core.Reduction.referee_output_min dmm mis in
  let survivors =
    List.sort compare (List.map snd (Core.Hard_dist.surviving_special dmm))
  in
  Printf.printf "min-side ablation recovers the hidden matching exactly: %b\n"
    (List.sort compare exact = survivors);

  (* End-to-end with a real sketching protocol: every G-vertex simulates
     both of its H-copies, so per-player cost at most doubles. *)
  let coins = Sketchmodel.Public_coins.create 555 in
  let verdict2, g_cost, h_cost =
    stage "end-to-end" (fun () -> Core.Reduction.end_to_end_cost dmm Protocols.Trivial.mis coins)
  in
  Printf.printf
    "\nend-to-end with the trivial MIS sketch: complete=%b\n\
    \  per-H-player max %d bits -> per-G-player max %d bits (blow-up %.2fx <= 2)\n"
    verdict2.Core.Reduction.complete h_cost.Sketchmodel.Rounds.max_bits
    g_cost.Sketchmodel.Rounds.max_bits
    (float_of_int g_cost.Sketchmodel.Rounds.max_bits
    /. float_of_int h_cost.Sketchmodel.Rounds.max_bits);

  print_endline
    "\nTheorem 2 follows: an MIS sketch of o(sqrt n) bits would yield a maximal-matching\n\
     sketch of o(sqrt n) bits on D_MM, contradicting Theorem 1."
