(* Inside the hard distribution D_MM (Section 3.1 of the paper).

   We sample an instance, dissect its hidden structure (the secret matching
   index j*, the public/unique vertex split, the surviving hidden
   matching), and then watch budget-limited protocols fail on it until the
   per-player budget reaches Theta(r log n) — while players handed the
   secret sigma and j-star by an oracle succeed with a handful of bits. The
   paper's whole lower bound is the statement that no protocol can
   substitute for that oracle.

   Run with: dune exec examples/hard_instance.exe
   Pass `--trace out.json` for a Chrome trace_event export: sampling,
   the Claim 3.1 check and the budget sweep are [example.*] spans. *)

let trace_out =
  match Array.to_list Sys.argv with _ :: "--trace" :: path :: _ -> Some path | _ -> None

let stage name f = Stdx.Trace.span ("example." ^ name) f

let () =
  Report.Trace_export.with_file trace_out @@ fun () ->
  let m = 10 in
  let rs = Rsgraph.Rs_graph.bipartite m in
  let rng = Stdx.Prng.create 77 in
  let dmm = stage "sample-dmm" (fun () -> Core.Hard_dist.sample rs rng) in

  Printf.printf "RS graph: N=%d vertices, t=%d induced matchings of size r=%d (verified=%b)\n"
    (Rsgraph.Rs_graph.n rs) rs.Rsgraph.Rs_graph.t_count rs.Rsgraph.Rs_graph.r
    (Rsgraph.Verify.is_valid_rs rs);
  Printf.printf "D_MM instance: k=%d copies, n=%d vertices, %d edges\n" dmm.Core.Hard_dist.k
    dmm.Core.Hard_dist.n
    (Dgraph.Graph.m dmm.Core.Hard_dist.graph);
  Printf.printf "  secret j* = %d; %d public vertices, %d unique vertices\n"
    dmm.Core.Hard_dist.j_star
    (Array.length dmm.Core.Hard_dist.public_labels)
    (dmm.Core.Hard_dist.n - Array.length dmm.Core.Hard_dist.public_labels);

  let surviving = Core.Hard_dist.surviving_special dmm in
  let k = dmm.Core.Hard_dist.k and r = Core.Hard_dist.r dmm in
  Printf.printf "  surviving hidden matching: %d edges (E = kr/2 = %.0f; Claim 3.1 floor kr/4 = %.0f)\n\n"
    (List.length surviving)
    (float_of_int (k * r) /. 2.)
    (float_of_int (k * r) /. 4.);

  (* Claim 3.1 in action: even an adversarial maximal matching is forced to
     contain many unique-unique edges. *)
  let stats = stage "claim31-check" (fun () -> Core.Claims.check dmm ()) in
  print_endline "Claim 3.1 — unique-unique edges in maximal matchings under various edge orders:";
  List.iter
    (fun (name, uu, _) -> Printf.printf "  %-16s %d (>= kr/4 = %.0f)\n" name uu stats.Core.Claims.claim_threshold)
    stats.Core.Claims.per_order;

  (* The budget sweep: protocols without the secret need Theta(r log n)
     bits; the oracle protocol needs ~log n. *)
  print_endline "\nBudget-limited protocols (uniform edge sampling), per-player bits vs outcome:";
  let coins = Sketchmodel.Public_coins.create 4242 in
  stage "budget-sweep" (fun () ->
  List.iter
    (fun budget ->
      let protocol =
        Protocols.Sampled_mm.protocol ~budget_bits:budget ~strategy:Protocols.Sampled_mm.Uniform
      in
      let output, msg_stats =
        Sketchmodel.Rounds.run (Sketchmodel.Rounds.one_round protocol)
          dmm.Core.Hard_dist.graph coins
      in
      let out_set = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace out_set e ()) output;
      let hit = List.length (List.filter (fun (_, e) -> Hashtbl.mem out_set e) surviving) in
      Printf.printf "  b=%4d bits: recovered %d/%d hidden edges, maximal=%b (max msg=%d bits)\n"
        budget hit (List.length surviving)
        (Dgraph.Matching.is_maximal dmm.Core.Hard_dist.graph output)
        msg_stats.Sketchmodel.Rounds.max_bits)
    [ 8; 32; 128; 512 ]);

  print_endline
    "\nTheorem 1: any one-round protocol succeeding with probability 0.99 on D_MM needs\n\
     Omega(r) = Omega(sqrt(n) / e^Theta(sqrt(log n))) bits from some player — the secrecy\n\
     of (sigma, j*) is the entire obstruction, as the oracle ablation in\n\
     `sketchlb budget-sweep` shows."
