(* Tests for Agm.Connectivity: k-forest certificates and bipartiteness. *)

module C = Agm.Connectivity
module G = Dgraph.Graph
module PC = Sketchmodel.Public_coins

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let coins = PC.create 2024

let test_k_forests_valid () =
  List.iter
    (fun (name, g, k) ->
      let cert, _ = C.k_forests g ~k coins in
      checkb (name ^ " valid") true (C.certificate_valid g ~k cert);
      checki (name ^ " k forests") k (Array.length cert.C.forests))
    [
      ("cycle", Dgraph.Gen.cycle 10, 3);
      ("complete", Dgraph.Gen.complete 8, 4);
      ("path", Dgraph.Gen.path 7, 2);
      ("empty", G.empty 5, 2);
    ]

let test_first_forest_spanning () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 1) 30 0.2 in
  let cert, _ = C.k_forests g ~k:2 coins in
  checkb "F1 spans" true (Dgraph.Components.is_spanning_forest g cert.C.forests.(0))

let test_edge_connectivity_estimates () =
  List.iter
    (fun (name, g, k, expected) ->
      let cert, _ = C.k_forests g ~k coins in
      checki name expected (C.edge_connectivity_estimate cert ~k))
    [
      ("cycle is 2", Dgraph.Gen.cycle 9, 4, 2);
      ("path is 1", Dgraph.Gen.path 8, 3, 1);
      ("K6 capped at k=3", Dgraph.Gen.complete 6, 3, 3);
      ("K6 exact at k=5", Dgraph.Gen.complete 6, 5, 5);
      ("disconnected is 0", G.create 5 [ (0, 1); (2, 3) ], 2, 0);
    ]

let test_estimates_on_random_graphs () =
  let rng = Stdx.Prng.create 5 in
  for seed = 1 to 8 do
    let g = Dgraph.Gen.gnp rng 24 0.3 in
    let k = 3 in
    let cert, _ = C.k_forests g ~k (PC.create (seed * 31)) in
    let truth =
      let c = Dgraph.Mincut.min_cut g in
      if c = max_int then 0 else min k c
    in
    checkb "certificate valid" true (C.certificate_valid g ~k cert);
    checki (Printf.sprintf "estimate seed=%d" seed) truth (C.edge_connectivity_estimate cert ~k)
  done

let test_cost_scales_with_k () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 2) 24 0.3 in
  let _, s1 = C.k_forests g ~k:1 coins in
  let _, s3 = C.k_forests g ~k:3 coins in
  let b1 = s1.Sketchmodel.Rounds.max_bits and b3 = s3.Sketchmodel.Rounds.max_bits in
  checkb "3 stacks cost about 3x" true (b3 > 2 * b1 && b3 < 4 * b1)

let test_bipartite_exact () =
  checkb "even cycle" true (C.is_bipartite_exact (Dgraph.Gen.cycle 8));
  checkb "odd cycle" false (C.is_bipartite_exact (Dgraph.Gen.cycle 7));
  checkb "tree" true (C.is_bipartite_exact (Dgraph.Gen.path 9));
  checkb "K4" false (C.is_bipartite_exact (Dgraph.Gen.complete 4));
  checkb "empty" true (C.is_bipartite_exact (G.empty 4));
  checkb "bipartite random" true
    (C.is_bipartite_exact (Dgraph.Gen.random_bipartite (Stdx.Prng.create 1) ~left:6 ~right:7 ~p:0.5));
  checkb "disconnected mixed" false
    (C.is_bipartite_exact (G.disjoint_union (Dgraph.Gen.cycle 4) (Dgraph.Gen.cycle 5)))

let test_bipartite_via_sketches () =
  List.iter
    (fun (name, g) ->
      let sketch, _ = C.is_bipartite_via_sketches g coins in
      checkb name (C.is_bipartite_exact g) sketch)
    [
      ("even cycle", Dgraph.Gen.cycle 10);
      ("odd cycle", Dgraph.Gen.cycle 11);
      ("K5", Dgraph.Gen.complete 5);
      ("path", Dgraph.Gen.path 9);
      ("two odd cycles", G.disjoint_union (Dgraph.Gen.cycle 5) (Dgraph.Gen.cycle 7));
      ("odd+even", G.disjoint_union (Dgraph.Gen.cycle 5) (Dgraph.Gen.cycle 6));
      ("bipartite blocks",
       G.disjoint_union (Dgraph.Gen.complete_bipartite 3 4) (Dgraph.Gen.path 5));
    ]

let test_bipartite_random_agreement () =
  let rng = Stdx.Prng.create 9 in
  let agreements = ref 0 in
  for seed = 1 to 12 do
    let g = Dgraph.Gen.gnp rng 20 0.12 in
    let sketch, _ = C.is_bipartite_via_sketches g (PC.create (seed * 13)) in
    if sketch = C.is_bipartite_exact g then incr agreements
  done;
  checkb (Printf.sprintf "agreement %d/12" !agreements) true (!agreements >= 11)

let () =
  Alcotest.run "connectivity"
    [
      ( "k-forests",
        [
          Alcotest.test_case "certificates valid" `Quick test_k_forests_valid;
          Alcotest.test_case "first forest spans" `Quick test_first_forest_spanning;
          Alcotest.test_case "edge connectivity estimates" `Quick
            test_edge_connectivity_estimates;
          Alcotest.test_case "random graphs" `Slow test_estimates_on_random_graphs;
          Alcotest.test_case "cost scales with k" `Quick test_cost_scales_with_k;
        ] );
      ( "bipartiteness",
        [
          Alcotest.test_case "exact oracle" `Quick test_bipartite_exact;
          Alcotest.test_case "via sketches" `Quick test_bipartite_via_sketches;
          Alcotest.test_case "random agreement" `Slow test_bipartite_random_agreement;
        ] );
    ]
