(* Tests for Agm: edge encoding, spanning-forest sketches, and the
   Footnote-1 bridge protocol. *)

module EE = Agm.Edge_encoding
module SF = Agm.Spanning_forest
module BD = Agm.Bridge_demo
module G = Dgraph.Graph
module PC = Sketchmodel.Public_coins

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_edge_encoding_roundtrip () =
  let n = 50 in
  for u = 0 to 9 do
    for v = 10 to 19 do
      let idx = EE.index ~n u v in
      Alcotest.(check (pair int int)) "roundtrip" (u, v) (EE.endpoints ~n idx)
    done
  done;
  checki "normalised" (EE.index ~n 7 3) (EE.index ~n 3 7)

let test_vertex_updates_signs () =
  let updates = EE.vertex_updates ~n:10 4 [| 2; 7 |] in
  Alcotest.(check (list (pair int int)))
    "signs: -1 when larger endpoint, +1 when smaller"
    [ (EE.index ~n:10 2 4, -1); (EE.index ~n:10 4 7, 1) ]
    updates

let test_updates_cancel_inside_component () =
  (* The defining identity: summing all vertices' updates over an edge set
     leaves the zero vector. *)
  let rng = Stdx.Prng.create 21 in
  let g = Dgraph.Gen.gnp rng 20 0.3 in
  let totals = Hashtbl.create 64 in
  for v = 0 to 19 do
    List.iter
      (fun (idx, w) ->
        Hashtbl.replace totals idx (w + Option.value ~default:0 (Hashtbl.find_opt totals idx)))
      (EE.vertex_updates ~n:20 v (G.neighbors g v))
  done;
  Hashtbl.iter (fun _ w -> checki "cancels" 0 w) totals

let test_forest_shapes () =
  let coins = PC.create 77 in
  List.iter
    (fun g ->
      let forest, _ = SF.run g coins in
      checkb "valid spanning forest" true (Dgraph.Components.is_spanning_forest g forest))
    [
      Dgraph.Gen.path 16;
      Dgraph.Gen.cycle 17;
      Dgraph.Gen.complete 12;
      G.empty 8;
      G.disjoint_union (Dgraph.Gen.cycle 6) (Dgraph.Gen.path 7);
    ]

let test_forest_structured_workloads () =
  let coins = PC.create 123 in
  let rng = Stdx.Prng.create 31 in
  let degrees = Dgraph.Gen.power_law_degrees rng ~n:60 ~exponent:2.5 ~dmax:10 in
  List.iter
    (fun (name, g) ->
      let forest, _ = SF.run g coins in
      checkb name true (Dgraph.Components.is_spanning_forest g forest))
    [
      ("grid 6x7", Dgraph.Gen.grid 6 7);
      ("power-law", Dgraph.Gen.configuration_model rng ~degrees);
      ("two grids", G.disjoint_union (Dgraph.Gen.grid 4 4) (Dgraph.Gen.grid 3 5));
    ]

let test_forest_random_many_seeds () =
  let failures = ref 0 in
  for seed = 1 to 15 do
    let rng = Stdx.Prng.create seed in
    let g = Dgraph.Gen.gnp rng 48 0.1 in
    let forest, _ = SF.run g (PC.create (seed * 13)) in
    if not (Dgraph.Components.is_spanning_forest g forest) then incr failures
  done;
  checki "no failures over 15 seeds" 0 !failures

let test_forest_cost_accounted () =
  let g = Dgraph.Gen.path 32 in
  let _, stats = SF.run g (PC.create 5) in
  checkb "nonzero cost" true (stats.Sketchmodel.Rounds.max_bits > 0);
  (* All vertices write the same sampler structure: max is close to avg. *)
  let avg_bits =
    float_of_int stats.Sketchmodel.Rounds.total_bits /. float_of_int (Dgraph.Graph.n g)
  in
  checkb "uniform sizes" true (float_of_int stats.Sketchmodel.Rounds.max_bits < 1.5 *. avg_bits)

let test_connected_components () =
  let coins = PC.create 6 in
  let g = G.disjoint_union (Dgraph.Gen.complete 5) (Dgraph.Gen.cycle 7) in
  let decoded, _ = SF.connected_components g coins in
  checki "two components" 2 decoded;
  let single, _ = SF.connected_components (Dgraph.Gen.path 9) coins in
  checki "one component" 1 single

let test_rounds_grow_with_n () =
  checkb "rounds increasing" true (SF.rounds 1024 > SF.rounds 16);
  checki "rounds small" 2 (SF.rounds 2)

let test_bridge_finds_planted () =
  let hits = ref 0 in
  for seed = 1 to 10 do
    let rng = Stdx.Prng.create (seed * 3) in
    let g, planted = Dgraph.Gen.bridge_of_clouds rng ~half:40 ~p:0.5 in
    let result = BD.run g ~samples_per_vertex:3 (PC.create (seed * 17)) in
    if result.BD.bridge = Some planted then incr hits
  done;
  checkb (Printf.sprintf "bridge found >= 9/10 (%d)" !hits) true (!hits >= 9)

let test_bridge_success_probability () =
  let p = BD.success_probability ~half:32 ~samples_per_vertex:3 ~trials:10 ~seed:2 in
  checkb "high success" true (p >= 0.9)

let test_bridge_cost_logarithmic () =
  (* Cost grows slowly: quadrupling n should much less than quadruple the
     sketch size. *)
  let cost half =
    let rng = Stdx.Prng.create 4 in
    let g, _ = Dgraph.Gen.bridge_of_clouds rng ~half ~p:0.5 in
    (BD.run g ~samples_per_vertex:3 (PC.create 8)).BD.stats.Sketchmodel.Rounds.max_bits
  in
  let c64 = cost 64 and c256 = cost 256 in
  checkb "sublinear growth" true (c256 < 2 * c64)

let () =
  Alcotest.run "agm"
    [
      ( "edge-encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_edge_encoding_roundtrip;
          Alcotest.test_case "update signs" `Quick test_vertex_updates_signs;
          Alcotest.test_case "cancellation identity" `Quick test_updates_cancel_inside_component;
        ] );
      ( "spanning-forest",
        [
          Alcotest.test_case "shapes" `Quick test_forest_shapes;
          Alcotest.test_case "structured workloads" `Quick test_forest_structured_workloads;
          Alcotest.test_case "random graphs many seeds" `Slow test_forest_random_many_seeds;
          Alcotest.test_case "cost accounted" `Quick test_forest_cost_accounted;
          Alcotest.test_case "connected components" `Quick test_connected_components;
          Alcotest.test_case "rounds grow" `Quick test_rounds_grow_with_n;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "finds planted bridge" `Slow test_bridge_finds_planted;
          Alcotest.test_case "success probability" `Slow test_bridge_success_probability;
          Alcotest.test_case "cost sublinear" `Quick test_bridge_cost_logarithmic;
        ] );
    ]
