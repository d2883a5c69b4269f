(* Tests for Agm: edge encoding, spanning-forest sketches, and the
   Footnote-1 bridge protocol. *)

module EE = Agm.Edge_encoding
module SF = Agm.Spanning_forest
module BD = Agm.Bridge_demo
module G = Dgraph.Graph
module PC = Sketchmodel.Public_coins
module Conn = Agm.Connectivity
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds

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

(* --- The flat-parse oracle ---

   The referees parse a round, a forest or a graph's stacks only when
   the decode reaches it. The oracle is the flat parse they replace:
   every stack of every message parsed up front, each into its own
   buffer, then decoded. Swapped into the same protocols (same players,
   same coins), it must give identical forests and verdicts. *)

let parse_stack params r =
  SF.read_stack_into params (Array.make (SF.stack_words params) 0) 0 r

let flat_sf_referee ~n ~sketches coins =
  let params = SF.sampler_params SF.default_config ~n coins in
  SF.decode_forest ~n ~per_vertex:(Array.map (parse_stack params) sketches)

let flat_forests_referee ~k ~n ~sketches coins =
  let params =
    Array.init k (fun j -> SF.sampler_params SF.default_config ~n (PC.derive coins "agm-kforest" j))
  in
  (* Array.map runs in index order, so each reader yields stacks 0..k-1. *)
  let parsed = Array.map (fun r -> Array.map (fun p -> parse_stack p r) params) sketches in
  let forests = Array.make k [] in
  for j = 0 to k - 1 do
    let stacks = Array.map (fun stacks -> stacks.(j)) parsed in
    for prior = 0 to j - 1 do
      List.iter
        (fun (u, v) ->
          SF.stack_update ~n stacks.(u) u v ~weight:(-1);
          SF.stack_update ~n stacks.(v) v u ~weight:(-1))
        forests.(prior)
    done;
    forests.(j) <- SF.decode_forest ~n ~per_vertex:stacks
  done;
  forests

let flat_bipartite_referee ~n ~sketches coins =
  let g_params = SF.sampler_params SF.default_config ~n (PC.derive coins "agm-bip-g" 0) in
  let cover_params =
    SF.sampler_params SF.default_config ~n:(2 * n) (PC.derive coins "agm-bip-cover" 0)
  in
  let g_stacks = Array.make n [||] and cover_stacks = Array.make (2 * n) [||] in
  Array.iteri
    (fun v r ->
      g_stacks.(v) <- parse_stack g_params r;
      cover_stacks.(v) <- parse_stack cover_params r;
      cover_stacks.(n + v) <- parse_stack cover_params r)
    sketches;
  let g_components = n - List.length (SF.decode_forest ~n ~per_vertex:g_stacks) in
  let cover_components =
    (2 * n) - List.length (SF.decode_forest ~n:(2 * n) ~per_vertex:cover_stacks)
  in
  cover_components = 2 * g_components

let oracle_run p referee g coins =
  fst (Rounds.run (Rounds.one_round { p with Model.referee }) g coins)

let test_referees_match_flat_parse () =
  let k = 3 in
  List.iter
    (fun (n, p) ->
      for seed = 1 to 2 do
        let g = Dgraph.Gen.gnp (Stdx.Prng.create ((n * 31) + seed)) n p in
        let coins = PC.create ((seed * 7) + n) in
        let label = Printf.sprintf "n=%d p=%.2f seed=%d" n p seed in
        Alcotest.(check (list (pair int int)))
          ("spanning forest, " ^ label)
          (oracle_run (SF.protocol ~n ()) flat_sf_referee g coins)
          (fst (SF.run g coins));
        let cert, _ = Conn.k_forests g ~k coins in
        Alcotest.(check (array (list (pair int int))))
          (Printf.sprintf "%d forests, %s" k label)
          (oracle_run (Conn.forests_protocol ~n ~k ()) (flat_forests_referee ~k) g coins)
          cert.Conn.forests;
        checkb ("bipartiteness, " ^ label)
          (oracle_run (Conn.bipartiteness_protocol ~n ()) flat_bipartite_referee g coins)
          (fst (Conn.is_bipartite_via_sketches g coins))
      done)
    [ (1, 0.); (2, 1.); (9, 0.3); (16, 0.5); (20, 0.1) ]

(* The referee parses one round's samplers at a time into one shared
   borrow, so after a run at n = 256 the domain arena holds n samplers
   (about 364 k words with the player's stack and the decode scratch),
   not n stacks of 9 rounds (3.17 M words with the flat parse). *)
let test_referee_arena_one_round () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 5) 256 0.25 in
  let arena = Stdx.Scratch.domain () in
  Stdx.Scratch.clear arena;
  let forest, _ = SF.run g (PC.create 7) in
  checkb "spanning forest" true (Dgraph.Components.is_spanning_forest g forest);
  let live = (Stdx.Scratch.stats arena).Stdx.Scratch.live_words in
  checkb (Printf.sprintf "arena holds %d words, under 1 M" live) true (live < 1_000_000)

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
          Alcotest.test_case "referees match the flat parse" `Quick
            test_referees_match_flat_parse;
          Alcotest.test_case "referee arena holds one round" `Quick test_referee_arena_one_round;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "finds planted bridge" `Slow test_bridge_finds_planted;
          Alcotest.test_case "success probability" `Slow test_bridge_success_probability;
          Alcotest.test_case "cost sublinear" `Quick test_bridge_cost_logarithmic;
        ] );
    ]
