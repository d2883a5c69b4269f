(* Tests for Protocols: trivial, budget-limited, and two-round MM/MIS,
   and the exact oracles of the local-minima MIS and hypergraph trivial
   MM protocols. *)

module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module PC = Sketchmodel.Public_coins
module G = Dgraph.Graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_graph seed n p = Dgraph.Gen.gnp (Stdx.Prng.create seed) n p

let test_trivial_mm_correct () =
  List.iter
    (fun g ->
      let m, _ = Rounds.run (Rounds.one_round Protocols.Trivial.mm) g (PC.create 1) in
      checkb "maximal matching" true (Dgraph.Matching.is_maximal g m))
    [ random_graph 1 30 0.2; Dgraph.Gen.complete 9; G.empty 5; Dgraph.Gen.star 12 ]

let test_trivial_mis_correct () =
  List.iter
    (fun g ->
      let s, _ = Rounds.run (Rounds.one_round Protocols.Trivial.mis) g (PC.create 1) in
      checkb "maximal IS" true (Dgraph.Mis.is_maximal g s))
    [ random_graph 2 30 0.2; Dgraph.Gen.complete 9; G.empty 5; Dgraph.Gen.cycle 11 ]

let test_trivial_reconstruct_exact () =
  let g = random_graph 3 25 0.3 in
  let views = Model.views g in
  let writers = Array.map (fun v -> Protocols.Trivial.mm.Model.player v (PC.create 0)) views in
  let sketches = Array.map Stdx.Bitbuf.Reader.of_writer writers in
  let g' = Protocols.Trivial.reconstruct ~n:(G.n g) ~sketches in
  checkb "exact reconstruction" true (G.equal g g')

let test_trivial_cost_scales_with_degree () =
  let sparse = random_graph 4 200 0.02 and dense = random_graph 4 200 0.5 in
  let _, s1 = Rounds.run (Rounds.one_round Protocols.Trivial.mm) sparse (PC.create 2) in
  let _, s2 = Rounds.run (Rounds.one_round Protocols.Trivial.mm) dense (PC.create 2) in
  checkb "dense costs much more" true (s2.Rounds.max_bits > 5 * s1.Rounds.max_bits)

let test_sampled_budget_respected () =
  let g = random_graph 5 100 0.4 in
  List.iter
    (fun budget ->
      List.iter
        (fun strategy ->
          let protocol = Protocols.Sampled_mm.protocol ~budget_bits:budget ~strategy in
          let _, stats = Rounds.run (Rounds.one_round protocol) g (PC.create 3) in
          checkb
            (Printf.sprintf "b=%d %s within budget" budget
               (Protocols.Sampled_mm.strategy_name strategy))
            true
            (stats.Rounds.max_bits <= budget))
        Protocols.Sampled_mm.all_strategies)
    [ 0; 8; 17; 64; 256 ]

let test_sampled_output_disjoint_and_valid () =
  (* The referee's greedy output over reports is always vertex-disjoint,
     and since players only report real incident edges, every edge is in
     the graph. *)
  let g = random_graph 6 80 0.2 in
  let protocol =
    Protocols.Sampled_mm.protocol ~budget_bits:40 ~strategy:Protocols.Sampled_mm.Uniform
  in
  let output, _ = Rounds.run (Rounds.one_round protocol) g (PC.create 4) in
  let verdict = Dgraph.Matching.verify g output in
  checkb "disjoint" true verdict.Dgraph.Matching.disjoint;
  checkb "edges exist" true verdict.Dgraph.Matching.edges_exist

let test_sampled_large_budget_is_maximal () =
  let g = random_graph 7 60 0.15 in
  (* Budget big enough to ship every neighbourhood. *)
  let protocol =
    Protocols.Sampled_mm.protocol ~budget_bits:100000 ~strategy:Protocols.Sampled_mm.Prefix
  in
  let output, _ = Rounds.run (Rounds.one_round protocol) g (PC.create 5) in
  checkb "maximal with full reports" true (Dgraph.Matching.is_maximal g output)

let test_sampled_zero_budget () =
  let g = random_graph 8 40 0.3 in
  let protocol =
    Protocols.Sampled_mm.protocol ~budget_bits:0 ~strategy:Protocols.Sampled_mm.Uniform
  in
  let output, stats = Rounds.run (Rounds.one_round protocol) g (PC.create 6) in
  checki "no bits" 0 stats.Rounds.max_bits;
  checki "empty output" 0 (List.length output)

let test_two_round_mm_always_maximal () =
  List.iter
    (fun (seed, n, p) ->
      let g = random_graph seed n p in
      let m, stats = Protocols.Two_round_mm.run g (PC.create (seed * 7)) in
      checkb (Printf.sprintf "maximal n=%d p=%.2f" n p) true (Dgraph.Matching.is_maximal g m);
      checkb "cost positive" true (stats.Sketchmodel.Rounds.max_bits >= 0))
    [ (1, 50, 0.05); (2, 50, 0.3); (3, 120, 0.1); (4, 120, 0.5); (5, 30, 0.9); (6, 10, 0.) ]

let test_two_round_mis_always_maximal () =
  List.iter
    (fun (seed, n, p) ->
      let g = random_graph seed n p in
      let s, _ = Protocols.Two_round_mis.run g (PC.create (seed * 11)) in
      checkb (Printf.sprintf "maximal IS n=%d p=%.2f" n p) true (Dgraph.Mis.is_maximal g s))
    [ (1, 50, 0.05); (2, 50, 0.3); (3, 120, 0.1); (4, 120, 0.5); (5, 30, 0.9); (6, 10, 0.) ]

let test_two_round_structured_workloads () =
  let rng = Stdx.Prng.create 14 in
  let degrees = Dgraph.Gen.power_law_degrees rng ~n:120 ~exponent:2.2 ~dmax:30 in
  List.iter
    (fun (name, g) ->
      let mm, _ = Protocols.Two_round_mm.run g (PC.create 15) in
      checkb (name ^ " mm") true (Dgraph.Matching.is_maximal g mm);
      let mis, _ = Protocols.Two_round_mis.run g (PC.create 16) in
      checkb (name ^ " mis") true (Dgraph.Mis.is_maximal g mis))
    [
      ("grid", Dgraph.Gen.grid 8 9);
      ("power-law", Dgraph.Gen.configuration_model rng ~degrees);
      ("complete bipartite", Dgraph.Gen.complete_bipartite 20 30);
    ]

let test_two_round_round1_capped () =
  let g = random_graph 9 100 0.9 in
  (* cap_factor 1.0: round-1 ships at most ceil(sqrt(100)) = 10 neighbour
     ids; each id is at most 2 varint bytes plus the list length prefix. *)
  let _, stats = Protocols.Two_round_mm.run g (PC.create 12) in
  checkb "round1 bounded by cap" true (stats.Sketchmodel.Rounds.round_max.(0) <= (11 * 16) + 16)

let test_two_round_cost_sublinear () =
  (* On dense graphs the two-round protocols beat the trivial one by a
     growing factor. *)
  let g = random_graph 10 400 0.5 in
  let coins = PC.create 13 in
  let _, trivial = Rounds.run (Rounds.one_round Protocols.Trivial.mm) g coins in
  let _, mm2 = Protocols.Two_round_mm.run g coins in
  checkb "2-round much cheaper on dense input" true
    (3 * mm2.Sketchmodel.Rounds.max_bits < trivial.Rounds.max_bits)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"trivial MM maximal on random graphs" ~count:60
         QCheck.(pair (int_range 1 40) (int_range 0 1000))
         (fun (n, seed) ->
           let g = random_graph seed n 0.25 in
           let m, _ = Rounds.run (Rounds.one_round Protocols.Trivial.mm) g (PC.create seed) in
           Dgraph.Matching.is_maximal g m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"trivial baseline bits equal trivial MM bits" ~count:80
         QCheck.(
           triple
             (oneof [ always 0; always 1; int_range 2 60 ])
             (oneofl [ 0.; 0.1; 0.5; 1. ])
             (int_range 0 1000))
         (fun (n, p, seed) ->
           let g = random_graph seed n p in
           (* [stats] is the whole record, per-round arrays included. *)
           let (), base =
             Rounds.run (Rounds.one_round Protocols.Trivial.baseline) g (PC.create seed)
           in
           let _, mm = Rounds.run (Rounds.one_round Protocols.Trivial.mm) g (PC.create seed) in
           base = mm));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"two-round MM maximal on random graphs" ~count:40
         QCheck.(pair (int_range 2 60) (int_range 0 1000))
         (fun (n, seed) ->
           let g = random_graph seed n 0.2 in
           let m, _ = Protocols.Two_round_mm.run g (PC.create (seed + 1)) in
           Dgraph.Matching.is_maximal g m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"two-round MIS maximal on random graphs" ~count:40
         QCheck.(pair (int_range 2 60) (int_range 0 1000))
         (fun (n, seed) ->
           let g = random_graph seed n 0.2 in
           let s, _ = Protocols.Two_round_mis.run g (PC.create (seed + 2)) in
           Dgraph.Mis.is_maximal g s));
    (* Exact oracle: the referee runs greedy over the sqrt(n) prefix of
       the shared "mis-prefix-permutation" in pi order, then completes
       the residual graph in ascending id order. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"two-round MIS = greedy over pi prefix then ascending ids"
         ~count:200
         QCheck.(
           triple (int_range 0 119) (oneofl [ 0.02; 0.05; 0.1; 0.25; 0.5; 0.9 ]) (int_range 0 10000))
         (fun (n, p, seed) ->
           let g = random_graph seed n p in
           let coins = PC.create (seed + 5) in
           let pi = Stdx.Prng.permutation (PC.global coins "mis-prefix-permutation") n in
           let k = min n (max 1 (int_of_float (ceil (sqrt (float_of_int n))))) in
           let prefix = Array.sub pi 0 k in
           let in_prefix = Array.make n false in
           Array.iter (fun v -> in_prefix.(v) <- true) prefix;
           let rest = List.filter (fun v -> not in_prefix.(v)) (List.init n Fun.id) in
           let order = Array.append prefix (Array.of_list rest) in
           let mis, _ = Protocols.Two_round_mis.run g coins in
           List.sort compare mis = List.sort compare (Dgraph.Mis.greedy g ~order ())));
    (* Exact oracle for both local-minima protocols: v joins iff its
       (priority, id) is below every neighbour's. The rule is the same,
       but each draws its priorities under its own coin label, so on one
       graph and one set of coins the two outputs differ. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"local-minima MIS = (priority, id) oracle, graph and 2-uniform"
         ~count:200
         QCheck.(
           triple (int_range 0 119) (oneofl [ 0.02; 0.05; 0.1; 0.25; 0.5; 0.9 ]) (int_range 0 10000))
         (fun (n, p, seed) ->
           let g = random_graph seed n p in
           let coins = PC.create (seed + 3) in
           let oracle label =
             let prio v = (Stdx.Prng.int (PC.keyed coins label v) (1 lsl 40), v) in
             List.filter
               (fun v -> Array.for_all (fun u -> prio v < prio u) (G.neighbors g v))
               (List.init n Fun.id)
           in
           let mis, _ =
             Rounds.run (Rounds.one_round Protocols.One_round_mis.local_minima) g coins
           in
           let hmis, _ = Protocols.Hyper_mis.run_local_minima (Dgraph.Hypergraph.of_graph g) coins in
           List.sort compare mis = oracle "mis-priority"
           && List.sort compare hmis = oracle "hmis-priority"));
    (* Exact oracle: the referee rebuilds the hypergraph from the pin
       sets it is sent and runs greedy in edge-id order, so its output is
       greedy's on the input, as pin sets. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hyper trivial MM = Hmatching.greedy pins, k = 2 and 3" ~count:200
         QCheck.(triple (int_range 3 60) (int_range 0 90) (int_range 0 10000))
         (fun (n, m, seed) ->
           let rng = Stdx.Prng.create seed in
           let p = float_of_int m /. float_of_int (n * n) in
           let check h =
             let out, _ = Protocols.Hyper_mm.run_trivial h (PC.create (seed + 1)) in
             out = List.map (Dgraph.Hypergraph.pins h) (Dgraph.Hmatching.greedy h ())
           in
           check (Dgraph.Hypergraph.of_graph (Dgraph.Gen.gnp rng n p))
           && check (Dgraph.Hgen.uniform_random rng ~n ~m ~k:3)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sampled budget never exceeded" ~count:60
         QCheck.(triple (int_range 2 40) (int_range 0 500) (int_range 0 200))
         (fun (n, seed, budget) ->
           let g = random_graph seed n 0.3 in
           let protocol =
             Protocols.Sampled_mm.protocol ~budget_bits:budget
               ~strategy:Protocols.Sampled_mm.Uniform
           in
           let _, stats = Rounds.run (Rounds.one_round protocol) g (PC.create seed) in
           stats.Rounds.max_bits <= budget));
  ]

let () =
  Alcotest.run "protocols"
    [
      ( "trivial",
        [
          Alcotest.test_case "mm correct" `Quick test_trivial_mm_correct;
          Alcotest.test_case "mis correct" `Quick test_trivial_mis_correct;
          Alcotest.test_case "reconstruct exact" `Quick test_trivial_reconstruct_exact;
          Alcotest.test_case "cost scales with degree" `Quick test_trivial_cost_scales_with_degree;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "budget respected" `Quick test_sampled_budget_respected;
          Alcotest.test_case "output disjoint and valid" `Quick
            test_sampled_output_disjoint_and_valid;
          Alcotest.test_case "large budget maximal" `Quick test_sampled_large_budget_is_maximal;
          Alcotest.test_case "zero budget" `Quick test_sampled_zero_budget;
        ] );
      ( "two-round",
        [
          Alcotest.test_case "mm always maximal" `Quick test_two_round_mm_always_maximal;
          Alcotest.test_case "mis always maximal" `Quick test_two_round_mis_always_maximal;
          Alcotest.test_case "structured workloads" `Quick test_two_round_structured_workloads;
          Alcotest.test_case "round1 capped" `Quick test_two_round_round1_capped;
          Alcotest.test_case "cost sublinear" `Quick test_two_round_cost_sublinear;
        ] );
      ("protocols-properties", qcheck_tests);
    ]
