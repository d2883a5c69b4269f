(* Tests for Core.Reduction: the Section-4 MM-to-MIS reduction. *)

module HD = Core.Hard_dist
module R = Core.Reduction
module Rs = Rsgraph.Rs_graph
module G = Dgraph.Graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sample ?(m = 5) seed = HD.sample (Rs.bipartite m) (Stdx.Prng.create seed)

let greedy_mis seed g =
  Dgraph.Mis.greedy g ~order:(Stdx.Prng.permutation (Stdx.Prng.create seed) (G.n g)) ()

let test_h_structure () =
  let dmm = sample 1 in
  let h = R.build_h dmm in
  let n = dmm.HD.n in
  checki "2n vertices" (2 * n) (G.n h);
  (* Both copies of G are intact. *)
  G.iter_edges
    (fun u v ->
      checkb "left copy" true (G.mem_edge h u v);
      checkb "right copy" true (G.mem_edge h (u + n) (v + n)))
    dmm.HD.graph;
  (* Full public biclique, including same-vertex pairs. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun v -> checkb "biclique" true (G.mem_edge h u (v + n)))
        dmm.HD.public_labels)
    dmm.HD.public_labels;
  (* Edge count: 2|E(G)| + |P|^2. *)
  let p = Array.length dmm.HD.public_labels in
  checki "edge count" ((2 * G.m dmm.HD.graph) + (p * p)) (G.m h)

let test_no_cross_edges_between_unique_copies () =
  let dmm = sample 2 in
  let h = R.build_h dmm in
  let n = dmm.HD.n in
  G.iter_edges
    (fun u v ->
      let u', v' = (min u v, max u v) in
      if u' < n && v' >= n then begin
        (* Any crossing edge must be public-public. *)
        checkb "crossing edges are public biclique" true
          (HD.is_public dmm u' && HD.is_public dmm (v' - n))
      end)
    h

let test_side_public_empty_disjunction () =
  for seed = 1 to 10 do
    let dmm = sample seed in
    let mis = greedy_mis seed (R.build_h dmm) in
    checkb "at least one side public-free" true
      (R.side_public_empty dmm mis R.Left || R.side_public_empty dmm mis R.Right)
  done

let test_lemma41 () =
  for seed = 1 to 10 do
    let dmm = sample ~m:(3 + (seed mod 4)) seed in
    let verdict = R.check dmm (greedy_mis (seed * 3) (R.build_h dmm)) in
    checkb (Printf.sprintf "lemma 4.1 seed=%d" seed) true verdict.R.lemma41_ok;
    checkb "complete" true verdict.R.complete;
    checkb "valid <= output" true (verdict.R.valid_edges <= verdict.R.output_size);
    checki "valid = surviving (output contains exactly them among real edges)"
      verdict.R.surviving verdict.R.valid_edges
  done

let test_min_rule_exact () =
  for seed = 1 to 10 do
    let dmm = sample seed in
    let mis = greedy_mis (seed + 100) (R.build_h dmm) in
    let out = List.sort compare (R.referee_output_min dmm mis) in
    let survivors = List.sort compare (List.map snd (HD.surviving_special dmm)) in
    checkb "min rule exact" true (out = survivors)
  done

let test_max_rule_superset () =
  let dmm = sample 11 in
  let mis = greedy_mis 7 (R.build_h dmm) in
  let out = R.referee_output dmm mis in
  let survivors = List.map snd (HD.surviving_special dmm) in
  checkb "max rule contains survivors" true (List.for_all (fun e -> List.mem e out) survivors);
  (* Output pairs are always special pairs, hence vertex-disjoint. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      checkb "disjoint" false (Hashtbl.mem seen u || Hashtbl.mem seen v);
      Hashtbl.replace seen u ();
      Hashtbl.replace seen v ())
    out

let test_extract_respects_membership () =
  let dmm = sample 12 in
  let h = R.build_h dmm in
  let mis = greedy_mis 13 h in
  let in_mis = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace in_mis v ()) mis;
  let ml = R.extract dmm mis R.Left in
  List.iter
    (fun (u, v) ->
      checkb "not both copies in MIS" false (Hashtbl.mem in_mis u && Hashtbl.mem in_mis v))
    ml

let test_end_to_end_cost () =
  let dmm = sample 13 in
  let coins = Sketchmodel.Public_coins.create 4444 in
  let verdict, g_stats, h_stats = R.end_to_end_cost dmm Protocols.Trivial.mis coins in
  checkb "complete end-to-end" true verdict.R.complete;
  checkb "lemma holds end-to-end" true verdict.R.lemma41_ok;
  checkb "per-G-player at most doubles" true
    (g_stats.Sketchmodel.Rounds.max_bits <= 2 * h_stats.Sketchmodel.Rounds.max_bits);
  checki "G side is one round" 1 g_stats.Sketchmodel.Rounds.rounds;
  checki "H side is one round" 1 h_stats.Sketchmodel.Rounds.rounds;
  checki "total bits preserved" h_stats.Sketchmodel.Rounds.total_bits
    g_stats.Sketchmodel.Rounds.total_bits

let test_luby_solver_also_works () =
  let dmm = sample 14 in
  let solver g = Dgraph.Mis.luby g (Stdx.Prng.create 5) in
  let verdict = R.run_with_solver dmm solver in
  checkb "lemma 4.1 with Luby MIS" true verdict.R.lemma41_ok;
  checkb "complete" true verdict.R.complete

let test_remarks () =
  for seed = 1 to 5 do
    let dmm = sample ~m:(3 + seed) seed in
    checkb "base graph shared (3.6-i)" true (Core.Remarks.base_graph_shared dmm);
    (* (iii): H is constructible from purely local player knowledge. *)
    checkb "distributed H = referee H (3.6-iii)" true
      (G.equal (Core.Remarks.distributed_h dmm) (R.build_h dmm));
    (* (iv): the full surviving matching always satisfies the relaxed goal
       when Claim 3.1's event holds. *)
    let survivors = List.map snd (Core.Hard_dist.surviving_special dmm) in
    if
      4 * List.length survivors
      >= dmm.Core.Hard_dist.k * Core.Hard_dist.r dmm
    then checkb "survivors meet remark (iv)" true (Core.Remarks.meets_remark_iv dmm survivors);
    (* An empty output never does (kr/4 > 0). *)
    checkb "empty fails remark (iv)" false (Core.Remarks.meets_remark_iv dmm [])
  done

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reduction correct for random instances" ~count:20
         QCheck.(pair (int_range 2 7) (int_range 0 10000))
         (fun (m, seed) ->
           let dmm = sample ~m seed in
           let verdict = R.check dmm (greedy_mis seed (R.build_h dmm)) in
           verdict.R.lemma41_ok && verdict.R.complete));
  ]

let () =
  Alcotest.run "reduction"
    [
      ( "construction",
        [
          Alcotest.test_case "H structure" `Quick test_h_structure;
          Alcotest.test_case "no unique cross edges" `Quick
            test_no_cross_edges_between_unique_copies;
        ] );
      ( "lemma-4.1",
        [
          Alcotest.test_case "one side public-free" `Quick test_side_public_empty_disjunction;
          Alcotest.test_case "lemma 4.1" `Quick test_lemma41;
          Alcotest.test_case "min rule exact" `Quick test_min_rule_exact;
          Alcotest.test_case "max rule superset" `Quick test_max_rule_superset;
          Alcotest.test_case "extract membership" `Quick test_extract_respects_membership;
        ] );
      ( "remark-3.6",
        [ Alcotest.test_case "executable remarks" `Quick test_remarks ] );
      ( "end-to-end",
        [
          Alcotest.test_case "cost blow-up <= 2" `Quick test_end_to_end_cost;
          Alcotest.test_case "luby solver" `Quick test_luby_solver_also_works;
        ] );
      ("reduction-properties", qcheck_tests);
    ]
