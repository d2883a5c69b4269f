(* Tests for Rsgraph.Rs_graph, Rsgraph.Verify and Rsgraph.Params. *)

module Rs = Rsgraph.Rs_graph
module V = Rsgraph.Verify
module P = Rsgraph.Params
module G = Dgraph.Graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_bipartite_construction () =
  List.iter
    (fun m ->
      let rs = Rs.bipartite m in
      checki "N = 5m" (5 * m) (Rs.n rs);
      checki "t = m" m rs.Rs.t_count;
      checki "r = |A|" (List.length (Rsgraph.Behrend.best m)) rs.Rs.r;
      checki "edges = r * t" (rs.Rs.r * rs.Rs.t_count) (G.m rs.Rs.graph);
      checkb "verified" true (V.is_valid_rs rs))
    [ 2; 3; 5; 10; 25; 60 ]

let test_bipartite_sides () =
  (* Left endpoints live in [0, 2m), right endpoints in [2m, 5m). *)
  let m = 10 in
  let rs = Rs.bipartite m in
  G.iter_edges
    (fun u v ->
      let u, v = G.normalize_edge u v in
      checkb "bipartite sides" true (u < 2 * m && v >= 2 * m))
    rs.Rs.graph

let test_matching_sizes_equal () =
  let rs = Rs.bipartite 20 in
  Array.iter (fun mt -> checki "size r" rs.Rs.r (Array.length mt)) rs.Rs.matchings

let test_trivial () =
  let rs = Rs.trivial ~r:3 ~t:4 in
  checki "N = 2rt" 24 (Rs.n rs);
  checki "r" 3 rs.Rs.r;
  checki "t" 4 rs.Rs.t_count;
  checkb "verified" true (V.is_valid_rs rs);
  checki "max degree 1" 1 (G.max_degree rs.Rs.graph)

let test_matching_vertices () =
  let rs = Rs.bipartite 10 in
  for j = 0 to rs.Rs.t_count - 1 do
    checki "2r vertices" (2 * rs.Rs.r) (Array.length (Rs.matching_vertices rs j))
  done

let test_matching_index_roundtrip () =
  let rs = Rs.bipartite 8 in
  Array.iteri
    (fun j mt ->
      Array.iter
        (fun e ->
          match Rs.matching_index_of_edge rs e with
          | Some j' -> checki "index roundtrip" j j'
          | None -> Alcotest.fail "edge lost")
        mt)
    rs.Rs.matchings;
  checkb "non-edge" true (Rs.matching_index_of_edge rs (0, 1) = None)

let test_of_matchings_rejections () =
  let raises_invalid f = try f (); false with Invalid_argument _ -> true in
  (* Not a matching: shared endpoint. *)
  checkb "shared endpoint" true
    (raises_invalid (fun () -> ignore (Rs.of_matchings ~n:4 [| [| (0, 1); (1, 2) |] |])));
  (* Unequal sizes. *)
  checkb "unequal sizes" true
    (raises_invalid (fun () ->
         ignore (Rs.of_matchings ~n:8 [| [| (0, 1); (2, 3) |]; [| (4, 5) |] |])));
  (* Duplicate edge across classes. *)
  checkb "duplicate edge" true
    (raises_invalid (fun () -> ignore (Rs.of_matchings ~n:4 [| [| (0, 1) |]; [| (0, 1) |] |])));
  (* Non-induced: K4 minus nothing - matchings {01,23} and {02,13}: edge 02
     connects endpoints of the first matching. *)
  checkb "non-induced" true
    (raises_invalid (fun () ->
         ignore (Rs.of_matchings ~n:4 [| [| (0, 1); (2, 3) |]; [| (0, 2); (1, 3) |] |])));
  (* Empty. *)
  checkb "no matchings" true (raises_invalid (fun () -> ignore (Rs.of_matchings ~n:2 [||])))

let test_of_matchings_accepts_valid () =
  (* Two disjoint matchings on separate vertices: trivially induced. *)
  let rs = Rs.of_matchings ~n:8 [| [| (0, 1); (2, 3) |]; [| (4, 5); (6, 7) |] |] in
  checkb "valid" true (V.is_valid_rs rs)

let test_verify_catches_planted_violation () =
  (* Build a valid RS graph, then hand-check the verifier rejects a graph
     with an extra cross edge. *)
  let rs = Rs.trivial ~r:2 ~t:2 in
  let bad_graph = G.union rs.Rs.graph (G.create (Rs.n rs) [ (0, 2) ]) in
  let report = V.check bad_graph rs.Rs.matchings in
  checkb "partition broken" false report.V.edge_partition;
  checkb "induced broken" false report.V.all_induced;
  checkb "matchings still fine" true report.V.all_matchings

let test_params_bound () =
  let rs = Rs.bipartite 25 in
  let b = P.bound_of_rs rs ~k:rs.Rs.t_count in
  let nn = Rs.n rs and r = rs.Rs.r and t = rs.Rs.t_count in
  checki "n formula" (nn - (2 * r) + (2 * r * t)) b.P.n_vertices;
  checki "public players" (nn - (2 * r)) b.P.public_players;
  checki "unique players" (t * nn) b.P.unique_players;
  checkb "info needed = kr/6" true (abs_float (b.P.info_needed -. (float_of_int (t * r) /. 6.)) < 1e-9);
  (* b >= (kr/6) / (|P| + kN/t); with k = t this is kr / (6(|P| + N)). *)
  let expected =
    float_of_int (t * r) /. 6. /. (float_of_int (nn - (2 * r)) +. float_of_int nn)
  in
  checkb "bound arithmetic" true (abs_float (b.P.bits_lower_bound -. expected) < 1e-9)

let test_params_row () =
  let row = P.rs_row 10 in
  checki "m" 10 row.P.m;
  checki "N" 50 row.P.big_n;
  checki "edges" (row.P.r * row.P.t) row.P.edges;
  checkb "density in (0,1)" true (row.P.density > 0. && row.P.density < 1.)

let test_params_guards () =
  Alcotest.check_raises "bad k" (Invalid_argument "Params.bound") (fun () ->
      ignore (P.bound ~big_n:10 ~r:2 ~t:3 ~k:0));
  Alcotest.check_raises "N too small" (Invalid_argument "Params.bound") (fun () ->
      ignore (P.bound ~big_n:4 ~r:2 ~t:3 ~k:1))

let test_behrend_rate_bounded () =
  (* The Behrend exponent constant should stay bounded (say < 2) as m
     grows: that is the e^{Theta(sqrt(log))} shape of Proposition 2.1. *)
  List.iter
    (fun m ->
      let rate = P.behrend_rate m in
      checkb (Printf.sprintf "rate(%d)=%.3f" m rate) true (rate > 0. && rate < 2.))
    [ 100; 1000; 10000 ]

let test_derived_disjoint_union () =
  let a = Rs.trivial ~r:2 ~t:3 and b = Rs.trivial ~r:2 ~t:2 in
  let u = Derived.disjoint_union a b in
  checki "t adds" 5 u.Rs.t_count;
  checki "r unchanged" 2 u.Rs.r;
  checkb "valid" true (V.is_valid_rs u);
  Alcotest.check_raises "unequal r" (Invalid_argument "Derived.disjoint_union: unequal r")
    (fun () -> ignore (Derived.disjoint_union a (Rs.trivial ~r:3 ~t:1)))

let test_derived_widen () =
  let a = Rs.bipartite 3 and b = Rs.trivial ~r:1 ~t:3 in
  let w = Derived.widen a b in
  checki "r adds" (a.Rs.r + 1) w.Rs.r;
  checki "t unchanged" 3 w.Rs.t_count;
  checkb "valid" true (V.is_valid_rs w)

let test_derived_take_shrink () =
  let rs = Rs.bipartite 6 in
  let taken = Derived.take_matchings rs 2 in
  checki "t shrinks" 2 taken.Rs.t_count;
  checkb "valid" true (V.is_valid_rs taken);
  let shrunk = Derived.shrink_matchings rs 1 in
  checki "r shrinks" 1 shrunk.Rs.r;
  checki "t kept" rs.Rs.t_count shrunk.Rs.t_count;
  checkb "valid" true (V.is_valid_rs shrunk)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"bipartite RS verified for random m" ~count:20
         (QCheck.int_range 2 40)
         (fun m -> V.is_valid_rs (Rs.bipartite m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"trivial RS verified" ~count:30
         QCheck.(pair (int_range 1 6) (int_range 1 6))
         (fun (r, t) -> V.is_valid_rs (Rs.trivial ~r ~t)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every matching induced (independent re-check)" ~count:10
         (QCheck.int_range 2 25)
         (fun m ->
           let rs = Rs.bipartite m in
           (* For each matching, the induced subgraph on its endpoints has
              exactly r edges. *)
           Array.for_all
             (fun mt ->
               let vs =
                 Array.to_list mt |> List.concat_map (fun (u, v) -> [ u; v ])
                 |> List.sort_uniq compare
               in
               let sub, _ = G.induced rs.Rs.graph vs in
               G.m sub = Array.length mt)
             rs.Rs.matchings));
  ]

let () =
  Alcotest.run "rs"
    [
      ( "rs-graph",
        [
          Alcotest.test_case "bipartite construction" `Quick test_bipartite_construction;
          Alcotest.test_case "bipartite sides" `Quick test_bipartite_sides;
          Alcotest.test_case "matching sizes equal" `Quick test_matching_sizes_equal;
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "matching vertices" `Quick test_matching_vertices;
          Alcotest.test_case "matching index roundtrip" `Quick test_matching_index_roundtrip;
          Alcotest.test_case "of_matchings rejections" `Quick test_of_matchings_rejections;
          Alcotest.test_case "of_matchings accepts valid" `Quick test_of_matchings_accepts_valid;
          Alcotest.test_case "verify catches violations" `Quick
            test_verify_catches_planted_violation;
        ] );
      ( "derived",
        [
          Alcotest.test_case "disjoint union" `Quick test_derived_disjoint_union;
          Alcotest.test_case "widen" `Quick test_derived_widen;
          Alcotest.test_case "take/shrink" `Quick test_derived_take_shrink;
        ] );
      ( "params",
        [
          Alcotest.test_case "bound arithmetic" `Quick test_params_bound;
          Alcotest.test_case "row" `Quick test_params_row;
          Alcotest.test_case "guards" `Quick test_params_guards;
          Alcotest.test_case "behrend rate bounded" `Quick test_behrend_rate_bounded;
        ] );
      ("rs-properties", qcheck_tests);
    ]
