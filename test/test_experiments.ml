(* Smoke tests for the per-table experiment modules: every table/figure
   generator ([Core.Exp_rs.compute], [Core.Exp_claim31.compute], ...)
   returns rows with internally consistent fields at small sizes. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_rs_table () =
  let rows = Core.Exp_rs.compute ~ms:[ 3; 6 ] () in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun { Core.Exp_rs.row; verified } ->
      checkb "verified" true verified;
      checki "edges = r*t" (row.Rsgraph.Params.r * row.Rsgraph.Params.t) row.Rsgraph.Params.edges)
    rows

let test_behrend_table () =
  let module B = Core.Exp_behrend in
  let rows = B.compute ~ms:[ 10; 25 ] () in
  List.iter
    (fun r ->
      checkb "best = max(greedy, behrend)" true
        (r.B.best_size = max r.B.greedy_size r.B.behrend_size);
      (match r.B.exact_size with
      | Some e -> checkb "exact >= best" true (e >= r.B.best_size)
      | None -> ());
      checkb "rate positive" true (r.B.rate > 0.))
    rows

let test_claim31 () =
  let module C = Core.Exp_claim31 in
  let rows = C.compute ~ms:[ 5 ] ~samples:3 ~seed:1 () in
  List.iter
    (fun r ->
      checkb "min <= mean" true (float_of_int r.C.min_union <= r.C.mean_union +. 1e-9);
      checkb "violations bounded" true (r.C.violations >= 0 && r.C.violations <= r.C.samples))
    rows

let test_budget_sweep () =
  let module S = Core.Exp_budget_sweep in
  let sweep = S.compute ~m:5 ~budgets:[ 4; 4096 ] ~trials:2 ~seed:2 () in
  checki "rows = budgets x strategies" (2 * 3) (List.length sweep.S.rows);
  List.iter
    (fun r ->
      checkb "fractions in range" true
        (r.S.special_recovered >= 0. && r.S.special_recovered <= 1.
        && r.S.relaxed_success >= 0. && r.S.relaxed_success <= 1.))
    sweep.S.rows;
  (* Huge budget should reach full relaxed success; oracle always does. *)
  let big = List.filter (fun r -> r.S.budget_bits = 4096) sweep.S.rows in
  List.iter (fun r -> checkb "large budget succeeds" true (r.S.relaxed_success >= 0.99)) big;
  checkb "oracle succeeds" true (sweep.S.oracle_success >= 0.99);
  checkb "oracle is cheap" true (sweep.S.oracle_bits <= 32)

let test_info_accounting () =
  let reports = Core.Exp_info_accounting.compute ~bits:[ 2 ] in
  checki "two sigma modes" 2 (List.length reports);
  List.iter
    (fun r -> checkb "inequalities hold" true (Core.Accounting.all_inequalities_hold r))
    reports

let test_upper_bounds () =
  let module U = Core.Exp_upper_bounds in
  let rows = U.compute ~ns:[ 48 ] ~seed:3 in
  List.iter
    (fun r ->
      checkb "agm ok" true r.U.agm_ok;
      checkb "coloring ok" true r.U.coloring_ok;
      checkb "two-round mm ok" true r.U.two_round_mm_ok;
      checkb "two-round mis ok" true r.U.two_round_mis_ok;
      checkb "bits positive" true (r.U.trivial_mm_bits > 0))
    rows

let test_coloring_contrast () =
  let module C = Core.Exp_coloring_contrast in
  let rows = C.compute ~ns:[ 128 ] ~seed:4 in
  List.iter
    (fun r ->
      checkb "proper" true r.C.proper;
      checkb "ratio sane" true (r.C.ratio > 0. && r.C.ratio <= 1.2))
    rows

let test_bound_curve () =
  let module B = Core.Exp_bound_curve in
  let rows = B.compute ~ms:[ 5; 20 ] in
  match rows with
  | [ a; b ] ->
      checkb "n grows" true (b.B.n_dmm > a.B.n_dmm);
      checkb "LB below 2-round UB" true (a.B.lower_bound_bits < a.B.two_round_bits);
      checkb "2-round below trivial" true (a.B.two_round_bits < a.B.trivial_bits)
  | _ -> Alcotest.fail "expected two rows"

let test_reduction () =
  let module R = Core.Exp_reduction in
  let rows = R.compute ~ms:[ 4 ] ~samples:2 ~seed:5 in
  List.iter
    (fun r ->
      checkb "lemma" true r.R.lemma41_all;
      checkb "complete" true r.R.complete_all;
      checkb "min exact" true r.R.min_rule_exact_all;
      checkb "ratio <= 2" true (r.R.cost_ratio <= 2. +. 1e-9))
    rows

let test_bridge () =
  let module B = Core.Exp_bridge in
  let rows = B.compute ~halves:[ 24 ] ~samples:[ 3 ] ~trials:4 ~seed:6 in
  List.iter
    (fun r ->
      checkb "success rate valid" true (r.B.success >= 0. && r.B.success <= 1.);
      checkb "bits positive" true (r.B.max_bits > 0))
    rows

let test_packing () =
  let module P = Core.Exp_packing in
  let rows = P.compute ~ms:[ 4 ] ~tries:300 ~seed:7 () in
  List.iter
    (fun r -> checkb "some packing" true (r.P.packed_t >= 1 && r.P.behrend_t >= 1))
    rows

let test_estimate () =
  let module E = Core.Exp_estimate_info in
  let rows = E.compute ~bits:[ 14 ] ~samples:2000 ~seed:8 () in
  List.iter (fun r -> checkb "error small at saturating b" true (r.E.abs_error < 0.25)) rows

let test_yao () =
  let module Y = Core.Exp_yao in
  let rows = Y.compute ~m:5 ~budgets:[ 24 ] ~instances:6 ~seeds:3 ~seed:9 in
  List.iter
    (fun r ->
      checkb "dominates" true r.Y.dominates;
      checkb "rates in range" true
        (r.Y.randomized >= 0. && r.Y.randomized <= r.Y.derandomized +. 1e-9))
    rows

let test_bcc () =
  let module B = Core.Exp_bcc in
  let rows = B.compute ~ms:[ 5 ] ~trials:2 ~seed:10 in
  List.iter
    (fun r ->
      checkb "bcc maximal" true r.B.bcc_maximal;
      checkb "bits per round tiny" true (r.B.bcc_bits_per_round <= 24))
    rows

let test_k_sweep_smoke () =
  let module K = Core.Exp_k_sweep in
  let rows = K.compute ~m:5 ~ks:[ 2; 5 ] ~budgets:[ 8; 512 ] ~trials:2 ~seed:11 in
  checki "rows" 2 (List.length rows);
  List.iter (fun r -> checkb "LB positive" true (r.K.predicted > 0.)) rows

let test_streams_smoke () =
  let module S = Core.Exp_streams in
  let rows = S.compute ~ns:[ 20 ] ~seed:12 in
  List.iter
    (fun r ->
      checkb "forest ok" true r.S.forest_ok;
      checkb "bits equal" true r.S.messages_identical)
    rows

let test_connectivity_smoke () =
  let module C = Core.Exp_connectivity in
  let rows = C.compute ~seed:13 in
  List.iter
    (fun r ->
      checkb "cert valid" true r.C.cert_valid;
      checki "estimate exact" r.C.truth r.C.estimate;
      checkb "bipartite agrees" true (r.C.bipartite_sketch = r.C.bipartite_truth))
    rows

let test_rounds_smoke () =
  let module R = Core.Exp_rounds in
  let rows = R.compute ~ms:[ 5 ] ~seed:14 in
  List.iter
    (fun r ->
      checkb "two-round mm" true r.R.two_round_mm_maximal;
      checkb "two-round mis" true r.R.two_round_mis_maximal;
      checkb "one-round fraction valid" true
        (r.R.one_round_undominated >= 0. && r.R.one_round_undominated < 1.))
    rows

let test_approx_smoke () =
  let module A = Core.Exp_approx_matching in
  let rows = A.compute ~ns:[ 24 ] ~budgets:[ 16 ] ~trials:2 ~seed:15 in
  List.iter
    (fun r -> checkb "ratio in (0,1]" true (r.A.ratio_mean > 0. && r.A.ratio_mean <= 1.))
    rows

let () =
  Alcotest.run "experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "T1 rs table" `Quick test_rs_table;
          Alcotest.test_case "T2 behrend table" `Quick test_behrend_table;
          Alcotest.test_case "T3 claim31" `Quick test_claim31;
          Alcotest.test_case "F4 budget sweep" `Quick test_budget_sweep;
          Alcotest.test_case "F5 info accounting" `Slow test_info_accounting;
          Alcotest.test_case "T6 upper bounds" `Quick test_upper_bounds;
          Alcotest.test_case "T6b coloring contrast" `Quick test_coloring_contrast;
          Alcotest.test_case "F7 bound curve" `Quick test_bound_curve;
          Alcotest.test_case "T8 reduction" `Quick test_reduction;
          Alcotest.test_case "F9 bridge" `Quick test_bridge;
          Alcotest.test_case "T2b packing" `Quick test_packing;
          Alcotest.test_case "F5b estimate" `Quick test_estimate;
          Alcotest.test_case "T13 yao" `Quick test_yao;
          Alcotest.test_case "T14 bcc" `Quick test_bcc;
          Alcotest.test_case "F11 k-sweep" `Quick test_k_sweep_smoke;
          Alcotest.test_case "T10 streams" `Quick test_streams_smoke;
          Alcotest.test_case "T11 connectivity" `Slow test_connectivity_smoke;
          Alcotest.test_case "T12 rounds" `Quick test_rounds_smoke;
          Alcotest.test_case "F10 approx" `Quick test_approx_smoke;
        ] );
    ]
