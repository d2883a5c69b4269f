(* Tests for Protocols.One_round_mis: the one-round attempts the lower
   bound dooms. *)

module OR = Protocols.One_round_mis
module Rounds = Sketchmodel.Rounds
module PC = Sketchmodel.Public_coins
module G = Dgraph.Graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_local_minima_always_independent () =
  let rng = Stdx.Prng.create 1 in
  for seed = 1 to 20 do
    let g = Dgraph.Gen.gnp rng 40 0.2 in
    let set, _ = Rounds.run (Rounds.one_round OR.local_minima) g (PC.create seed) in
    checkb "independent" true (Dgraph.Mis.is_independent g set)
  done

let test_local_minima_one_bit () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 2) 50 0.3 in
  let _, stats = Rounds.run (Rounds.one_round OR.local_minima) g (PC.create 3) in
  checki "exactly one bit per player" 1 stats.Rounds.max_bits;
  checki "total = n" 50 stats.Rounds.total_bits

let test_local_minima_rarely_maximal () =
  (* On paths (sparse), local minima leave a constant fraction
     undominated: the failure Theorem 2 guarantees must show up. *)
  let failures = ref 0 in
  for seed = 1 to 20 do
    let g = Dgraph.Gen.path 60 in
    let frac, _ = OR.undominated_fraction g (PC.create (seed * 11)) in
    if frac > 0. then incr failures
  done;
  checkb (Printf.sprintf "non-maximal in %d/20 runs" !failures) true (!failures >= 18)

let test_local_minima_on_empty_and_complete () =
  (* Empty graph: every vertex is a local min -> full set, maximal. *)
  let g = G.empty 10 in
  let set, _ = Rounds.run (Rounds.one_round OR.local_minima) g (PC.create 4) in
  checki "all isolated vertices chosen" 10 (List.length set);
  (* Complete graph: exactly one local min -> maximal. *)
  let kg = Dgraph.Gen.complete 9 in
  let kset, _ = Rounds.run (Rounds.one_round OR.local_minima) kg (PC.create 5) in
  checki "single winner" 1 (List.length kset);
  checkb "maximal on K9" true (Dgraph.Mis.is_maximal kg kset)

let test_undominated_fraction_range () =
  let rng = Stdx.Prng.create 6 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp rng 50 0.1 in
    let frac, _ = OR.undominated_fraction g (PC.create seed) in
    checkb "fraction in [0,1)" true (frac >= 0. && frac < 1.)
  done

let test_budgeted_zero_claims_everything () =
  (* With no reported edges the referee picks every vertex: independent
     only on empty graphs — the "not independent" error mode. *)
  let g = Dgraph.Gen.cycle 6 in
  let set, stats = Rounds.run (Rounds.one_round (OR.budgeted ~budget_bits:0)) g (PC.create 7) in
  checki "no bits" 0 stats.Rounds.max_bits;
  checki "claims all" 6 (List.length set);
  checkb "not independent" false (Dgraph.Mis.is_independent g set)

let test_budgeted_full_budget_correct () =
  let rng = Stdx.Prng.create 8 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp rng 30 0.25 in
    let set, _ =
      Rounds.run (Rounds.one_round (OR.budgeted ~budget_bits:100000)) g (PC.create seed)
    in
    checkb "maximal IS with full reports" true (Dgraph.Mis.is_maximal g set)
  done

let test_budgeted_budget_respected () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 9) 60 0.5 in
  List.iter
    (fun b ->
      let _, stats = Rounds.run (Rounds.one_round (OR.budgeted ~budget_bits:b)) g (PC.create 10) in
      checkb (Printf.sprintf "b=%d" b) true (stats.Rounds.max_bits <= b))
    [ 0; 8; 33; 128 ]

let test_budgeted_error_modes_tracked () =
  (* Mid budgets can err on either side; verify the verdict decomposition
     runs and the output at least never contains out-of-range ids. *)
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 11) 40 0.3 in
  let set, _ = Rounds.run (Rounds.one_round (OR.budgeted ~budget_bits:24)) g (PC.create 12) in
  checkb "ids in range" true (List.for_all (fun v -> v >= 0 && v < 40) set);
  let verdict = Dgraph.Mis.verify g set in
  checkb "verdict computable" true (verdict.Dgraph.Mis.independent || true)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"local minima independent on random graphs" ~count:80
         QCheck.(pair (int_range 1 40) (int_range 0 10000))
         (fun (n, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.3 in
           let set, _ = Rounds.run (Rounds.one_round OR.local_minima) g (PC.create (seed + 1)) in
           Dgraph.Mis.is_independent g set));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"budgeted output deterministic given coins" ~count:40
         QCheck.(pair (int_range 1 30) (int_range 0 10000))
         (fun (n, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.3 in
           let a, _ = Rounds.run (Rounds.one_round (OR.budgeted ~budget_bits:32)) g (PC.create 5) in
           let b, _ = Rounds.run (Rounds.one_round (OR.budgeted ~budget_bits:32)) g (PC.create 5) in
           a = b));
  ]

let () =
  Alcotest.run "one_round_mis"
    [
      ( "local-minima",
        [
          Alcotest.test_case "always independent" `Quick test_local_minima_always_independent;
          Alcotest.test_case "one bit" `Quick test_local_minima_one_bit;
          Alcotest.test_case "rarely maximal" `Quick test_local_minima_rarely_maximal;
          Alcotest.test_case "empty and complete" `Quick test_local_minima_on_empty_and_complete;
          Alcotest.test_case "undominated fraction range" `Quick test_undominated_fraction_range;
        ] );
      ( "budgeted",
        [
          Alcotest.test_case "zero budget" `Quick test_budgeted_zero_claims_everything;
          Alcotest.test_case "full budget correct" `Quick test_budgeted_full_budget_correct;
          Alcotest.test_case "budget respected" `Quick test_budgeted_budget_respected;
          Alcotest.test_case "error modes" `Quick test_budgeted_error_modes_tracked;
        ] );
      ("one-round-mis-properties", qcheck_tests);
    ]
