(* Tests for Core.Yao (derandomization), Infotheory.Estimate (sampled MI)
   and Rsgraph.Packed (randomized RS family). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Yao --- *)

let test_yao_max_dominates_average () =
  (* Deterministic toy: success depends on seed parity matching instance
     parity. *)
  let report =
    Core.Yao.derandomize ~seeds:[ 0; 1; 2; 3 ]
      ~instances:(Array.init 10 (fun i -> i))
      ~run:(fun coins i -> (Sketchmodel.Public_coins.seed coins + i) mod 2 = 0)
  in
  checkb "dominates" true (Core.Yao.dominates report);
  Alcotest.(check (float 1e-9)) "average is half" 0.5 report.Core.Yao.average;
  Alcotest.(check (float 1e-9)) "best is half here" 0.5 report.Core.Yao.best_rate

let test_yao_spread () =
  let report =
    Core.Yao.derandomize ~seeds:[ 0; 1 ]
      ~instances:[| 0; 1; 2; 3 |]
      ~run:(fun coins i -> Sketchmodel.Public_coins.seed coins = 0 || i = 0)
  in
  Alcotest.(check (float 1e-9)) "best rate" 1.0 report.Core.Yao.best_rate;
  checki "best seed" 0 report.Core.Yao.best_seed;
  Alcotest.(check (float 1e-9)) "average" 0.625 report.Core.Yao.average

let test_yao_on_dmm () =
  let rs = Rsgraph.Rs_graph.bipartite 5 in
  let instances = Array.init 6 (fun i -> Core.Hard_dist.sample rs (Stdx.Prng.create (i * 11))) in
  let report =
    Core.Yao.derandomize ~seeds:[ 1; 2; 3 ] ~instances ~run:(fun coins dmm ->
        let p =
          Protocols.Sampled_mm.protocol ~budget_bits:24 ~strategy:Protocols.Sampled_mm.Uniform
        in
        let out, _ =
          Sketchmodel.Rounds.run (Sketchmodel.Rounds.one_round p) dmm.Core.Hard_dist.graph coins
        in
        Dgraph.Matching.is_maximal dmm.Core.Hard_dist.graph out)
  in
  checkb "dominates on D_MM" true (Core.Yao.dominates report);
  checki "three seeds reported" 3 (List.length report.Core.Yao.per_seed)

let test_yao_guards () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "no seeds" true
    (raises (fun () -> Core.Yao.derandomize ~seeds:[] ~instances:[| 1 |] ~run:(fun _ _ -> true)));
  checkb "no instances" true
    (raises (fun () -> Core.Yao.derandomize ~seeds:[ 1 ] ~instances:[||] ~run:(fun _ _ -> true)))

(* --- Estimate --- *)

let test_entropy_plugin_exact_on_uniform () =
  let samples = Array.init 1024 (fun i -> i mod 4) in
  Alcotest.(check (float 1e-9)) "uniform 4" 2. (Infotheory.Estimate.entropy_plugin samples);
  Alcotest.(check (float 0.01)) "miller-madow close" 2.
    (Infotheory.Estimate.entropy_miller_madow samples)

let test_entropy_plugin_constant () =
  Alcotest.(check (float 1e-9)) "constant" 0.
    (Infotheory.Estimate.entropy_plugin (Array.make 100 42))

let test_mi_plugin_identical_and_independent () =
  let rng = Stdx.Prng.create 4 in
  let xs = Array.init 4000 (fun _ -> Stdx.Prng.int rng 4) in
  let identical = Array.map (fun x -> (x, x)) xs in
  checkb "identical ~ 2 bits" true
    (abs_float (Infotheory.Estimate.mutual_information_plugin identical -. 2.) < 0.02);
  let independent = Array.map (fun x -> (x, Stdx.Prng.int rng 4)) xs in
  checkb "independent ~ 0 (upward bias < 0.01)" true
    (Infotheory.Estimate.mutual_information_plugin independent < 0.01)

let test_cmi_plugin_xor () =
  (* X, Y fair bits, Z = X xor Y: I(X;Z) ~ 0 but I(X;Z|Y) ~ 1. *)
  let rng = Stdx.Prng.create 5 in
  let samples =
    Array.init 6000 (fun _ ->
        let x = Stdx.Prng.bool rng and y = Stdx.Prng.bool rng in
        (x, (x <> y, y)))
  in
  checkb "I(X;Z|Y) ~ 1" true
    (abs_float (Infotheory.Estimate.conditional_mutual_information_plugin samples -. 1.) < 0.02)

let test_sample_space_frequencies () =
  let space = Infotheory.Space.of_weighted [ (0, 3.); (1, 1.) ] in
  let samples = Infotheory.Estimate.sample_space (Stdx.Prng.create 6) space 8000 in
  let zeros = Array.fold_left (fun acc x -> if x = 0 then acc + 1 else acc) 0 samples in
  checkb "frequency ~ 3/4" true (abs (zeros - 6000) < 300)

let test_estimator_converges_to_exact () =
  (* On an enumerable space, plug-in MI from many samples approaches the
     exact value. *)
  let space = Infotheory.Space.bits 3 in
  let exact =
    Infotheory.Entropy.mutual_information space (fun b -> b.(0)) (fun b -> (b.(0), b.(1)))
  in
  let samples = Infotheory.Estimate.sample_space (Stdx.Prng.create 7) space 8000 in
  let joint = Array.map (fun b -> (b.(0), (b.(0), b.(1)))) samples in
  let est = Infotheory.Estimate.mutual_information_plugin joint in
  checkb "converged" true (abs_float (est -. exact) < 0.02)

(* --- Packed --- *)

let test_packed_is_valid_rs () =
  let rng = Stdx.Prng.create 8 in
  match Rsgraph.Packed.pack rng ~big_n:40 ~r:4 ~tries:500 with
  | None -> Alcotest.fail "packing placed nothing"
  | Some rs ->
      checkb "verified RS graph" true (Rsgraph.Verify.is_valid_rs rs);
      checki "r as requested" 4 rs.Rsgraph.Rs_graph.r;
      checkb "placed several" true (rs.Rsgraph.Rs_graph.t_count >= 2)

let test_packed_guards () =
  let rng = Stdx.Prng.create 9 in
  Alcotest.check_raises "2r > N" (Invalid_argument "Packed.pack: 2r must fit in N") (fun () ->
      ignore (Rsgraph.Packed.pack rng ~big_n:6 ~r:4 ~tries:10))

let test_packed_more_tries_no_worse () =
  let t_small = Rsgraph.Packed.achieved_t (Stdx.Prng.create 10) ~big_n:30 ~r:3 ~tries:50 in
  let t_large = Rsgraph.Packed.achieved_t (Stdx.Prng.create 10) ~big_n:30 ~r:3 ~tries:1000 in
  checkb "monotone in tries (same seed)" true (t_large >= t_small)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"yao best >= average always" ~count:100
         QCheck.(pair (list_of_size Gen.(int_range 1 6) (int_range 0 50)) (int_range 1 20))
         (fun (seeds, insts) ->
           let report =
             Core.Yao.derandomize ~seeds
               ~instances:(Array.init insts (fun i -> i))
               ~run:(fun coins i ->
                 Stdx.Hashing.mix64 (Sketchmodel.Public_coins.seed coins + i) mod 3 = 0)
           in
           Core.Yao.dominates report));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"packed output always a verified RS graph" ~count:20
         QCheck.(pair (int_range 10 40) (int_range 0 1000))
         (fun (nn, seed) ->
           let r = max 1 (nn / 10) in
           match Rsgraph.Packed.pack (Stdx.Prng.create seed) ~big_n:nn ~r ~tries:200 with
           | None -> true
           | Some rs -> Rsgraph.Verify.is_valid_rs rs));
  ]

let () =
  Alcotest.run "yao_estimate_packed"
    [
      ( "yao",
        [
          Alcotest.test_case "max dominates average" `Quick test_yao_max_dominates_average;
          Alcotest.test_case "spread" `Quick test_yao_spread;
          Alcotest.test_case "on D_MM" `Quick test_yao_on_dmm;
          Alcotest.test_case "guards" `Quick test_yao_guards;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "uniform entropy" `Quick test_entropy_plugin_exact_on_uniform;
          Alcotest.test_case "constant" `Quick test_entropy_plugin_constant;
          Alcotest.test_case "identical / independent MI" `Quick
            test_mi_plugin_identical_and_independent;
          Alcotest.test_case "xor CMI" `Quick test_cmi_plugin_xor;
          Alcotest.test_case "sample frequencies" `Quick test_sample_space_frequencies;
          Alcotest.test_case "converges to exact" `Quick test_estimator_converges_to_exact;
        ] );
      ( "packed",
        [
          Alcotest.test_case "valid RS" `Quick test_packed_is_valid_rs;
          Alcotest.test_case "guards" `Quick test_packed_guards;
          Alcotest.test_case "monotone in tries" `Quick test_packed_more_tries_no_worse;
        ] );
      ("properties", qcheck_tests);
    ]
