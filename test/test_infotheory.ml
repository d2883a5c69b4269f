(* Tests for Infotheory: spaces, entropy, and Fact 2.2 / Propositions
   2.3-2.4, the steps the lower-bound accounting chains together. *)

module S = Infotheory.Space
module E = Infotheory.Entropy

(* The paper's information-theory toolbox (Fact 2.2 and Propositions
   2.3 / 2.4) as executable checks: each returns the numerical slack of
   its (in)equality on a space and random variables, and the cases below
   assert the slack is non-negative (inequalities) or negligible
   (identities). [tolerance] decides conditional independence. *)
module F = struct
  let tolerance = 1e-9

  let log2 x = log x /. log 2.

  let entropy_bounds space a =
    let h = E.entropy space a in
    let support = Hashtbl.create 16 in
    S.iter (fun outcome _ -> Hashtbl.replace support (a outcome) ()) space;
    (h, log2 (float_of_int (Hashtbl.length support)))

  let mi_nonneg space a b = E.mutual_information space a b

  let conditioning_reduces_entropy space a ~given ~extra =
    E.conditional_entropy space a ~given
    -. E.conditional_entropy space a ~given:(E.pair given extra)

  let chain_rule_entropy_residual space a b ~given =
    let lhs = E.conditional_entropy space (E.pair a b) ~given in
    let rhs =
      E.conditional_entropy space a ~given
      +. E.conditional_entropy space b ~given:(E.pair given a)
    in
    abs_float (lhs -. rhs)

  let chain_rule_mi_residual space a b c ~given =
    let lhs = E.conditional_mutual_information space (E.pair a b) c ~given in
    let rhs =
      E.conditional_mutual_information space a c ~given
      +. E.conditional_mutual_information space b c ~given:(E.pair a given)
    in
    abs_float (lhs -. rhs)

  let cond_independent space a d ~given =
    E.conditional_mutual_information space a d ~given <= tolerance

  let proposition_2_3 space ~a ~b ~c ~d =
    if not (cond_independent space a d ~given:c) then None
    else
      Some
        (E.conditional_mutual_information space a b ~given:(E.pair c d)
        -. E.conditional_mutual_information space a b ~given:c)

  let proposition_2_4 space ~a ~b ~c ~d =
    if not (cond_independent space a d ~given:(E.pair b c)) then None
    else
      Some
        (E.conditional_mutual_information space a b ~given:c
        -. E.conditional_mutual_information space a b ~given:(E.pair c d))
end

let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg
let checkf6 msg = Alcotest.(check (float 1e-6)) msg

(* A generic random space: outcomes 0..size-1 with random weights, plus two
   random variable tables mapping outcomes to small codomains. *)
let random_space_gen =
  QCheck.make
    ~print:(fun (ws, _, _, _) -> Printf.sprintf "outcomes=%d" (List.length ws))
    QCheck.Gen.(
      int_range 2 24 >>= fun size ->
      list_repeat size (int_range 1 20) >>= fun ws ->
      list_repeat size (int_range 0 3) >>= fun xs ->
      list_repeat size (int_range 0 3) >>= fun ys ->
      list_repeat size (int_range 0 2) >>= fun zs -> return (ws, xs, ys, zs))

let space_of (ws, _, _, _) =
  S.of_weighted (List.mapi (fun i w -> (i, float_of_int w)) ws)

let rv_of values i = List.nth values i

let test_uniform_entropy () =
  let space = S.uniform [ 0; 1; 2; 3 ] in
  checkf "H uniform 4" 2. (E.entropy space (fun x -> x));
  checkf "H constant" 0. (E.entropy space (fun _ -> 0))

let test_weighted () =
  let space = S.of_weighted [ (0, 1.); (1, 1.); (1, 2.) ] in
  (* merged: P(0)=1/4, P(1)=3/4 *)
  checkf "prob" 0.25 (S.prob space (fun x -> x = 0));
  checkf "expectation" 0.75 (S.expectation space float_of_int)

let test_weighted_invalid () =
  Alcotest.check_raises "no mass" (Invalid_argument "Space: total weight must be positive")
    (fun () -> ignore (S.of_weighted [ (0, 0.) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Space: negative weight") (fun () ->
      ignore (S.of_weighted [ (0, -1.) ]))

let test_bits_space () =
  let space = S.bits 3 in
  Alcotest.(check int) "8 outcomes" 8 (S.support_size space);
  checkf "3 bits of entropy" 3. (E.entropy space (fun b -> Array.to_list b));
  checkf "single coordinate is one bit" 1. (E.entropy space (fun b -> b.(1)))

let test_product () =
  let space = S.product (S.uniform [ 0; 1 ]) (S.uniform [ 0; 1; 2; 3 ]) in
  checkf "joint entropy adds" 3. (E.entropy space (fun p -> p));
  checkf "independent => MI zero" 0. (E.mutual_information space fst snd)

let test_condition () =
  let space = S.bits 2 in
  let conditioned = S.condition (fun b -> b.(0)) space in
  checkf "conditioning halves support" 1. (E.entropy conditioned (fun b -> Array.to_list b));
  Alcotest.check_raises "zero-probability event"
    (Invalid_argument "Space.condition: event has probability zero") (fun () ->
      ignore (S.condition (fun _ -> false) space))

let test_mi_identical () =
  let space = S.uniform [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let x o = o in
  checkf "I(X;X) = H(X)" 3. (E.mutual_information space x x)

let test_xor_structure () =
  (* X, Y fair independent bits; Z = X xor Y. Pairwise independent, yet
     I(X,Y;Z) = 1. The classic CMI example: I(X;Z|Y) = 1 > I(X;Z) = 0. *)
  let space = S.bits 2 in
  let x b = b.(0) and y b = b.(1) in
  let z b = b.(0) <> b.(1) in
  checkf "I(X;Z)=0" 0. (E.mutual_information space x z);
  checkf "I(X;Z|Y)=1" 1. (E.conditional_mutual_information space x z ~given:y);
  checkf "H(Z|X,Y)=0" 0. (E.conditional_entropy space z ~given:(E.pair x y))

let test_kl () =
  let p = S.of_weighted [ (0, 3.); (1, 1.) ] in
  let q = S.uniform [ 0; 1 ] in
  let expected = (0.75 *. (log (1.5) /. log 2.)) +. (0.25 *. (log 0.5 /. log 2.)) in
  checkf "KL value" expected (E.kl_divergence p q);
  checkf "KL self" 0. (E.kl_divergence p p);
  checkb "KL infinite outside support" true
    (E.kl_divergence q (S.uniform [ 0 ]) = infinity)

let test_of_samples () =
  let space = S.of_samples [| 1; 1; 2; 2 |] in
  checkf "empirical H" 1. (E.entropy space (fun x -> x))

let test_facts_bounds () =
  let space = S.of_weighted [ (0, 1.); (1, 2.); (2, 1.) ] in
  let h, cap = F.entropy_bounds space (fun x -> x) in
  checkb "0 <= H <= log support" true (h >= 0. && h <= cap +. 1e-12);
  checkf6 "cap = log2 3" (log 3. /. log 2.) cap

let facts_qcheck =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Fact 2.2-(1): entropy within bounds" ~count:300 random_space_gen
         (fun ((_, xs, _, _) as input) ->
           let space = space_of input in
           let h, cap = F.entropy_bounds space (rv_of xs) in
           h >= -1e-9 && h <= cap +. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Fact 2.2-(2): MI nonnegative" ~count:300 random_space_gen
         (fun ((_, xs, ys, _) as input) ->
           let space = space_of input in
           F.mi_nonneg space (rv_of xs) (rv_of ys) >= -1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Fact 2.2-(3): conditioning reduces entropy" ~count:300
         random_space_gen
         (fun ((_, xs, ys, zs) as input) ->
           let space = space_of input in
           F.conditioning_reduces_entropy space (rv_of xs) ~given:(rv_of ys) ~extra:(rv_of zs)
           >= -1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Fact 2.2-(4): entropy chain rule" ~count:300 random_space_gen
         (fun ((_, xs, ys, zs) as input) ->
           let space = space_of input in
           F.chain_rule_entropy_residual space (rv_of xs) (rv_of ys) ~given:(rv_of zs) < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Fact 2.2-(5): MI chain rule" ~count:300 random_space_gen
         (fun ((_, xs, ys, zs) as input) ->
           let space = space_of input in
           F.chain_rule_mi_residual space (rv_of xs) (rv_of ys) (rv_of zs) ~given:(fun _ -> 0)
           < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Proposition 2.3 when premise holds" ~count:500 random_space_gen
         (fun ((_, xs, ys, zs) as input) ->
           let space = space_of input in
           match
             F.proposition_2_3 space ~a:(rv_of xs) ~b:(rv_of ys) ~c:(fun _ -> 0) ~d:(rv_of zs)
           with
           | None -> true (* premise did not hold; nothing to check *)
           | Some slack -> slack >= -1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Proposition 2.4 when premise holds" ~count:500 random_space_gen
         (fun ((_, xs, ys, zs) as input) ->
           let space = space_of input in
           match
             F.proposition_2_4 space ~a:(rv_of xs) ~b:(rv_of ys) ~c:(fun _ -> 0) ~d:(rv_of zs)
           with
           | None -> true
           | Some slack -> slack >= -1e-9));
  ]

let dpi_qcheck =
  (* Data-processing: post-processing Y cannot raise information about X:
     I(X ; g(Y)) <= I(X ; Y). *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"data-processing inequality" ~count:300 random_space_gen
       (fun ((_, xs, ys, _) as input) ->
         let space = space_of input in
         let x = rv_of xs and y = rv_of ys in
         let g v = v mod 2 in
         E.mutual_information space x (fun o -> g (y o))
         <= E.mutual_information space x y +. 1e-9))

let test_prop_2_3_concrete () =
  (* A = first bit, D = second bit (independent of A), C constant,
     B = xor: conditioning on D raises I(A;B). *)
  let space = S.bits 2 in
  let a b = b.(0) and d b = b.(1) in
  let bvar b = b.(0) <> b.(1) in
  match F.proposition_2_3 space ~a ~b:bvar ~c:(fun _ -> 0) ~d with
  | None -> Alcotest.fail "premise should hold"
  | Some slack -> checkf "xor slack = 1" 1. slack

let () =
  Alcotest.run "infotheory"
    [
      ( "space",
        [
          Alcotest.test_case "uniform entropy" `Quick test_uniform_entropy;
          Alcotest.test_case "weighted" `Quick test_weighted;
          Alcotest.test_case "weighted invalid" `Quick test_weighted_invalid;
          Alcotest.test_case "bits" `Quick test_bits_space;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "condition" `Quick test_condition;
          Alcotest.test_case "of_samples" `Quick test_of_samples;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "MI identical" `Quick test_mi_identical;
          Alcotest.test_case "xor structure" `Quick test_xor_structure;
          Alcotest.test_case "KL" `Quick test_kl;
          Alcotest.test_case "facts bounds" `Quick test_facts_bounds;
          Alcotest.test_case "prop 2.3 concrete" `Quick test_prop_2_3_concrete;
        ] );
      ("facts-properties", dpi_qcheck :: facts_qcheck);
    ]
