(* Tests for Core.Accounting: the exact Lemma 3.3-3.5 chain on enumerable
   micro-instances — the heart of the Theorem 1 reproduction. *)

module A = Core.Accounting

let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-6)) msg

let tiny_spec ?(strategy = A.Truncate) bits =
  { A.rs = A.tiny_rs (); k = 2; bits; strategy; sigma_mode = A.Enumerate_sigma }

let micro_spec ?(strategy = A.Truncate) bits =
  { A.rs = A.micro_rs (); k = 2; bits; strategy; sigma_mode = A.Fix_sigma }

let test_tiny_all_inequalities () =
  List.iter
    (fun b ->
      let r = A.analyze (tiny_spec b) in
      checkb (Printf.sprintf "b=%d" b) true (A.all_inequalities_hold r))
    [ 0; 1; 2; 3; 4; 6 ]

let test_micro_all_inequalities () =
  List.iter
    (fun b ->
      let r = A.analyze (micro_spec b) in
      checkb (Printf.sprintf "b=%d" b) true (A.all_inequalities_hold r))
    [ 0; 2; 6; 10; 14 ]

let test_hash_strategy () =
  List.iter
    (fun b ->
      let r = A.analyze (tiny_spec ~strategy:A.Hash b) in
      checkb (Printf.sprintf "hash b=%d" b) true (A.all_inequalities_hold r))
    [ 0; 1; 3 ]

let test_zero_budget_no_information () =
  let r = A.analyze (tiny_spec 0) in
  checkf "I = 0" 0. r.A.info;
  checkf "H(M|Pi) = kr" r.A.kr r.A.h_m_given_pi;
  checkf "nothing recovered" 0. r.A.expected_recovered;
  checkf "no public entropy" 0. r.A.h_public

let test_saturating_budget_full_information () =
  (* With budget >= n, the Truncate message is the full adjacency bitmap,
     so the transcript determines the graph and I = kr. *)
  let r = A.analyze (tiny_spec 6) in
  checkf "I = kr" r.A.kr r.A.info;
  checkf "H(M|Pi) = 0" 0. r.A.h_m_given_pi;
  checkf "all special edges recovered" (r.A.kr /. 2.) r.A.expected_recovered

let test_info_monotone_in_budget () =
  let infos =
    List.map (fun b -> (A.analyze (tiny_spec b)).A.info) [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | [ _ ] | [] -> true
  in
  checkb "info non-decreasing in b" true (monotone infos)

let test_eq1_exact () =
  List.iter
    (fun b ->
      let r = A.analyze (tiny_spec b) in
      checkb "Eq (1) holds to 1e-9" true (r.A.eq1_residual < 1e-9))
    [ 0; 2; 4 ]

let test_lemma35_needs_sigma () =
  (* The per-copy direct-sum discount (Lemma 3.5) is guaranteed under full
     sigma enumeration; check slacks explicitly. *)
  let r = A.analyze (tiny_spec 3) in
  Array.iter (fun s -> checkb "lemma 3.5 slack >= 0" true (s >= -1e-9)) r.A.lemma35_slacks;
  checkb "sigma was enumerated" true r.A.sigma_enumerated

let test_outcome_count () =
  let r = A.analyze (tiny_spec 2) in
  (* n = 6 -> 720 sigmas; t = 2; 2 copies x 2 edges -> 16 drop patterns. *)
  Alcotest.(check int) "outcomes" (720 * 2 * 16) r.A.outcomes;
  let r2 = A.analyze (micro_spec 2) in
  (* fixed sigma; t = 2; 2 copies x 4 edges -> 256 drop patterns. *)
  Alcotest.(check int) "micro outcomes" (2 * 256) r2.A.outcomes

let test_budget_bound_formula () =
  let r = A.analyze (micro_spec 4) in
  (* micro RS: N = 10, r = 2, t = 2, k = 2: |P| = 6, kN/t = 10 -> 16 b. *)
  checkf "budget bound" 64. r.A.budget_bound

let test_guards () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  checkb "space too large" true
    (raises (fun () ->
         ignore
           (A.analyze
              { A.rs = Rsgraph.Rs_graph.bipartite 3; k = 3; bits = 1; strategy = A.Truncate;
                sigma_mode = A.Fix_sigma })));
  checkb "sigma enumeration too large" true
    (raises (fun () ->
         ignore
           (A.analyze
              { A.rs = A.micro_rs (); k = 2; bits = 1; strategy = A.Truncate;
                sigma_mode = A.Enumerate_sigma })))

let test_other_shapes () =
  (* The chain must hold for other micro shapes too: k=1, k=3 on the tiny
     family, and a derived (r=2, t=2) trivial instance. *)
  let shapes =
    [
      ("k=1 tiny", { A.rs = A.tiny_rs (); k = 1; bits = 3; strategy = A.Truncate;
                     sigma_mode = A.Fix_sigma });
      ("k=3 tiny", { A.rs = A.tiny_rs (); k = 3; bits = 3; strategy = A.Truncate;
                     sigma_mode = A.Fix_sigma });
      ("r=2 t=2 trivial",
       { A.rs = Rsgraph.Rs_graph.trivial ~r:2 ~t:2; k = 2; bits = 4; strategy = A.Truncate;
         sigma_mode = A.Fix_sigma });
      ("derived shrink of bipartite",
       { A.rs = Derived.shrink_matchings (Derived.take_matchings
                   (Rsgraph.Rs_graph.bipartite 3) 2) 1;
         k = 2; bits = 5; strategy = A.Truncate; sigma_mode = A.Fix_sigma });
    ]
  in
  List.iter
    (fun (name, spec) ->
      let r = A.analyze spec in
      checkb name true (A.all_inequalities_hold r))
    shapes

let test_bipartite_m3_subset () =
  (* A genuinely larger micro space: first two matchings of the m=3
     bipartite RS graph, k=2 (2 x 4 edges -> 256 codes x t=2). *)
  let rs = Derived.take_matchings (Rsgraph.Rs_graph.bipartite 3) 2 in
  (* n = 19 with 11 public labels under the identity sigma, so the
     adjacency prefix must reach past label 11 to reveal anything about
     the unique vertices. *)
  let spec = { A.rs; k = 2; bits = 16; strategy = A.Truncate; sigma_mode = A.Fix_sigma } in
  let r = A.analyze spec in
  checkb "inequalities hold" true (A.all_inequalities_hold r);
  checkb "info positive at b=16" true (r.A.info > 0.)

let test_theorem_chain_interpretation () =
  (* The final chain: info <= H(Pi(P)) + sum_i H(Pi(U_i))/t <= budget bound.
     Verify the middle quantity explicitly. *)
  let r = A.analyze (tiny_spec 4) in
  let t = 2. in
  let middle =
    r.A.h_public +. Array.fold_left (fun acc h -> acc +. (h /. t)) 0. r.A.per_copy_h
  in
  checkb "info <= H(P) + sum H(U_i)/t" true (r.A.info <= middle +. 1e-9);
  checkb "middle <= budget bound" true (middle <= r.A.budget_bound +. 1e-9)

(* The graph-free enumeration path vs the reference: for random outcomes
   (σ, j, code), [enumerated_views] must equal
   [Hard_dist.augmented_views (Hard_dist.make ...)] on the materialised
   graph, and [enumerated_messages] (the Truncate bitmap fast path) must
   equal [message] applied to those reference views. This is the
   byte-identity contract that lets [analyze] skip graph freezes
   (PERFORMANCE.md, "Graph-free accounting frames"). *)
let test_graph_free_enumeration_matches_reference () =
  let view_eq (a : Sketchmodel.Model.view) (b : Sketchmodel.Model.view) =
    a.Sketchmodel.Model.n = b.Sketchmodel.Model.n
    && a.Sketchmodel.Model.vertex = b.Sketchmodel.Model.vertex
    && a.Sketchmodel.Model.neighbors = b.Sketchmodel.Model.neighbors
  in
  List.iter
    (fun (name, spec) ->
      let rs = spec.A.rs in
      let edge_count = Dgraph.Graph.m rs.Rsgraph.Rs_graph.graph in
      let k = spec.A.k in
      let nn = Rsgraph.Rs_graph.n rs in
      let rr = rs.Rsgraph.Rs_graph.r in
      let n = nn - (2 * rr) + (2 * rr * k) in
      let rng = Stdx.Prng.create 4242 in
      for trial = 1 to 25 do
        (* Fisher–Yates permutation of the G-labels. *)
        let sigma = Array.init n (fun i -> i) in
        for i = n - 1 downto 1 do
          let j = Stdx.Prng.int rng (i + 1) in
          let tmp = sigma.(i) in
          sigma.(i) <- sigma.(j);
          sigma.(j) <- tmp
        done;
        let j = Stdx.Prng.int rng rs.Rsgraph.Rs_graph.t_count in
        let code = Stdx.Prng.int rng (1 lsl (k * edge_count)) in
        let kept =
          Array.init k (fun i ->
              Array.init edge_count (fun e -> code land (1 lsl ((i * edge_count) + e)) <> 0))
        in
        let dmm = Core.Hard_dist.make rs ~k ~j_star:j ~sigma ~kept in
        let reference = Core.Hard_dist.augmented_views dmm in
        let fast = A.enumerated_views spec ~sigma ~j ~code in
        checkb
          (Printf.sprintf "%s trial %d: views identical" name trial)
          true
          (Array.length fast = Array.length reference
          && Array.for_all2 view_eq fast reference);
        let ref_msgs = Array.map (A.message spec) reference in
        let fast_msgs = A.enumerated_messages spec ~sigma ~j ~code in
        checkb
          (Printf.sprintf "%s trial %d: messages byte-identical" name trial)
          true (fast_msgs = ref_msgs)
      done)
    [
      ("tiny/truncate", tiny_spec 3);
      ("tiny/hash", tiny_spec ~strategy:A.Hash 3);
      ("micro/truncate", micro_spec 4);
      ("micro/truncate b=0", micro_spec 0);
    ]

let () =
  Alcotest.run "accounting"
    [
      ( "accounting",
        [
          Alcotest.test_case "tiny: all inequalities" `Slow test_tiny_all_inequalities;
          Alcotest.test_case "micro: all inequalities" `Quick test_micro_all_inequalities;
          Alcotest.test_case "hash strategy" `Slow test_hash_strategy;
          Alcotest.test_case "zero budget" `Quick test_zero_budget_no_information;
          Alcotest.test_case "saturating budget" `Quick test_saturating_budget_full_information;
          Alcotest.test_case "monotone in budget" `Slow test_info_monotone_in_budget;
          Alcotest.test_case "Eq (1) exact" `Quick test_eq1_exact;
          Alcotest.test_case "lemma 3.5 under sigma enumeration" `Quick test_lemma35_needs_sigma;
          Alcotest.test_case "outcome counts" `Quick test_outcome_count;
          Alcotest.test_case "budget bound formula" `Quick test_budget_bound_formula;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "other shapes" `Quick test_other_shapes;
          Alcotest.test_case "bipartite m=3 subset" `Slow test_bipartite_m3_subset;
          Alcotest.test_case "theorem chain" `Quick test_theorem_chain_interpretation;
          Alcotest.test_case "graph-free path == reference" `Quick
            test_graph_free_enumeration_matches_reference;
        ] );
    ]
