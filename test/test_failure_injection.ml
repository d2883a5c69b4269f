(* Failure injection: corrupt messages, starve budgets, violate promises —
   and verify the system detects or degrades rather than silently lying. *)

module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module PC = Sketchmodel.Public_coins
module G = Dgraph.Graph
module W = Stdx.Bitbuf.Writer
module R = Stdx.Bitbuf.Reader

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Wrap a protocol so that a chosen player's message bits are flipped. *)
let corrupt_player ~victim ~flip_every (p : 'a Model.protocol) =
  {
    p with
    Model.name = p.Model.name ^ "+corruption";
    player =
      (fun view coins ->
        let honest = p.Model.player view coins in
        if view.Model.vertex <> victim then honest
        else begin
          let r = R.of_writer honest in
          let w = W.create () in
          let i = ref 0 in
          while R.remaining_bits r > 0 do
            let b = R.bit r in
            W.bit w (if !i mod flip_every = 0 then not b else b);
            incr i
          done;
          w
        end);
  }

let test_trivial_mm_with_corrupted_player () =
  (* A corrupted full-neighborhood message must fail LOUDLY (the referee
     hits Underflow / rejects out-of-range ids) or produce an output the
     ground-truth verifier can judge — never a silent crash-free lie that
     verification wrongly passes. *)
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 1) 20 0.3 in
  let detections = ref 0 in
  for victim = 0 to 9 do
    let corrupted = corrupt_player ~victim ~flip_every:2 Protocols.Trivial.mm in
    match Rounds.run (Rounds.one_round corrupted) g (PC.create (victim + 2)) with
    | exception R.Underflow -> incr detections
    | exception Invalid_argument _ -> incr detections
    | output, _ ->
        let verdict = Dgraph.Matching.verify g output in
        if not (verdict.Dgraph.Matching.edges_exist && verdict.Dgraph.Matching.maximal) then
          incr detections
  done;
  checkb (Printf.sprintf "corruption visible in %d/10 runs" !detections) true (!detections >= 5)

let test_agm_corruption_detected_by_checker () =
  (* Flip bits in one vertex's AGM sketch: decoding either fails loudly
     (fingerprints reject garbage, readers underflow) or yields a forest;
     wrong forests must be rejected by the ground-truth checker. *)
  let rng = Stdx.Prng.create 3 in
  let wrong = ref 0 and caught = ref 0 in
  for seed = 1 to 8 do
    let g = Dgraph.Gen.gnp rng 24 0.15 in
    let p = Agm.Spanning_forest.protocol ~n:24 () in
    let corrupted = corrupt_player ~victim:(seed mod 24) ~flip_every:7 p in
    match Rounds.run (Rounds.one_round corrupted) g (PC.create (seed * 5)) with
    | exception R.Underflow -> ()
    | exception Invalid_argument _ -> ()
    | forest, _ ->
        let truth = Dgraph.Components.spanning_forest g in
        if
          List.length forest <> List.length truth
          || not (List.for_all (fun (u, v) -> G.mem_edge g u v) forest)
        then begin
          incr wrong;
          if not (Dgraph.Components.is_spanning_forest g forest) then incr caught
        end
  done;
  checki "every wrong forest caught" !wrong !caught

let test_coloring_promise_violation () =
  (* The palette sketch assumes Delta is a promise; give the referee a
     smaller palette than the true degree and the output must either fail
     or still be proper within its (wrong) palette — never a silently
     improper coloring that is_proper passes. *)
  let g = Dgraph.Gen.complete 8 in
  (* list_size 2 over a K8: list coloring can't always succeed. *)
  let outcome, _ = Coloring.Palette.run g ~list_size:2 ~restarts:3 (PC.create 4) in
  (match outcome.Coloring.Palette.coloring with
  | None -> ()
  | Some colors ->
      (* If it claims success, the coloring must genuinely be proper. *)
      checkb "claimed coloring is proper" true (Coloring.Palette.is_proper g colors));
  checkb "ran" true true

let test_two_round_mm_under_adversarial_density () =
  (* Dense graphs stress the filtering claim: correctness must not
     degrade even if round-2 messages blow up. *)
  let g = Dgraph.Gen.complete 40 in
  let mm, stats = Protocols.Two_round_mm.run g (PC.create 5) in
  checkb "still maximal" true (Dgraph.Matching.is_maximal g mm);
  checkb "cost accounted" true (stats.Sketchmodel.Rounds.max_bits > 0)

let test_budget_starvation_graceful () =
  (* One-bit budgets must not crash anything and must produce empty or
     harmless output. *)
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 6) 30 0.3 in
  List.iter
    (fun b ->
      let p = Protocols.Sampled_mm.protocol ~budget_bits:b ~strategy:Protocols.Sampled_mm.Uniform in
      let out, stats = Rounds.run (Rounds.one_round p) g (PC.create 7) in
      checkb "within budget" true (stats.Rounds.max_bits <= b);
      let verdict = Dgraph.Matching.verify g out in
      checkb "never invalid edges" true verdict.Dgraph.Matching.edges_exist)
    [ 1; 2; 3; 7 ]

let test_reader_underflow_is_loud () =
  (* A referee over-reading a truncated message must hit Underflow, not
     read garbage. *)
  let w = W.create () in
  W.uvarint w 5;
  let r = R.of_writer w in
  ignore (R.uvarint r);
  Alcotest.check_raises "underflow raised" R.Underflow (fun () -> ignore (R.uvarint r))

let test_dmm_tamper_detection () =
  (* Mutating the kept matrix after construction must be visible through
     surviving_special (the structures stay consistent because make
     recomputes from inputs). *)
  let rs = Rsgraph.Rs_graph.bipartite 4 in
  let dmm = Core.Hard_dist.sample rs (Stdx.Prng.create 8) in
  let survivors = List.length (Core.Hard_dist.surviving_special dmm) in
  let kept' = Array.map Array.copy dmm.Core.Hard_dist.kept in
  Array.iter (fun row -> Array.fill row 0 (Array.length row) true) kept';
  let dmm' =
    Core.Hard_dist.make rs ~k:dmm.Core.Hard_dist.k ~j_star:dmm.Core.Hard_dist.j_star
      ~sigma:dmm.Core.Hard_dist.sigma ~kept:kept'
  in
  let survivors' = List.length (Core.Hard_dist.surviving_special dmm') in
  checki "all-kept instance has kr survivors" (dmm.Core.Hard_dist.k * Core.Hard_dist.r dmm)
    survivors';
  checkb "original had fewer" true (survivors < survivors')

let () =
  Alcotest.run "failure_injection"
    [
      ( "failure-injection",
        [
          Alcotest.test_case "corrupted trivial player" `Quick
            test_trivial_mm_with_corrupted_player;
          Alcotest.test_case "corrupted AGM caught" `Quick test_agm_corruption_detected_by_checker;
          Alcotest.test_case "coloring promise violation" `Quick test_coloring_promise_violation;
          Alcotest.test_case "two-round under density" `Quick
            test_two_round_mm_under_adversarial_density;
          Alcotest.test_case "budget starvation" `Quick test_budget_starvation_graceful;
          Alcotest.test_case "reader underflow loud" `Quick test_reader_underflow_is_loud;
          Alcotest.test_case "D_MM tamper detection" `Quick test_dmm_tamper_detection;
        ] );
    ]
