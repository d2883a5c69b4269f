(* Tests for Sketchmodel.Bcc: the broadcast-congested-clique model and its
   cost-preserving equivalence with one-round sketching. *)

module Bcc = Sketchmodel.Bcc
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module PC = Sketchmodel.Public_coins
module W = Stdx.Bitbuf.Writer
module R = Stdx.Bitbuf.Reader
module G = Dgraph.Graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_of_sketch_same_output () =
  let rng = Stdx.Prng.create 1 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp rng 30 0.2 in
    let coins = PC.create seed in
    let direct, dstats = Rounds.run (Rounds.one_round Protocols.Trivial.mm) g coins in
    let via_bcc, bstats = Bcc.run (Bcc.of_sketch Protocols.Trivial.mm) g coins in
    checkb "same output" true (direct = via_bcc);
    checki "same per-round cost" dstats.Rounds.max_bits bstats.Bcc.max_bits_per_round;
    checki "one round" 1 bstats.Bcc.rounds_used
  done

let test_roundtrip_to_sketch () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 2) 25 0.3 in
  let coins = PC.create 5 in
  let roundtripped = Bcc.to_sketch (Bcc.of_sketch Protocols.Trivial.mis) in
  let a, sa = Rounds.run (Rounds.one_round Protocols.Trivial.mis) g coins in
  let b, sb = Rounds.run (Rounds.one_round roundtripped) g coins in
  checkb "same output" true (a = b);
  checki "same cost" sa.Rounds.max_bits sb.Rounds.max_bits

let test_to_sketch_rejects_multiround () =
  let two_round =
    {
      Bcc.name = "two";
      rounds = 2;
      broadcast = (fun ~round _ _ _ -> ignore round; W.create ());
      output = (fun ~n _ _ -> n);
    }
  in
  Alcotest.check_raises "multi-round rejected"
    (Invalid_argument "Bcc.to_sketch: protocol uses more than one round") (fun () ->
      ignore (Bcc.to_sketch two_round))

(* A genuinely multi-round protocol: round 1 everyone broadcasts own
   degree; round 2 everyone broadcasts 1 bit "my degree is the maximum";
   output = list of claimed maxima. Exercises history plumbing. *)
let max_degree_protocol =
  {
    Bcc.name = "max-degree";
    rounds = 2;
    broadcast =
      (fun ~round view history _ ->
        let w = W.create () in
        (match (round, Bcc.rounds_so_far history) with
        | 1, _ -> W.uvarint w (Array.length view.Model.neighbors)
        | 2, 1 ->
            let degrees = Array.map R.uvarint (Bcc.round_readers history 1) in
            let maximum = Array.fold_left max 0 degrees in
            W.bit w (Array.length view.Model.neighbors = maximum)
        | _ -> invalid_arg "unexpected round/history");
        w);
    output =
      (fun ~n history _ ->
        if Bcc.rounds_so_far history <> 2 then invalid_arg "bad history";
        let round2 = Bcc.round_readers history 2 in
        List.filter (fun v -> R.bit round2.(v)) (List.init n (fun v -> v)));
  }

let test_two_round_history () =
  let g = Dgraph.Gen.star 8 in
  let claimed, stats = Bcc.run max_degree_protocol g (PC.create 7) in
  Alcotest.(check (list int)) "centre has max degree" [ 0 ] claimed;
  checki "rounds" 2 stats.Bcc.rounds_used;
  checkb "total >= per-round" true (stats.Bcc.max_bits_total >= stats.Bcc.max_bits_per_round)

let test_two_round_history_random () =
  let rng = Stdx.Prng.create 9 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp rng 20 0.3 in
    let claimed, _ = Bcc.run max_degree_protocol g (PC.create seed) in
    let dmax = G.max_degree g in
    checkb "claims are exactly max-degree vertices" true
      (claimed = List.filter (fun v -> G.degree g v = dmax) (List.init 20 (fun v -> v)))
  done

let test_fresh_readers_per_consumer () =
  (* Every consumer must get its own reader: a protocol where all vertices
     read all of round 1 would break with shared readers. *)
  let echo =
    {
      Bcc.name = "echo";
      rounds = 2;
      broadcast =
        (fun ~round view history _ ->
          let w = W.create () in
          (match (round, Bcc.rounds_so_far history) with
          | 1, _ -> W.uvarint w view.Model.vertex
          | 2, 1 ->
              (* Sum everything broadcast in round 1. *)
              let sum =
                Array.fold_left (fun acc r -> acc + R.uvarint r) 0 (Bcc.round_readers history 1)
              in
              W.uvarint w sum
          | _ -> ());
          w);
      output =
        (fun ~n history _ ->
          if Bcc.rounds_so_far history <> 2 then -1
          else
            Array.to_list (Array.map R.uvarint (Bcc.round_readers history 2))
            |> List.fold_left ( + ) 0
            |> fun s -> s / n);
    }
  in
  let n = 6 in
  let g = G.empty n in
  let per_vertex_sum, _ = Bcc.run echo g (PC.create 3) in
  checki "every vertex read the full round-1 history" (n * (n - 1) / 2) per_vertex_sum

let () =
  Alcotest.run "bcc"
    [
      ( "equivalence",
        [
          Alcotest.test_case "of_sketch same output" `Quick test_of_sketch_same_output;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_to_sketch;
          Alcotest.test_case "multi-round rejected" `Quick test_to_sketch_rejects_multiround;
        ] );
      ( "multi-round",
        [
          Alcotest.test_case "history star" `Quick test_two_round_history;
          Alcotest.test_case "history random" `Quick test_two_round_history_random;
          Alcotest.test_case "fresh readers" `Quick test_fresh_readers_per_consumer;
        ] );
    ]
