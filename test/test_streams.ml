(* Tests for Streams: dynamic streams, the linear-sketch stream processor,
   and the insertion-only greedy baselines. *)

module S = Streams.Stream
module SS = Streams.Sketch_stream
module IG = Streams.Insertion_greedy
module G = Dgraph.Graph
module PC = Sketchmodel.Public_coins

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_of_graph () =
  let g = Dgraph.Gen.cycle 5 in
  let s = S.of_graph g in
  checki "one event per edge" (G.m g) (S.length s);
  checkb "insertion only" true (S.is_insertion_only s);
  checkb "replay" true (G.equal g (S.final_graph s))

let test_shuffled_same_final () =
  let rng = Stdx.Prng.create 1 in
  let g = Dgraph.Gen.gnp rng 20 0.3 in
  let s = S.shuffled rng g in
  checkb "same final graph" true (G.equal g (S.final_graph s))

let test_with_decoys () =
  let rng = Stdx.Prng.create 2 in
  let g = Dgraph.Gen.gnp rng 20 0.2 in
  let s = S.with_decoys rng g ~decoys:15 in
  checkb "has deletions" false (S.is_insertion_only s);
  checki "events = edges + 2 decoys" (G.m g + 30) (S.length s);
  checkb "decoys cancel" true (G.equal g (S.final_graph s))

let test_final_graph_guards () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "double insert" true
    (raises (fun () -> S.final_graph { S.n = 3; events = [ S.Insert (0, 1); S.Insert (1, 0) ] }));
  checkb "delete absent" true
    (raises (fun () -> S.final_graph { S.n = 3; events = [ S.Delete (0, 1) ] }))

let test_sketch_stream_forest () =
  let rng = Stdx.Prng.create 3 in
  for seed = 1 to 5 do
    let g = Dgraph.Gen.gnp rng 24 0.15 in
    let stream = S.with_decoys rng g ~decoys:(G.m g) in
    let proc = SS.create ~n:24 (PC.create (seed * 7)) in
    SS.feed_all proc stream;
    checkb "forest of final graph" true
      (Dgraph.Components.is_spanning_forest g (SS.spanning_forest proc))
  done

let test_sketch_stream_bitwise_equality () =
  let rng = Stdx.Prng.create 4 in
  let g = Dgraph.Gen.gnp rng 16 0.3 in
  let coins = PC.create 9 in
  (* Random interleaving with decoys must leave exactly the same sketch
     state as a clean insertion pass — linearity, bit for bit. *)
  let proc = SS.create ~n:16 coins in
  SS.feed_all proc (S.with_decoys rng g ~decoys:20);
  checkb "bitwise equal to one-round messages" true (SS.messages_equal_distributed proc g);
  (* And NOT equal to a different graph's messages. *)
  let other = Dgraph.Gen.gnp rng 16 0.3 in
  if not (G.equal g other) then
    checkb "differs for a different graph" false (SS.messages_equal_distributed proc other)

let test_sketch_stream_space_constant () =
  (* Space is independent of the stream length (that is the point of
     linear sketching). *)
  let rng = Stdx.Prng.create 5 in
  let g = Dgraph.Gen.gnp rng 20 0.2 in
  let coins = PC.create 11 in
  let short = SS.create ~n:20 coins in
  SS.feed_all short (S.of_graph g);
  let long = SS.create ~n:20 coins in
  SS.feed_all long (S.with_decoys rng g ~decoys:60);
  checki "identical space" (SS.space_bits short) (SS.space_bits long)

let test_sketch_stream_guards () =
  let proc = SS.create ~n:10 (PC.create 1) in
  Alcotest.check_raises "size mismatch" (Invalid_argument "Sketch_stream.feed_all: size mismatch")
    (fun () -> SS.feed_all proc { S.n = 5; events = [] });
  Alcotest.check_raises "vertex range" (Invalid_argument "Sketch_stream: vertex out of range")
    (fun () -> SS.feed proc (S.Insert (0, 99)))

let test_insertion_mm () =
  let rng = Stdx.Prng.create 6 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) 30 0.2 in
    let m = IG.mm_of_stream (S.shuffled rng g) in
    checkb "maximal matching" true (Dgraph.Matching.is_maximal g m)
  done

let test_insertion_mm_rejects_deletions () =
  Alcotest.check_raises "deletions unsupported"
    (Invalid_argument "Insertion_greedy.mm_of_stream: deletions are not supported") (fun () ->
      ignore
        (IG.mm_of_stream { S.n = 3; events = [ S.Insert (0, 1); S.Delete (0, 1) ] }))

let test_insertion_mm_state_bits () =
  let st = IG.mm_create 100 in
  let empty_bits = IG.mm_state_bits st in
  IG.mm_feed st (0, 1);
  checkb "state grows with matches" true (IG.mm_state_bits st > empty_bits);
  IG.mm_feed st (0, 2);
  checki "blocked edge adds nothing" 1 (List.length (IG.mm_result st))

let test_insertion_mis () =
  let rng = Stdx.Prng.create 7 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp (Stdx.Prng.create (seed * 3)) 30 0.25 in
    let order = Stdx.Prng.permutation rng 30 in
    let s = IG.mis_of_graph g ~order in
    checkb "maximal IS" true (Dgraph.Mis.is_maximal g s)
  done

let test_insertion_mis_guards () =
  let st = IG.mis_create 4 in
  IG.mis_feed st ~vertex:0 ~earlier_neighbors:[];
  Alcotest.check_raises "double arrival"
    (Invalid_argument "Insertion_greedy.mis_feed: vertex arrived twice") (fun () ->
      IG.mis_feed st ~vertex:0 ~earlier_neighbors:[]);
  Alcotest.check_raises "phantom neighbor"
    (Invalid_argument "Insertion_greedy.mis_feed: neighbor has not arrived") (fun () ->
      IG.mis_feed st ~vertex:1 ~earlier_neighbors:[ 3 ])

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"decoy streams replay to the original graph" ~count:60
         QCheck.(triple (int_range 2 25) (int_range 0 10000) (int_range 0 30))
         (fun (n, seed, decoys) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           G.equal g (S.final_graph (S.with_decoys rng g ~decoys))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"insertion-greedy MM maximal for any order" ~count:60
         QCheck.(pair (int_range 1 25) (int_range 0 10000))
         (fun (n, seed) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           Dgraph.Matching.is_maximal g (IG.mm_of_stream (S.shuffled rng g))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"vertex-arrival MIS maximal for any order" ~count:60
         QCheck.(pair (int_range 1 25) (int_range 0 10000))
         (fun (n, seed) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           Dgraph.Mis.is_maximal g (IG.mis_of_graph g ~order:(Stdx.Prng.permutation rng n))));
    (* The multi-pass contract: however a stream is cut into arrival
       batches, and (for insertion-only streams) in whatever order those
       batches are replayed, the frozen graph is the same one. This is
       what lets [Streams.Stream_matching] treat "a pass" as any
       chunking of the event sequence. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any chunking reassembles to the same frozen graph" ~count:60
         QCheck.(triple (int_range 2 25) (int_range 0 10000) (int_range 1 12))
         (fun (n, seed, k) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           let s = S.shuffled rng g in
           let pieces = S.chunks s k in
           List.length pieces = k
           && S.length (S.concat pieces) = S.length s
           && G.equal g (S.final_graph (S.concat pieces))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any pass order of insertion-only chunks freezes identically"
         ~count:60
         QCheck.(triple (int_range 2 25) (int_range 0 10000) (int_range 1 12))
         (fun (n, seed, k) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           let pieces = Array.of_list (S.chunks (S.shuffled rng g) k) in
           Stdx.Prng.shuffle rng pieces;
           G.equal g (S.final_graph (S.concat (Array.to_list pieces)))));
  ]

let () =
  Alcotest.run "streams"
    [
      ( "stream",
        [
          Alcotest.test_case "of_graph" `Quick test_of_graph;
          Alcotest.test_case "shuffled" `Quick test_shuffled_same_final;
          Alcotest.test_case "with decoys" `Quick test_with_decoys;
          Alcotest.test_case "final graph guards" `Quick test_final_graph_guards;
        ] );
      ( "sketch-stream",
        [
          Alcotest.test_case "forest under deletions" `Quick test_sketch_stream_forest;
          Alcotest.test_case "bitwise equality" `Quick test_sketch_stream_bitwise_equality;
          Alcotest.test_case "space independent of length" `Quick
            test_sketch_stream_space_constant;
          Alcotest.test_case "guards" `Quick test_sketch_stream_guards;
        ] );
      ( "insertion-greedy",
        [
          Alcotest.test_case "mm" `Quick test_insertion_mm;
          Alcotest.test_case "mm rejects deletions" `Quick test_insertion_mm_rejects_deletions;
          Alcotest.test_case "mm state bits" `Quick test_insertion_mm_state_bits;
          Alcotest.test_case "mis" `Quick test_insertion_mis;
          Alcotest.test_case "mis guards" `Quick test_insertion_mis_guards;
        ] );
      ("streams-properties", qcheck_tests);
    ]
