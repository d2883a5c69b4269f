(* Tests for Multipass: the r-round referee engine's accounting, the
   frontier prefix MIS family, the Luby priority variants, and multi-pass
   streaming matching. *)

module MP = Sketchmodel.Rounds
module PC = Sketchmodel.Public_coins
module G = Dgraph.Graph
module S = Streams.Stream

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkis = Alcotest.(check (list int))

let graphs seed =
  let rng = Stdx.Prng.create seed in
  [
    Dgraph.Gen.gnp rng 20 0.2;
    Dgraph.Gen.gnp rng 32 0.1;
    Dgraph.Gen.cycle 15;
    Dgraph.Gen.complete 8;
    Dgraph.Gen.star 6;
  ]

(* ---- Engine accounting invariants ---- *)

let test_stats_consistency () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 21) 30 0.2 in
  let coins = PC.create 22 in
  let _, s = Multipass.Frontier.run ~rounds:3 g coins in
  checki "rounds matches arrays" s.MP.rounds (Array.length s.MP.round_max);
  checki "rounds matches totals" s.MP.rounds (Array.length s.MP.round_total);
  checki "rounds matches broadcasts" s.MP.rounds (Array.length s.MP.round_broadcast);
  checki "total is the sum of rounds" s.MP.total_bits
    (Array.fold_left ( + ) 0 s.MP.round_total);
  checki "broadcast is the sum of rounds" s.MP.broadcast_bits
    (Array.fold_left ( + ) 0 s.MP.round_broadcast);
  checkb "max_bits >= each round max" true
    (Array.for_all (fun m -> s.MP.max_bits >= m) s.MP.round_max);
  checki "final round broadcasts nothing" 0 s.MP.round_broadcast.(s.MP.rounds - 1)

let test_max_rounds_guard () =
  let never =
    {
      MP.name = "never-finishes";
      max_rounds = 3;
      init = (fun ~n:_ _ -> ());
      player = (fun ~round:_ _ () _ -> Stdx.Bitbuf.Writer.create ());
      referee = (fun ~round:_ ~n:_ ~state:() ~sketches:_ _ -> MP.Continue ());
      encode_broadcast = (fun () -> Stdx.Bitbuf.Writer.create ());
    }
  in
  checkb "exceeding max_rounds raises" true
    (try
       ignore (MP.run never (Dgraph.Gen.cycle 4) (PC.create 1));
       false
     with Failure _ -> true)

(* ---- Frontier prefix MIS ---- *)

let test_frontier_blocks () =
  let b = Multipass.Frontier.blocks ~n:100 ~rounds:3 in
  checki "three cutoffs" 3 (Array.length b);
  checki "last cutoff is n" 100 b.(2);
  checkb "monotone" true (b.(0) <= b.(1) && b.(1) <= b.(2));
  let b1 = Multipass.Frontier.blocks ~n:50 ~rounds:1 in
  checkb "r=1 is the whole graph" true (b1 = [| 50 |])

let test_frontier_maximal_all_rounds () =
  List.iteri
    (fun i g ->
      List.iter
        (fun r ->
          let coins = PC.create ((i * 10) + r) in
          let mis, stats = Multipass.Frontier.run ~rounds:r g coins in
          checkb
            (Printf.sprintf "maximal IS (graph %d, r=%d)" i r)
            true
            (Dgraph.Mis.is_maximal g mis);
          checki "uses exactly r rounds" r stats.MP.rounds)
        [ 1; 2; 3; 4 ])
    (graphs 15)

let test_frontier_r1_ships_adjacency () =
  (* r = 1 is the full-information regime: every player reports all its
     neighbours, so the referee could not be cheaper — and more rounds
     shrink the worst single message on a dense graph. *)
  let g = Dgraph.Gen.complete 16 in
  let coins = PC.create 31 in
  let _, s1 = Multipass.Frontier.run ~rounds:1 g coins in
  let _, s4 = Multipass.Frontier.run ~rounds:4 g coins in
  checkb "r=4 max message below r=1" true (s4.MP.max_bits < s1.MP.max_bits)

let test_frontier_init_derives_order () =
  (* The permutation is public randomness: [init] derives it once from the
     same coin stream the protocol has always used, and [pos] inverts it. *)
  List.iter
    (fun (n, seed) ->
      let coins = PC.create seed in
      let p = Multipass.Frontier.protocol ~rounds:3 ~n in
      let st = p.MP.init ~n coins in
      let expect =
        Stdx.Prng.permutation (PC.global coins "frontier-prefix-permutation") n
      in
      checkb (Printf.sprintf "pi is the coin permutation (n=%d)" n) true
        (st.Multipass.Frontier.pi = expect);
      checkb "pos inverts pi" true
        (Array.length st.Multipass.Frontier.pos = n
        && Array.for_all Fun.id
             (Array.mapi (fun i v -> st.Multipass.Frontier.pos.(v) = i) expect)))
    [ (0, 1); (1, 2); (17, 3); (100, 4) ]

(* Bytes allocated by one [f ()] on this domain: the least of three calls
   after a warm-up. The first call pays one-time costs unrelated to the
   rounds, and a window that spans an early minor collection over-counts
   by up to the minor heap's size (~2 MB), so one sample is not enough. *)
let allocated f =
  ignore (f ());
  List.fold_left min infinity
    (List.init 3 (fun _ ->
         let a0 = Gc.allocated_bytes () in
         ignore (Sys.opaque_identity (f ()));
         Gc.allocated_bytes () -. a0))

let test_frontier_alloc_ceiling () =
  (* One derivation per run: ~1.3 MB at n = 512. Re-deriving the
     permutation per undecided player per round allocates ~170 MB. *)
  let n = 512 in
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 5) n (8.0 /. float_of_int n) in
  let coins = PC.create 9 in
  let bytes = allocated (fun () -> Multipass.Frontier.run ~rounds:4 g coins) in
  checkb (Printf.sprintf "r=4 run allocates %.0f B < 16 MB" bytes) true (bytes < 16e6)

(* ---- Luby priority variants ---- *)

let test_luby_draws_match_keyed_coins () =
  (* Round 1's lazily filled priorities are exactly the keyed coin draws
     the players would derive themselves; untouched entries stay -1. *)
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 43) 30 0.2 in
  let n = G.n g in
  let coins = PC.create 44 in
  let p = Multipass.Luby.protocol Multipass.Luby.Random ~n in
  let st = p.MP.init ~n coins in
  Array.iter (fun view -> ignore (p.MP.player ~round:1 view st coins)) (Sketchmodel.Model.views g);
  let label = "mp-luby-random-r1" in
  checkb "label is round 1's" true (st.Multipass.Luby.label = label);
  checkb "some draws filled" true (Array.exists (fun d -> d >= 0) st.Multipass.Luby.draws);
  Array.iteri
    (fun v d ->
      if d >= 0 then
        checki (Printf.sprintf "draw of %d" v)
          (Stdx.Prng.int (PC.keyed coins label v) (1 lsl 40))
          d)
    st.Multipass.Luby.draws;
  let index = Multipass.Luby.protocol Multipass.Luby.Index ~n in
  checki "index never draws" 0 (Array.length (index.MP.init ~n coins).Multipass.Luby.draws)

let test_luby_alloc_ceiling () =
  (* Each (round, vertex) priority is derived at most once: ~1.6 MB at
     n = 512. Deriving it per comparison (twice per active neighbour per
     round) allocates ~3.9 MB. *)
  let n = 512 in
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 5) n (8.0 /. float_of_int n) in
  let coins = PC.create 9 in
  let bytes = allocated (fun () -> Multipass.Luby.run Multipass.Luby.Random g coins) in
  checkb (Printf.sprintf "random run allocates %.0f B < 3 MB" bytes) true (bytes < 3e6)

let test_luby_maximal_all_priorities () =
  List.iteri
    (fun i g ->
      List.iter
        (fun prio ->
          let coins = PC.create ((500 + i) * 3) in
          let mis, stats = Multipass.Luby.run prio g coins in
          checkb
            (Printf.sprintf "maximal IS (%s, graph %d)" (Multipass.Luby.priority_name prio) i)
            true
            (Dgraph.Mis.is_maximal g mis);
          checkb "terminates within the cap" true (stats.MP.rounds <= G.n g + 3))
        [ Multipass.Luby.Random; Multipass.Luby.Degree; Multipass.Luby.Index ])
    (graphs 16)

let test_luby_deterministic () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 41) 24 0.2 in
  let a, sa = Multipass.Luby.run Multipass.Luby.Random g (PC.create 7) in
  let b, sb = Multipass.Luby.run Multipass.Luby.Random g (PC.create 7) in
  checkis "same output" a b;
  checki "same rounds" sa.MP.rounds sb.MP.rounds;
  checki "same bits" sa.MP.total_bits sb.MP.total_bits

let test_luby_index_path_is_slow () =
  (* Under Index priority a path 0-1-...-(n-1) admits one join per round
     from the high end: the deterministic worst case of the family. *)
  let n = 12 in
  let g = Dgraph.Gen.path n in
  let mis, stats = Multipass.Luby.run Multipass.Luby.Index g (PC.create 1) in
  checkb "maximal" true (Dgraph.Mis.is_maximal g mis);
  checkb "needs many rounds" true (stats.MP.rounds >= n / 2)

let test_luby_degree_prep_round () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 51) 20 0.25 in
  let coins = PC.create 52 in
  let _, sd = Multipass.Luby.run Multipass.Luby.Degree g coins in
  (* The prep round charges one uvarint per player and a broadcast. *)
  checkb "prep round broadcast charged" true (sd.MP.round_broadcast.(0) > 0);
  checkb "prep round player bits charged" true (sd.MP.round_max.(0) > 0)

(* ---- Multi-pass streaming matching ---- *)

let test_stream_matching_valid_and_monotone () =
  let rng = Stdx.Prng.create 61 in
  for seed = 1 to 8 do
    let g = Dgraph.Gen.gnp (Stdx.Prng.create (seed * 13)) 40 0.12 in
    let stream = S.shuffled rng g in
    let r = Multipass.Stream_matching.run ~eps:0.34 stream in
    checkb "valid matching" true (Dgraph.Matching.is_matching g r.Multipass.Stream_matching.matching);
    checkb "maximal (pass 1 guarantees it)" true
      (Dgraph.Matching.is_maximal g r.Multipass.Stream_matching.matching);
    let sizes =
      List.map
        (fun p -> p.Multipass.Stream_matching.matching_size)
        r.Multipass.Stream_matching.passes
    in
    checkb "matching never shrinks" true
      (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length sizes - 1) sizes)
         (List.tl sizes));
    checkb "within the optimum" true
      (List.length r.Multipass.Stream_matching.matching
      <= Dgraph.Blossom.maximum_matching_size g)
  done

let test_stream_matching_reaches_near_optimum () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 71) 48 0.15 in
  let stream = S.shuffled (Stdx.Prng.create 72) g in
  let r = Multipass.Stream_matching.run ~eps:0.10 stream in
  let opt = Dgraph.Blossom.maximum_matching_size g in
  let got = List.length r.Multipass.Stream_matching.matching in
  checkb "within (1+eps) of optimum" true (float_of_int opt <= 1.10 *. float_of_int got)

let test_stream_matching_peak_memory () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 81) 36 0.2 in
  let r = Multipass.Stream_matching.run ~eps:0.5 (S.of_graph g) in
  let max_pass =
    List.fold_left
      (fun acc p -> max acc p.Multipass.Stream_matching.memory_bits)
      0 r.Multipass.Stream_matching.passes
  in
  checki "peak is the max over passes" max_pass r.Multipass.Stream_matching.peak_memory_bits;
  checkb "at least one pass" true (List.length r.Multipass.Stream_matching.passes >= 1)

let test_stream_matching_guards () =
  let deletions = { S.n = 3; events = [ S.Insert (0, 1); S.Delete (0, 1) ] } in
  checkb "rejects deletions" true
    (try
       ignore (Multipass.Stream_matching.run deletions);
       false
     with Invalid_argument _ -> true);
  checkb "rejects eps <= 0" true
    (try
       ignore (Multipass.Stream_matching.run ~eps:0.0 { S.n = 2; events = [] });
       false
     with Invalid_argument _ -> true)

let test_stream_matching_pass_budget () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 91) 30 0.3 in
  let r = Multipass.Stream_matching.run ~eps:0.05 ~max_passes:2 (S.of_graph g) in
  checkb "respects the budget" true (List.length r.Multipass.Stream_matching.passes <= 2)

(* ---- Properties ---- *)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier MIS maximal for any (n, seed, r)" ~count:60
         QCheck.(triple (int_range 1 30) (int_range 0 10000) (int_range 1 5))
         (fun (n, seed, r) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.25 in
           let mis, _ = Multipass.Frontier.run ~rounds:r g (PC.create (seed + r)) in
           Dgraph.Mis.is_maximal g mis));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"luby MIS maximal for any priority" ~count:60
         QCheck.(triple (int_range 1 25) (int_range 0 10000) (int_range 0 2))
         (fun (n, seed, p) ->
           let prio =
             match p with 0 -> Multipass.Luby.Random | 1 -> Multipass.Luby.Degree | _ -> Multipass.Luby.Index
           in
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.3 in
           let mis, _ = Multipass.Luby.run prio g (PC.create (seed * 2 + 1)) in
           Dgraph.Mis.is_maximal g mis));
    (* Exact oracle: rounds change only the bits, never the MIS. Every r
       gives greedy over the shared "frontier-prefix-permutation" order. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier MIS = greedy in pi order for r = 1..6" ~count:60
         QCheck.(
           triple (int_range 1 84) (oneofl [ 0.05; 0.1; 0.25; 0.5 ]) (int_range 0 10000))
         (fun (n, p, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n p in
           let coins = PC.create (seed + 3) in
           let pi =
             Stdx.Prng.permutation (PC.global coins "frontier-prefix-permutation") n
           in
           let expected = List.sort compare (Dgraph.Mis.greedy g ~order:pi ()) in
           List.for_all
             (fun r ->
               let mis, _ = Multipass.Frontier.run ~rounds:r g coins in
               List.sort compare mis = expected)
             [ 1; 2; 3; 4; 5; 6 ]));
    (* Exact oracle: under Index, [beats] is [u > v], so the higher id
       always wins and Luby is greedy in descending-id order. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"luby Index MIS = greedy in descending-id order" ~count:60
         QCheck.(
           triple (int_range 1 84) (oneofl [ 0.05; 0.1; 0.25; 0.5 ]) (int_range 0 10000))
         (fun (n, p, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n p in
           let order = Array.init n (fun i -> n - 1 - i) in
           let mis, _ = Multipass.Luby.run Multipass.Luby.Index g (PC.create seed) in
           List.sort compare mis = List.sort compare (Dgraph.Mis.greedy g ~order ())));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"stream matching maximal for any chunked replay" ~count:40
         QCheck.(triple (int_range 2 25) (int_range 0 10000) (int_range 1 6))
         (fun (n, seed, k) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           let s = S.concat (S.chunks (S.shuffled rng g) k) in
           let r = Multipass.Stream_matching.run ~eps:0.5 s in
           Dgraph.Matching.is_maximal g r.Multipass.Stream_matching.matching));
  ]

let () =
  Alcotest.run "multipass"
    [
      ( "engine",
        [
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "max_rounds guard" `Quick test_max_rounds_guard;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "block cutoffs" `Quick test_frontier_blocks;
          Alcotest.test_case "maximal for all r" `Quick test_frontier_maximal_all_rounds;
          Alcotest.test_case "r=1 ships adjacency" `Quick test_frontier_r1_ships_adjacency;
          Alcotest.test_case "init derives the shared order" `Quick
            test_frontier_init_derives_order;
          Alcotest.test_case "allocation ceiling" `Quick test_frontier_alloc_ceiling;
        ] );
      ( "luby",
        [
          Alcotest.test_case "maximal for all priorities" `Quick test_luby_maximal_all_priorities;
          Alcotest.test_case "deterministic" `Quick test_luby_deterministic;
          Alcotest.test_case "index priority path worst case" `Quick test_luby_index_path_is_slow;
          Alcotest.test_case "degree prep round" `Quick test_luby_degree_prep_round;
          Alcotest.test_case "draws match keyed coins" `Quick test_luby_draws_match_keyed_coins;
          Alcotest.test_case "allocation ceiling" `Quick test_luby_alloc_ceiling;
        ] );
      ( "stream-matching",
        [
          Alcotest.test_case "valid and monotone" `Quick test_stream_matching_valid_and_monotone;
          Alcotest.test_case "near optimum at small eps" `Quick
            test_stream_matching_reaches_near_optimum;
          Alcotest.test_case "peak memory" `Quick test_stream_matching_peak_memory;
          Alcotest.test_case "guards" `Quick test_stream_matching_guards;
          Alcotest.test_case "pass budget" `Quick test_stream_matching_pass_budget;
        ] );
      ("multipass-properties", qcheck_tests);
    ]
