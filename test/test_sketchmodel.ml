(* Tests for Sketchmodel: public coins, one-round protocols lifted into
   the round engine, and the engine at two and more rounds, with exact
   bit accounting. *)

module PC = Sketchmodel.Public_coins
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module W = Stdx.Bitbuf.Writer
module R = Stdx.Bitbuf.Reader
module G = Dgraph.Graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_coins_deterministic () =
  let a = PC.create 1 and b = PC.create 1 in
  checki "seed stored" 1 (PC.seed a);
  Alcotest.check Alcotest.int64 "global deterministic"
    (Stdx.Prng.bits64 (PC.global a "x"))
    (Stdx.Prng.bits64 (PC.global b "x"));
  Alcotest.check Alcotest.int64 "keyed deterministic"
    (Stdx.Prng.bits64 (PC.keyed a "y" 5))
    (Stdx.Prng.bits64 (PC.keyed b "y" 5))

let test_coins_keys_differ () =
  let c = PC.create 2 in
  checkb "labels differ" true
    (Stdx.Prng.bits64 (PC.global c "a") <> Stdx.Prng.bits64 (PC.global c "b"));
  checkb "indices differ" true
    (Stdx.Prng.bits64 (PC.keyed c "a" 0) <> Stdx.Prng.bits64 (PC.keyed c "a" 1));
  checkb "seeds differ" true
    (Stdx.Prng.bits64 (PC.global (PC.create 3) "a")
    <> Stdx.Prng.bits64 (PC.global (PC.create 4) "a"))

let test_views () =
  let g = G.create 4 [ (0, 1); (0, 2) ] in
  let views = Model.views g in
  checki "one per vertex" 4 (Array.length views);
  checki "n propagated" 4 views.(0).Model.n;
  Alcotest.(check (array int)) "neighbors of 0" [| 1; 2 |] views.(0).Model.neighbors;
  Alcotest.(check (array int)) "neighbors of 3" [||] views.(3).Model.neighbors;
  checki "vertex id" 2 views.(2).Model.vertex

(* A protocol whose message sizes are fully predictable: vertex v sends
   v+1 zero bits; referee returns total bits seen. *)
let counting_protocol =
  {
    Model.name = "counting";
    player =
      (fun view _ ->
        let w = W.create () in
        for _ = 0 to view.Model.vertex do
          W.bit w false
        done;
        w);
    referee =
      (fun ~n ~sketches _ ->
        ignore n;
        Array.fold_left (fun acc r -> acc + R.remaining_bits r) 0 sketches);
  }

let test_run_accounting () =
  let g = G.empty 4 in
  let total, stats = Rounds.run (Rounds.one_round counting_protocol) g (PC.create 0) in
  checki "referee sees all bits" 10 total;
  checki "max = biggest player" 4 stats.Rounds.max_bits;
  checki "total" 10 stats.Rounds.total_bits;
  checki "one round" 1 stats.Rounds.rounds;
  Alcotest.(check (array int)) "round max" [| 4 |] stats.Rounds.round_max;
  checki "nothing broadcast" 0 stats.Rounds.broadcast_bits

let test_run_views_custom () =
  (* The augmented-model entry point: more players than vertices. *)
  let views =
    Array.init 6 (fun i -> { Model.n = 3; vertex = i mod 3; neighbors = [||] })
  in
  let proto =
    {
      Model.name = "six-players";
      player =
        (fun _ _ ->
          let w = W.create () in
          W.bit w true;
          w);
      referee = (fun ~n ~sketches _ -> (n, Array.length sketches));
    }
  in
  let (n, player_count), stats =
    Rounds.run_views (Rounds.one_round proto) ~n:3 views (PC.create 1)
  in
  checki "n" 3 n;
  checki "players" 6 player_count;
  checki "total bits" 6 stats.Rounds.total_bits

let test_success_rate () =
  Alcotest.(check (float 1e-9)) "always true" 1.
    (Model.success_rate ~trials:20 ~seed:5 (fun _ -> true));
  Alcotest.(check (float 1e-9)) "always false" 0.
    (Model.success_rate ~trials:20 ~seed:5 (fun _ -> false));
  let p = Model.success_rate ~trials:400 ~seed:5 (fun coins ->
      Stdx.Prng.bool (PC.global coins "flip")) in
  checkb "fair coin near half" true (abs_float (p -. 0.5) < 0.1)

let test_success_rate_fresh_coins () =
  (* Different trials must see different coins. *)
  let seen = Hashtbl.create 16 in
  ignore
    (Model.success_rate ~trials:10 ~seed:1 (fun coins ->
         Hashtbl.replace seen (PC.seed coins) ();
         true));
  checki "10 distinct seeds" 10 (Hashtbl.length seen)

(* Two-round protocol with predictable sizes: round 1 sends 2 bits,
   broadcast is 5 bits, round 2 sends 3 bits for even vertices. *)
let two_round_fixture =
  {
    Rounds.name = "fixture";
    max_rounds = 2;
    init = (fun ~n:_ _ -> 0);
    player =
      (fun ~round view _ _ ->
        let w = W.create () in
        if round = 1 then W.bits w 3 ~width:2
        else if view.Model.vertex mod 2 = 0 then W.bits w 7 ~width:3;
        w);
    referee =
      (fun ~round ~n ~state ~sketches _ ->
        ignore sketches;
        if round = 1 then Rounds.Continue n else Rounds.Finish (n + state));
    encode_broadcast =
      (fun b ->
        let w = W.create () in
        W.bits w (b land 31) ~width:5;
        w);
  }

let test_two_round_accounting () =
  let g = G.empty 5 in
  let out, stats = Rounds.run two_round_fixture g (PC.create 7) in
  checki "finish ran" 10 out;
  checki "two rounds" 2 stats.Rounds.rounds;
  checki "round1 max" 2 stats.Rounds.round_max.(0);
  checki "round2 max" 3 stats.Rounds.round_max.(1);
  checki "per player max = 5" 5 stats.Rounds.max_bits;
  checki "broadcast" 5 stats.Rounds.broadcast_bits;
  (* totals: 5 players * 2 bits + 3 even vertices * 3 bits *)
  checki "total" (10 + 9) stats.Rounds.total_bits

let test_run_deterministic () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 17) 20 0.3 in
  let proto =
    {
      Model.name = "coin-echo";
      player =
        (fun view coins ->
          let w = W.create () in
          W.uvarint w (Stdx.Prng.int (PC.keyed coins "x" view.Model.vertex) 1000);
          w);
      referee =
        (fun ~n ~sketches _ ->
          ignore n;
          Array.to_list sketches |> List.map R.uvarint);
    }
  in
  let a, _ = Rounds.run (Rounds.one_round proto) g (PC.create 9) in
  let b, _ = Rounds.run (Rounds.one_round proto) g (PC.create 9) in
  checkb "identical runs under identical coins" true (a = b);
  let c, _ = Rounds.run (Rounds.one_round proto) g (PC.create 10) in
  checkb "different coins differ" true (a <> c)

let test_zero_players () =
  let proto =
    {
      Model.name = "nobody";
      player = (fun _ _ -> W.create ());
      referee = (fun ~n ~sketches _ -> (n, Array.length sketches));
    }
  in
  let (n, players), stats = Rounds.run_views (Rounds.one_round proto) ~n:5 [||] (PC.create 1) in
  checki "n still passed" 5 n;
  checki "no players" 0 players;
  checki "no bits" 0 stats.Rounds.total_bits;
  checki "one round still runs" 1 stats.Rounds.rounds

let test_player_isolation () =
  (* A player only gets its own view: check the runner passes the right
     view to the right player by echoing ids. *)
  let g = G.create 3 [ (0, 1) ] in
  let proto =
    {
      Model.name = "echo";
      player =
        (fun view _ ->
          let w = W.create () in
          W.uvarint w view.Model.vertex;
          W.uvarint w (Array.length view.Model.neighbors);
          w);
      referee =
        (fun ~n ~sketches _ ->
          ignore n;
          Array.to_list sketches
          |> List.map (fun r ->
                 let vertex = R.uvarint r in
                 let deg = R.uvarint r in
                 (vertex, deg)));
    }
  in
  let echoed, _ = Rounds.run (Rounds.one_round proto) g (PC.create 3) in
  Alcotest.(check (list (pair int int))) "views routed correctly"
    [ (0, 1); (1, 1); (2, 0) ] echoed

(* Regression for the parallel trial engine's core assumption: the order in
   which player sketches are computed must not change the referee's output
   or the bit accounting, in any round. Runs real protocols (one-round
   sampled MM, three-round prefix MIS, Luby MIS) on a D_MM-sized random
   graph under shuffled schedules and demands bit-equality. *)
let test_schedule_independence () =
  let rng = Stdx.Prng.create 2024 in
  let g = Dgraph.Gen.gnp rng 48 0.2 in
  let coins = PC.create 77 in
  let protocol =
    Rounds.one_round
      (Protocols.Sampled_mm.protocol ~budget_bits:32 ~strategy:Protocols.Sampled_mm.Uniform)
  in
  let views = Model.views g in
  let schedules =
    List.map
      (fun shuffle_seed -> Stdx.Prng.permutation (Stdx.Prng.create shuffle_seed) (G.n g))
      [ 1; 2; 3; 4 ]
  in
  let reference_out, reference_stats = Rounds.run_views protocol ~n:(G.n g) views coins in
  List.iter
    (fun schedule ->
      let out, stats = Rounds.run_views ~schedule protocol ~n:(G.n g) views coins in
      Alcotest.(check (list (pair int int)))
        "output independent of sketch order" reference_out out;
      checki "max_bits independent of sketch order" reference_stats.Rounds.max_bits
        stats.Rounds.max_bits;
      checki "total_bits independent of sketch order" reference_stats.Rounds.total_bits
        stats.Rounds.total_bits)
    schedules;
  Alcotest.check_raises "non-permutation schedule rejected"
    (Invalid_argument "Rounds.run_views: schedule is not a permutation of the players")
    (fun () ->
      ignore (Rounds.run_views ~schedule:(Array.make (G.n g) 0) protocol ~n:(G.n g) views coins));
  let multi_round name protocol =
    let reference = Rounds.run_views protocol ~n:(G.n g) views coins in
    checkb (name ^ ": more than one round") true ((snd reference).Rounds.rounds > 1);
    List.iter
      (fun schedule ->
        let out, stats = Rounds.run_views ~schedule protocol ~n:(G.n g) views coins in
        Alcotest.(check (list int)) (name ^ ": output independent of sketch order")
          (fst reference) out;
        checkb (name ^ ": whole stats independent of sketch order") true
          (snd reference = stats))
      schedules
  in
  multi_round "frontier r=3" (Protocols.Frontier.protocol ~rounds:3 ~n:(G.n g));
  multi_round "luby random" (Protocols.Luby.protocol Protocols.Luby.Random ~n:(G.n g))

(* [Rounds.run] builds each view when its player runs; it must agree
   with running the materialised [Model.views] array, output and whole
   stats, for every graph protocol the daemon serves on the round
   engine. *)
let same_as_views g p =
  List.for_all
    (fun seed ->
      let coins = PC.create seed in
      Rounds.run p g coins = Rounds.run_views p ~n:(G.n g) (Model.views g) coins)
    [ 1; 2; 3 ]

let test_run_matches_run_views () =
  let engines =
    [
      ("trivial-mm", fun g -> Rounds.one_round Protocols.Trivial.mm |> same_as_views g);
      ("trivial-mis", fun g -> Rounds.one_round Protocols.Trivial.mis |> same_as_views g);
      ("local-minima", fun g -> Rounds.one_round Protocols.One_round_mis.local_minima |> same_as_views g);
      ("two-round-mm", fun g -> Protocols.Two_round_mm.protocol ~n:(G.n g) () |> same_as_views g);
      ("two-round-mis", fun g -> Protocols.Two_round_mis.protocol ~n:(G.n g) () |> same_as_views g);
      ("prefix-mis-r4", fun g -> Protocols.Frontier.protocol ~rounds:4 ~n:(G.n g) |> same_as_views g);
      ( "luby-mis-random",
        fun g -> Protocols.Luby.protocol Protocols.Luby.Random ~n:(G.n g) |> same_as_views g );
      ( "luby-mis-degree",
        fun g -> Protocols.Luby.protocol Protocols.Luby.Degree ~n:(G.n g) |> same_as_views g );
      ( "luby-mis-index",
        fun g -> Protocols.Luby.protocol Protocols.Luby.Index ~n:(G.n g) |> same_as_views g );
    ]
  in
  (* Every served graph protocol that runs on the round engine is here;
     stream-matching runs on a stream, not on player views. *)
  List.iter
    (fun (id, (p : Server.Simulate.protocol)) ->
      match p.Server.Simulate.input with
      | Server.Simulate.Graph _ when id <> "stream-matching" ->
          checkb (id ^ " is covered") true (List.mem_assoc id engines)
      | _ -> ())
    Server.Simulate.protocols;
  let graphs =
    [
      G.empty 0;
      Dgraph.Gen.path 7;
      Dgraph.Gen.complete 9;
      Dgraph.Gen.gnp (Stdx.Prng.create 3) 40 0.15;
      Dgraph.Gen.gnp (Stdx.Prng.create 4) 64 0.5;
    ]
  in
  List.iter
    (fun (id, same) ->
      List.iteri
        (fun i g -> checkb (Printf.sprintf "%s on graph %d" id i) true (same g))
        graphs)
    engines

let () =
  Alcotest.run "sketchmodel"
    [
      ( "public-coins",
        [
          Alcotest.test_case "deterministic" `Quick test_coins_deterministic;
          Alcotest.test_case "keys differ" `Quick test_coins_keys_differ;
        ] );
      ( "model",
        [
          Alcotest.test_case "views" `Quick test_views;
          Alcotest.test_case "run accounting" `Quick test_run_accounting;
          Alcotest.test_case "run_views custom players" `Quick test_run_views_custom;
          Alcotest.test_case "success rate" `Quick test_success_rate;
          Alcotest.test_case "success rate fresh coins" `Quick test_success_rate_fresh_coins;
          Alcotest.test_case "player isolation" `Quick test_player_isolation;
          Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "zero players" `Quick test_zero_players;
          Alcotest.test_case "schedule independence" `Quick test_schedule_independence;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "two-round accounting" `Quick test_two_round_accounting;
          Alcotest.test_case "run equals run_views on served protocols" `Quick
            test_run_matches_run_views;
        ] );
    ]
