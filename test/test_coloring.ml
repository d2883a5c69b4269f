(* Tests for Coloring.Palette: the (Delta+1)-coloring sketch. *)

module P = Coloring.Palette
module G = Dgraph.Graph
module PC = Sketchmodel.Public_coins

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let proper_outcome g coins =
  let outcome, stats = P.run g coins in
  match outcome.P.coloring with
  | Some colors -> (colors, stats, outcome.P.conflict_edges)
  | None -> Alcotest.fail "coloring failed"

let test_shapes () =
  let coins = PC.create 44 in
  List.iter
    (fun g ->
      let colors, _, _ = proper_outcome g coins in
      checkb "proper" true (P.is_proper g colors);
      checkb "within palette" true (P.max_color colors <= G.max_degree g))
    [
      Dgraph.Gen.complete 12;
      Dgraph.Gen.cycle 9;
      Dgraph.Gen.star 15;
      Dgraph.Gen.path 10;
      Dgraph.Gen.complete_bipartite 6 6;
    ]

let test_random_many_seeds () =
  let failures = ref 0 in
  for seed = 1 to 20 do
    let rng = Stdx.Prng.create seed in
    let g = Dgraph.Gen.gnp rng 60 0.3 in
    let outcome, _ = P.run g (PC.create (seed * 5)) in
    match outcome.P.coloring with
    | Some colors -> if not (P.is_proper g colors) then incr failures
    | None -> incr failures
  done;
  checki "no failures over 20 seeds" 0 !failures

let test_empty_graph () =
  let g = G.empty 5 in
  let colors, stats, conflicts = proper_outcome g (PC.create 1) in
  checkb "proper trivially" true (P.is_proper g colors);
  checki "no conflicts" 0 conflicts;
  (* Every player sends the same empty conflict list. *)
  let empty_list =
    let w = Stdx.Bitbuf.Writer.create () in
    Stdx.Bitbuf.Writer.int_list w [];
    Stdx.Bitbuf.Writer.length_bits w
  in
  checki "tiny messages" empty_list stats.Sketchmodel.Rounds.max_bits;
  checki "every player sends the same" (5 * stats.Sketchmodel.Rounds.max_bits)
    stats.Sketchmodel.Rounds.total_bits;
  checkb "cost counted" true (stats.Sketchmodel.Rounds.max_bits >= 8)

let test_complete_graph_needs_all_colors () =
  (* K_n requires exactly Delta+1 = n colors; with full-size lists the
     sketch must still find a proper coloring. *)
  let g = Dgraph.Gen.complete 8 in
  let outcome, _ = P.run g ~list_size:8 (PC.create 2) in
  match outcome.P.coloring with
  | Some colors ->
      checkb "proper" true (P.is_proper g colors);
      let distinct = List.sort_uniq compare (Array.to_list colors) in
      checki "all 8 colors used" 8 (List.length distinct)
  | None -> Alcotest.fail "K8 coloring failed"

let test_conflict_edges_counted_once () =
  (* In a complete graph with full lists every edge conflicts. *)
  let g = Dgraph.Gen.complete 6 in
  let outcome, _ = P.run g ~list_size:6 (PC.create 3) in
  checki "conflicts = edges" (G.m g) outcome.P.conflict_edges

let test_is_proper_rejects () =
  let g = Dgraph.Gen.path 3 in
  checkb "monochrome edge" false (P.is_proper g [| 0; 0; 1 |]);
  checkb "wrong length" false (P.is_proper g [| 0; 1 |]);
  checkb "unset color" false (P.is_proper g [| 0; -1; 0 |]);
  checkb "valid" true (P.is_proper g [| 0; 1; 0 |])

let test_determinism () =
  let rng = Stdx.Prng.create 4 in
  let g = Dgraph.Gen.gnp rng 40 0.3 in
  let o1, s1 = P.run g (PC.create 9) in
  let o2, s2 = P.run g (PC.create 9) in
  checkb "same coloring" true (o1.P.coloring = o2.P.coloring);
  checki "same cost" s1.Sketchmodel.Rounds.max_bits s2.Sketchmodel.Rounds.max_bits

(* The list-based implementation this module had before it moved to
   sorted int arrays, kept as an oracle: same coins, same draws, so the
   same outcome and the same bits. *)
module Oracle = struct
  module Model = Sketchmodel.Model
  module Rounds = Sketchmodel.Rounds
  module Writer = Stdx.Bitbuf.Writer
  module Reader = Stdx.Bitbuf.Reader

  let list_of coins ~delta ~list_size v =
    let rng = PC.keyed coins "palette" v in
    let seen = Hashtbl.create list_size in
    let out = ref [] in
    let target = min list_size (delta + 1) in
    while Hashtbl.length seen < target do
      let c = Stdx.Prng.int rng (delta + 1) in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.replace seen c ();
        out := c :: !out
      end
    done;
    List.sort compare !out

  let lists_intersect a b = List.exists (fun c -> List.mem c b) a

  let player ~list_fn (view : Model.view) =
    let w = Writer.create () in
    let own = list_fn view.Model.vertex in
    let conflicts =
      Array.to_list view.Model.neighbors |> List.filter (fun u -> lists_intersect own (list_fn u))
    in
    Writer.int_list w conflicts;
    w

  let try_color ~n ~list_fn conflict_adj order =
    let colors = Array.make n (-1) in
    let ok = ref true in
    Array.iter
      (fun v ->
        if !ok then begin
          let lv = list_fn v in
          let used =
            List.filter_map (fun u -> if colors.(u) >= 0 then Some colors.(u) else None) conflict_adj.(v)
          in
          match List.find_opt (fun c -> not (List.mem c used)) lv with
          | Some c -> colors.(v) <- c
          | None -> ok := false
        end)
      order;
    if !ok then Some colors else None

  let referee ~list_fn ~restarts ~n ~sketches coins =
    let conflict_adj = Array.make n [] in
    let edge_count = ref 0 in
    Array.iteri
      (fun v r ->
        List.iter
          (fun u ->
            if u >= 0 && u < n && u <> v then begin
              conflict_adj.(v) <- u :: conflict_adj.(v);
              if v < u then incr edge_count
            end)
          (Reader.int_list r))
      sketches;
    let rec attempt i =
      if i >= restarts then None
      else
        let order = Stdx.Prng.permutation (PC.keyed coins "palette-order" i) n in
        match try_color ~n ~list_fn conflict_adj order with
        | Some colors -> Some colors
        | None -> attempt (i + 1)
    in
    { P.coloring = attempt 0; conflict_edges = !edge_count }

  let run g coins =
    let n = G.n g in
    let delta = max 1 (G.max_degree g) in
    let list_size = int_of_float (ceil (4. *. log (float_of_int (n + 1)))) + 4 in
    let table = Hashtbl.create 64 in
    let list_fn v =
      match Hashtbl.find_opt table v with
      | Some l -> l
      | None ->
          let l = list_of coins ~delta ~list_size v in
          Hashtbl.replace table v l;
          l
    in
    Rounds.run
      (Rounds.one_round
         {
           Model.name = "palette-sparsification";
           player = (fun view _ -> player ~list_fn view);
           referee = (fun ~n ~sketches coins -> referee ~list_fn ~restarts:10 ~n ~sketches coins);
         })
      g coins
end

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"array Palette matches the list oracle" ~count:100
         QCheck.(triple (int_range 0 64) (oneofl [ 0.; 0.1; 0.5; 1. ]) (int_range 0 1000))
         (fun (n, p, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n p in
           let coins = PC.create (seed + 1) in
           P.run g coins = Oracle.run g coins));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"palette coloring proper on random graphs" ~count:40
         QCheck.(pair (int_range 2 40) (int_range 0 1000))
         (fun (n, seed) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.4 in
           let outcome, _ = P.run g (PC.create (seed + 1)) in
           match outcome.P.coloring with
           | Some colors -> P.is_proper g colors && P.max_color colors <= G.max_degree g
           | None -> false));
  ]

let () =
  Alcotest.run "coloring"
    [
      ( "palette",
        [
          Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "random many seeds" `Quick test_random_many_seeds;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "complete graph" `Quick test_complete_graph_needs_all_colors;
          Alcotest.test_case "conflict edges counted once" `Quick test_conflict_edges_counted_once;
          Alcotest.test_case "is_proper rejects" `Quick test_is_proper_rejects;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ("coloring-properties", qcheck_tests);
    ]
