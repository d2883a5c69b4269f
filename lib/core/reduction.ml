module Graph = Dgraph.Graph
module Model = Sketchmodel.Model

let left u = u

let right dmm u = dmm.Hard_dist.n + u

(* H is assembled straight from G's columnar store: each G edge appears on
   both sides, plus the public-public biclique across the middle. The three
   blocks live on disjoint vertex pairs (left x left, right x right,
   left x right), so the exactly-sized builder freezes without collapsing
   anything. *)
let build_h dmm =
  Stdx.Trace.span "reduction.build_h" @@ fun () ->
  let n = dmm.Hard_dist.n in
  let g = dmm.Hard_dist.graph in
  let public = dmm.Hard_dist.public_labels in
  let p = Array.length public in
  let b = Graph.Builder.create ~capacity:(max 1 ((2 * Graph.m g) + (p * p))) (2 * n) in
  Graph.iter_edges
    (fun u v ->
      Graph.Builder.add_edge b u v;
      Graph.Builder.add_edge b (u + n) (v + n))
    g;
  Array.iter (fun u -> Array.iter (fun v -> Graph.Builder.add_edge b u (v + n)) public) public;
  Graph.Builder.freeze b

type side = Left | Right

let copies dmm side u = match side with Left -> left u | Right -> right dmm u

let side_public_empty dmm mis side =
  let in_mis = Stdx.Bitset.create (2 * dmm.Hard_dist.n) in
  List.iter (Stdx.Bitset.add in_mis) mis;
  Array.for_all (fun u -> not (Stdx.Bitset.mem in_mis (copies dmm side u))) dmm.Hard_dist.public_labels

let extract dmm mis side =
  let in_mis = Stdx.Bitset.create (2 * dmm.Hard_dist.n) in
  List.iter (Stdx.Bitset.add in_mis) mis;
  Hard_dist.special_pairs dmm
  |> List.filter_map (fun (_, (u, v)) ->
         let cu = copies dmm side u and cv = copies dmm side v in
         if Stdx.Bitset.mem in_mis cu && Stdx.Bitset.mem in_mis cv then None else Some (u, v))

let referee_output dmm mis =
  let ml = extract dmm mis Left and mr = extract dmm mis Right in
  if List.length ml >= List.length mr then ml else mr

let referee_output_min dmm mis =
  let ml = extract dmm mis Left and mr = extract dmm mis Right in
  if List.length ml <= List.length mr then ml else mr

type verdict = {
  lemma41_ok : bool;
  complete : bool;
  output_size : int;
  valid_edges : int;
  surviving : int;
  side_used : side;
}

let edge_set edges =
  let table = Hashtbl.create (List.length edges) in
  List.iter (fun (u, v) -> Hashtbl.replace table (Graph.normalize_edge u v) ()) edges;
  table

let check dmm mis =
  let surviving_pairs = List.map snd (Hard_dist.surviving_special dmm) in
  let surviving_set = edge_set surviving_pairs in
  (* Lemma 4.1 on a public-free side: extracted = exactly the survivors. *)
  let lemma_on side =
    let extracted = extract dmm mis side in
    List.length extracted = List.length surviving_pairs
    && List.for_all (fun e -> Hashtbl.mem surviving_set e) extracted
  in
  let lemma41_ok =
    (side_public_empty dmm mis Left && lemma_on Left)
    || (side_public_empty dmm mis Right && lemma_on Right)
  in
  let ml = extract dmm mis Left and mr = extract dmm mis Right in
  let output, side_used =
    if List.length ml >= List.length mr then (ml, Left) else (mr, Right)
  in
  let output_set = edge_set output in
  {
    lemma41_ok;
    complete = List.for_all (fun e -> Hashtbl.mem output_set e) surviving_pairs;
    output_size = List.length output;
    valid_edges =
      List.length (List.filter (fun (u, v) -> Graph.mem_edge dmm.Hard_dist.graph u v) output);
    surviving = List.length surviving_pairs;
    side_used;
  }

let run_with_solver dmm solver = check dmm (solver (build_h dmm))

let end_to_end_cost dmm protocol coins =
  let h = build_h dmm in
  let n2 = Graph.n h in
  (* Each view is built as its player runs, as in [Rounds.run]. *)
  let writers = Array.init n2 (fun v -> protocol.Model.player (Model.view h v) coins) in
  let sizes = Array.map Stdx.Bitbuf.Writer.length_bits writers in
  let sketches = Array.map Stdx.Bitbuf.Reader.of_writer writers in
  let mis = protocol.Model.referee ~n:n2 ~sketches coins in
  let n = dmm.Hard_dist.n in
  (* Each G-player u simulates both u_l and u_r; its message is the
     concatenation of the two H-messages. *)
  let g_player_bits = Array.init n (fun u -> sizes.(u) + sizes.(n + u)) in
  let one_round_stats sizes =
    let max_bits = Array.fold_left max 0 sizes and total_bits = Array.fold_left ( + ) 0 sizes in
    {
      Sketchmodel.Rounds.rounds = 1;
      max_bits;
      total_bits;
      broadcast_bits = 0;
      round_max = [| max_bits |];
      round_total = [| total_bits |];
      round_broadcast = [| 0 |];
    }
  in
  (check dmm mis, one_round_stats g_player_bits, one_round_stats sizes)
