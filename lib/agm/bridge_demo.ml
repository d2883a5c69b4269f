module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type result = {
  bridge : Graph.edge option;
  stats : Rounds.stats;
  partition_found : bool;
}

let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1
let unzigzag u = if u land 1 = 0 then u / 2 else -((u + 1) / 2)

(* s_w = sum_{z > w} (z*n + w) - sum_{z < w} (w*n + z): the telescoping sum
   from Footnote 1; edge (w, z), w < z, contributes +(z*n + w) at w and
   -(z*n + w) at z. *)
let telescoping_sum ~n (view : Model.view) =
  Array.fold_left
    (fun acc z ->
      let w = view.Model.vertex in
      if z > w then acc + ((z * n) + w) else acc - ((w * n) + z))
    0 view.Model.neighbors

let player ~n ~samples_per_vertex (view : Model.view) coins =
  let w = Writer.create () in
  let deg = Array.length view.Model.neighbors in
  let count = min deg samples_per_vertex in
  let rng = Public_coins.keyed coins "bridge-sample" view.Model.vertex in
  let picks = Stdx.Prng.sample_distinct rng count deg in
  Writer.uvarint w count;
  Array.iter (fun idx -> Writer.uvarint w view.Model.neighbors.(idx)) picks;
  Writer.uvarint w (zigzag (telescoping_sum ~n view));
  w

let decode_sum ~n total =
  let v = abs total / n and u = abs total mod n in
  if u < v && v < n then Some (u, v) else None

let referee ~n ~sketches _coins =
  let sampled = Array.make n [] in
  let sums = Array.make n 0 in
  Array.iteri
    (fun vertex r ->
      let count = Reader.uvarint r in
      for _ = 1 to count do
        sampled.(vertex) <- Reader.uvarint r :: sampled.(vertex)
      done;
      sums.(vertex) <- unzigzag (Reader.uvarint r))
    sketches;
  let sampled_graph =
    let b = Graph.Builder.create ~capacity:(max 16 n) n in
    for v = 0 to n - 1 do
      List.iter (fun u -> if u <> v then Graph.Builder.add_edge b v u) sampled.(v)
    done;
    Graph.Builder.freeze b
  in
  let label, count = Dgraph.Components.components sampled_graph in
  let side_sum side = Array.to_list label |> List.mapi (fun v l -> if l = side then sums.(v) else 0)
                      |> List.fold_left ( + ) 0 in
  if count = 2 then ((decode_sum ~n (side_sum 0)), true)
  else if count = 1 then begin
    (* The bridge itself was sampled: it is the unique sampled cut edge
       whose removal splits the clouds; verify candidates with the sum. *)
    let all_edges = Graph.edges_array sampled_graph in
    let candidates = Array.to_list all_edges in
    let answer =
      List.find_map
        (fun e ->
          let without = Array.of_list (List.filter (fun e' -> e' <> e) candidates) in
          let g' = Graph.of_edge_array n without in
          let label', count' = Dgraph.Components.components g' in
          if count' <> 2 then None
          else begin
            let sum =
              Array.to_list label'
              |> List.mapi (fun v l -> if l = label'.(0) then sums.(v) else 0)
              |> List.fold_left ( + ) 0
            in
            match decode_sum ~n sum with
            | Some d when d = e -> Some e
            | Some _ | None -> None
          end)
        candidates
    in
    (answer, false)
  end
  else (None, false)

let protocol ~n ~samples_per_vertex =
  {
    Model.name = "footnote1-bridge";
    player = (fun view coins -> player ~n ~samples_per_vertex view coins);
    referee = (fun ~n ~sketches coins -> referee ~n ~sketches coins);
  }

let run g ~samples_per_vertex coins =
  let (bridge, partition_found), stats =
    Rounds.run (Rounds.one_round (protocol ~n:(Graph.n g) ~samples_per_vertex)) g coins
  in
  { bridge; stats; partition_found }

let success_probability ~half ~samples_per_vertex ~trials ~seed =
  Model.success_rate ~trials ~seed (fun coins ->
      let rng = Public_coins.global coins "bridge-instance" in
      let g, planted = Dgraph.Gen.bridge_of_clouds rng ~half ~p:0.5 in
      let result = run g ~samples_per_vertex coins in
      result.bridge = Some planted)
