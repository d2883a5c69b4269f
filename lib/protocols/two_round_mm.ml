module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type broadcast = { matched : bool array; m1 : Dgraph.Matching.t }

let round1 ~cap (view : Model.view) coins =
  let deg = Array.length view.Model.neighbors in
  let count = min deg cap in
  let rng = Public_coins.keyed coins "filter-mm" view.Model.vertex in
  let picks = Stdx.Prng.sample_distinct rng count deg in
  let w = Writer.create () in
  Writer.int_list w (Array.to_list (Array.map (fun i -> view.Model.neighbors.(i)) picks));
  w

let decide ~n ~sketches _coins =
  let b = Graph.Builder.create ~capacity:(max 16 n) n in
  Array.iteri
    (fun v r ->
      List.iter
        (fun u -> if u <> v && u >= 0 && u < n then Graph.Builder.add_edge b v u)
        (Reader.int_list r))
    sketches;
  let sampled = Graph.Builder.freeze b in
  let m1 = Dgraph.Matching.greedy sampled () in
  let matched = Array.make n false in
  List.iter
    (fun (a, b) ->
      matched.(a) <- true;
      matched.(b) <- true)
    m1;
  { matched; m1 }

let encode_broadcast b =
  let w = Writer.create () in
  Array.iter (Writer.bit w) b.matched;
  Writer.int_list w (List.concat_map (fun (a, c) -> [ a; c ]) b.m1);
  w

let round2 (view : Model.view) b _coins =
  let w = Writer.create () in
  if not b.matched.(view.Model.vertex) then
    Writer.int_list w
      (Array.to_list view.Model.neighbors |> List.filter (fun u -> not b.matched.(u)))
  else Writer.int_list w [];
  w

let finish ~n ~broadcast ~sketches _coins =
  let residual = ref [] in
  Array.iteri
    (fun v r ->
      List.iter
        (fun u -> if u <> v && u >= 0 && u < n then residual := Graph.normalize_edge v u :: !residual)
        (Reader.int_list r))
    sketches;
  let matched = Array.copy broadcast.matched in
  let extension = ref [] in
  List.iter
    (fun (a, b) ->
      if (not matched.(a)) && not matched.(b) then begin
        matched.(a) <- true;
        matched.(b) <- true;
        extension := (a, b) :: !extension
      end)
    !residual;
  broadcast.m1 @ List.rev !extension

let protocol ?(cap_factor = 1.0) ~n () =
  let cap = max 1 (int_of_float (ceil (cap_factor *. sqrt (float_of_int n)))) in
  {
    Rounds.name = "two-round-filtering-mm";
    max_rounds = 2;
    init = (fun ~n _coins -> { matched = Array.make n false; m1 = [] });
    player =
      (fun ~round view b coins -> if round = 1 then round1 ~cap view coins else round2 view b coins);
    referee =
      (fun ~round ~n ~state ~sketches coins ->
        if round = 1 then Rounds.Continue (decide ~n ~sketches coins)
        else Rounds.Finish (finish ~n ~broadcast:state ~sketches coins));
    encode_broadcast;
  }

let run ?cap_factor g coins = Rounds.run (protocol ?cap_factor ~n:(Graph.n g) ()) g coins
