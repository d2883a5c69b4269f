module Model = Sketchmodel.Model
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

let player (view : Model.view) _coins =
  let w = Writer.create () in
  Writer.int_array w view.Model.neighbors;
  w

let reconstruct ~n ~sketches =
  let b = Graph.Builder.create ~capacity:(max 16 n) n in
  Array.iteri
    (fun v r ->
      Array.iter
        (fun u -> if u <> v && u >= 0 && u < n then Graph.Builder.add_edge b v u)
        (Reader.int_array r))
    sketches;
  Graph.Builder.freeze b

let mm =
  {
    Model.name = "trivial-mm";
    player;
    referee =
      (fun ~n ~sketches _coins -> Dgraph.Matching.greedy (reconstruct ~n ~sketches) ());
  }

let mis =
  {
    Model.name = "trivial-mis";
    player;
    referee = (fun ~n ~sketches _coins -> Dgraph.Mis.greedy (reconstruct ~n ~sketches) ());
  }

let baseline =
  { Model.name = "trivial-baseline"; player; referee = (fun ~n:_ ~sketches:_ _coins -> ()) }
