module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type outcome = { coloring : int array option; conflict_edges : int }

(* L(v) is a deterministic function of the public coins and v, so every
   player (and the referee) can recompute anyone's list for free. *)
let list_of coins ~delta ~list_size v =
  let rng = Public_coins.keyed coins "palette" v in
  let seen = Hashtbl.create list_size in
  let out = ref [] in
  (* Distinct colors; list_size is far below delta + 1 in the interesting
     regime, but cap defensively. *)
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
        let used = List.filter_map (fun u -> if colors.(u) >= 0 then Some colors.(u) else None) conflict_adj.(v) in
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
      let reported = Reader.int_list r in
      List.iter
        (fun u ->
          if u >= 0 && u < n && u <> v then begin
            conflict_adj.(v) <- u :: conflict_adj.(v);
            (* Count each conflict edge once (it is reported by both
               endpoints). *)
            if v < u then incr edge_count
          end)
        reported)
    sketches;
  let rec attempt i =
    if i >= restarts then None
    else begin
      let rng = Public_coins.keyed coins "palette-order" i in
      let order = Stdx.Prng.permutation rng n in
      match try_color ~n ~list_fn conflict_adj order with
      | Some colors -> Some colors
      | None -> attempt (i + 1)
    end
  in
  { coloring = attempt 0; conflict_edges = !edge_count }

let protocol ~n ~delta ~list_size ~restarts =
  ignore n;
  (* One cache per protocol instantiation; keyed on the vertex only, so it
     is rebuilt whenever the coins change (a fresh protocol value is made
     per run). *)
  let cache : (int, (int, int list) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
  let list_fn coins =
    let key = Public_coins.seed coins in
    let table =
      match Hashtbl.find_opt cache key with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 1024 in
          Hashtbl.replace cache key t;
          t
    in
    fun v ->
      match Hashtbl.find_opt table v with
      | Some l -> l
      | None ->
          let l = list_of coins ~delta ~list_size v in
          Hashtbl.replace table v l;
          l
  in
  {
    Model.name = "palette-sparsification";
    player = (fun view coins -> player ~list_fn:(list_fn coins) view);
    referee =
      (fun ~n ~sketches coins -> referee ~list_fn:(list_fn coins) ~restarts ~n ~sketches coins);
  }

let run g ?list_size ?(restarts = 10) coins =
  let n = Graph.n g in
  let delta = max 1 (Graph.max_degree g) in
  let list_size =
    match list_size with
    | Some s -> s
    | None -> int_of_float (ceil (4. *. log (float_of_int (n + 1)))) + 4
  in
  Rounds.run (Rounds.one_round (protocol ~n ~delta ~list_size ~restarts)) g coins

let is_proper g colors =
  Array.length colors = Graph.n g
  && Array.for_all (fun c -> c >= 0) colors
  && Graph.fold_edges (fun u v acc -> acc && colors.(u) <> colors.(v)) g true

let max_color colors = Array.fold_left max 0 colors
