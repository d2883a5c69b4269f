module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type broadcast = { decided : bool array; i1 : Dgraph.Mis.t }

let shared_prefix coins ~n ~prefix_size =
  let rng = Public_coins.global coins "mis-prefix-permutation" in
  let pi = Stdx.Prng.permutation rng n in
  (pi, Array.sub pi 0 (min n prefix_size))

let round1 ~prefix_size (view : Model.view) coins =
  let _, prefix = shared_prefix coins ~n:view.Model.n ~prefix_size in
  let in_prefix = Stdx.Bitset.create view.Model.n in
  Array.iter (Stdx.Bitset.add in_prefix) prefix;
  let w = Writer.create () in
  Writer.int_list w
    (Array.to_list view.Model.neighbors |> List.filter (Stdx.Bitset.mem in_prefix));
  w

let decide ~prefix_size ~n ~sketches coins =
  let _, prefix = shared_prefix coins ~n ~prefix_size in
  let neighbor_in_prefix = Array.make n [] in
  Array.iteri
    (fun v r ->
      List.iter
        (fun u -> if u <> v && u >= 0 && u < n then neighbor_in_prefix.(v) <- u :: neighbor_in_prefix.(v))
        (Reader.int_list r))
    sketches;
  (* Greedy over the prefix in permutation order, using the edges inside
     the prefix (both endpoints reported them). *)
  let in_i1 = Array.make n false in
  let i1 = ref [] in
  Array.iter
    (fun v ->
      let blocked = List.exists (fun u -> in_i1.(u)) neighbor_in_prefix.(v) in
      if not blocked then begin
        in_i1.(v) <- true;
        i1 := v :: !i1
      end)
    prefix;
  (* A vertex is decided iff it joined i1 or has an i1 neighbour; the
     referee sees N(v) ∩ P ⊇ N(v) ∩ I1 for every v. *)
  let decided = Array.make n false in
  for v = 0 to n - 1 do
    decided.(v) <- in_i1.(v) || List.exists (fun u -> in_i1.(u)) neighbor_in_prefix.(v)
  done;
  { decided; i1 = List.rev !i1 }

let encode_broadcast b =
  let w = Writer.create () in
  Array.iter (Writer.bit w) b.decided;
  Writer.int_list w b.i1;
  w

let round2 (view : Model.view) b _coins =
  let w = Writer.create () in
  if not b.decided.(view.Model.vertex) then
    Writer.int_list w
      (Array.to_list view.Model.neighbors |> List.filter (fun u -> not b.decided.(u)))
  else Writer.int_list w [];
  w

let finish ~n ~broadcast ~sketches _coins =
  let residual_adj = Array.make n [] in
  Array.iteri
    (fun v r ->
      List.iter
        (fun u -> if u <> v && u >= 0 && u < n then residual_adj.(v) <- u :: residual_adj.(v))
        (Reader.int_list r))
    sketches;
  let in_set = Array.make n false in
  List.iter (fun v -> in_set.(v) <- true) broadcast.i1;
  let extension = ref [] in
  for v = 0 to n - 1 do
    if (not broadcast.decided.(v)) && not (List.exists (fun u -> in_set.(u)) residual_adj.(v)) then begin
      in_set.(v) <- true;
      extension := v :: !extension
    end
  done;
  broadcast.i1 @ List.rev !extension

let protocol ?(prefix_factor = 1.0) ~n () =
  let prefix_size = max 1 (int_of_float (ceil (prefix_factor *. sqrt (float_of_int n)))) in
  {
    Rounds.name = "two-round-prefix-mis";
    max_rounds = 2;
    init = (fun ~n _coins -> { decided = Array.make n false; i1 = [] });
    player =
      (fun ~round view b coins ->
        if round = 1 then round1 ~prefix_size view coins else round2 view b coins);
    referee =
      (fun ~round ~n ~state ~sketches coins ->
        if round = 1 then Rounds.Continue (decide ~prefix_size ~n ~sketches coins)
        else Rounds.Finish (finish ~n ~broadcast:state ~sketches coins));
    encode_broadcast;
  }

let run ?prefix_factor g coins = Rounds.run (protocol ?prefix_factor ~n:(Graph.n g) ()) g coins
