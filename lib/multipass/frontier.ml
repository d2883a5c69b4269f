module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type state = {
  pi : int array;
  pos : int array;
  decided : bool array;
  mis_rev : int list;
  fresh : int list;
}

let blocks ~n ~rounds =
  if rounds < 1 then invalid_arg "Frontier.blocks: rounds must be >= 1";
  let cutoffs = Array.make rounds n in
  let fn = float_of_int n in
  for t = 0 to rounds - 2 do
    let raw =
      int_of_float (ceil (fn ** (float_of_int (t + 1) /. float_of_int rounds)))
    in
    let prev = if t = 0 then 0 else cutoffs.(t - 1) in
    cutoffs.(t) <- min n (max raw prev)
  done;
  cutoffs

(* The permutation is public: derived once per run from the coins and
   carried in the state, so it costs no communication and no per-player
   re-derivation. *)
let init ~n coins =
  let pi =
    Stdx.Prng.permutation (Public_coins.global coins "frontier-prefix-permutation") n
  in
  let pos = Array.make n 0 in
  Array.iteri (fun p v -> pos.(v) <- p) pi;
  { pi; pos; decided = Array.make n false; mis_rev = []; fresh = [] }

(* Round t: every still-undecided player reports its undecided neighbours
   inside the round's prefix [0, s_t). Decided players stay silent (empty
   sketch). Undecided neighbours in *earlier* blocks cannot exist — greedy
   over a block decides all its members — so the reports are exactly the
   edges against the new block. *)
let player ~cutoffs ~round (view : Model.view) state =
  let w = Writer.create () in
  let v = view.Model.vertex in
  if not state.decided.(v) then begin
    let cutoff = cutoffs.(round - 1) in
    Writer.int_list w
      (Array.to_list view.Model.neighbors
      |> List.filter (fun u -> state.pos.(u) < cutoff && not state.decided.(u)))
  end;
  w

let referee ~rounds ~cutoffs ~round ~n ~state ~sketches =
  let lo = if round = 1 then 0 else cutoffs.(round - 2) in
  let hi = cutoffs.(round - 1) in
  let adj = Array.make n [] in
  Array.iteri
    (fun v r ->
      if Reader.remaining_bits r > 0 then
        List.iter
          (fun u -> if u <> v && u >= 0 && u < n then adj.(v) <- u :: adj.(v))
          (Reader.int_list r))
    sketches;
  (* Greedy over the new block in permutation order. Undecided block
     members have no neighbour in the current MIS (they would be decided),
     so independence only needs guarding against this round's joins. *)
  let new_in = Array.make n false in
  let fresh = ref [] in
  for p = lo to hi - 1 do
    let v = state.pi.(p) in
    if (not state.decided.(v)) && not (List.exists (fun u -> new_in.(u)) adj.(v))
    then begin
      new_in.(v) <- true;
      fresh := v :: !fresh
    end
  done;
  let decided = Array.copy state.decided in
  for v = 0 to n - 1 do
    if not decided.(v) then
      decided.(v) <- new_in.(v) || List.exists (fun u -> new_in.(u)) adj.(v)
  done;
  let fresh = List.rev !fresh in
  let mis_rev = List.rev_append fresh state.mis_rev in
  if round = rounds then Rounds.Finish (List.rev mis_rev)
  else Rounds.Continue { state with decided; mis_rev; fresh }

let encode_broadcast state =
  let w = Writer.create () in
  Array.iter (Writer.bit w) state.decided;
  Writer.int_list w state.fresh;
  w

let protocol ~rounds ~n =
  if rounds < 1 then invalid_arg "Frontier.protocol: rounds must be >= 1";
  let cutoffs = blocks ~n ~rounds in
  {
    Rounds.name = Printf.sprintf "frontier-prefix-mis-r%d" rounds;
    max_rounds = rounds;
    init;
    player = (fun ~round view state _coins -> player ~cutoffs ~round view state);
    referee =
      (fun ~round ~n ~state ~sketches _coins ->
        referee ~rounds ~cutoffs ~round ~n ~state ~sketches);
    encode_broadcast;
  }

let run ?(rounds = 2) g coins =
  Rounds.run (protocol ~rounds ~n:(Dgraph.Graph.n g)) g coins
