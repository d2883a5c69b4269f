module Graph = Dgraph.Graph

type view = { n : int; vertex : int; neighbors : int array }

let views g = Array.init (Graph.n g) (fun v -> { n = Graph.n g; vertex = v; neighbors = Graph.neighbors g v })

type ('v, 'a) protocol_over = {
  name : string;
  player : 'v -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
  referee : n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Public_coins.t -> 'a;
}

type 'a protocol = (view, 'a) protocol_over

type stats = { max_bits : int; total_bits : int; avg_bits : float; players : int }

(* [schedule] is the order player sketches are computed in; sketch slots are
   always indexed by player, so the referee's input — and therefore output
   and stats — cannot depend on it. This is the contract that lets the
   experiment suite compute trials (and their inner Model.run calls) on any
   domain in any order; test_sketchmodel pins it with shuffled schedules. *)
let run_views ?schedule protocol ~n player_views coins =
  let players = Array.length player_views in
  let schedule =
    match schedule with
    | None -> Array.init players (fun i -> i)
    | Some order ->
        let sorted = Array.copy order in
        Array.sort compare sorted;
        if sorted <> Array.init players (fun i -> i) then
          invalid_arg "Model.run_views: schedule is not a permutation of the players";
        order
  in
  let slots = Array.make players None in
  Array.iter (fun p -> slots.(p) <- Some (protocol.player player_views.(p) coins)) schedule;
  let writers = Array.map (function Some w -> w | None -> assert false) slots in
  let sizes = Array.map Stdx.Bitbuf.Writer.length_bits writers in
  let total_bits = Array.fold_left ( + ) 0 sizes in
  let max_bits = Array.fold_left max 0 sizes in
  let sketches = Array.map Stdx.Bitbuf.Reader.of_writer writers in
  let output = protocol.referee ~n ~sketches coins in
  let players = Array.length player_views in
  ( output,
    {
      max_bits;
      total_bits;
      avg_bits = (if players = 0 then 0. else float_of_int total_bits /. float_of_int players);
      players;
    } )

let run protocol g coins = run_views protocol ~n:(Graph.n g) (views g) coins

let success_rate ~trials ~seed experiment =
  if trials <= 0 then invalid_arg "Model.success_rate";
  let successes = ref 0 in
  for trial = 0 to trials - 1 do
    let coins = Public_coins.create (Stdx.Hashing.mix64 (seed + (trial * 7919))) in
    if experiment coins then incr successes
  done;
  float_of_int !successes /. float_of_int trials

let pp_stats ppf s =
  Format.fprintf ppf "players=%d max=%d bits avg=%.1f bits total=%d bits" s.players s.max_bits
    s.avg_bits s.total_bits
