(* The r-round referee engine. One iteration = one simultaneous sketch
   round followed by one referee step; [Continue] charges the broadcast,
   [Finish] ends the run. *)

module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type ('b, 'a) step = Continue of 'b | Finish of 'a

type ('v, 'b, 'a) protocol_over = {
  name : string;
  max_rounds : int;
  init : n:int -> Public_coins.t -> 'b;
  player : round:int -> 'v -> 'b -> Public_coins.t -> Writer.t;
  referee :
    round:int -> n:int -> state:'b -> sketches:Reader.t array -> Public_coins.t -> ('b, 'a) step;
  encode_broadcast : 'b -> Writer.t;
}

type ('b, 'a) protocol = (Model.view, 'b, 'a) protocol_over

type stats = {
  rounds : int;
  max_bits : int;
  total_bits : int;
  broadcast_bits : int;
  round_max : int array;
  round_total : int array;
  round_broadcast : int array;
}

let round_span name r body =
  Stdx.Trace.span
    ~args:(fun () -> [ ("round", Stdx.Trace.Int r); ("protocol", Stdx.Trace.Str name) ])
    "protocol.round" body

let one_round (p : ('v, 'a) Model.protocol_over) =
  {
    name = p.Model.name;
    max_rounds = 1;
    init = (fun ~n:_ _ -> ());
    player = (fun ~round:_ view () coins -> p.Model.player view coins);
    referee =
      (fun ~round:_ ~n ~state:() ~sketches coins -> Finish (p.Model.referee ~n ~sketches coins));
    encode_broadcast = (fun () -> Writer.create ());
  }

(* Sketch slots are indexed by player whatever the [schedule], so the
   referee's input cannot depend on it; test_sketchmodel pins that.
   [view p] is player [p]'s view, built when that player runs. *)
let sketch_round ?schedule ~players view =
  match schedule with
  | None -> fun player -> Array.init players (fun p -> player (view p))
  | Some order ->
      let sorted = Array.copy order in
      Array.sort compare sorted;
      if sorted <> Array.init players (fun i -> i) then
        invalid_arg "Rounds.run_views: schedule is not a permutation of the players";
      fun player ->
        let slots = Array.make players None in
        Array.iter (fun p -> slots.(p) <- Some (player (view p))) order;
        Array.map Option.get slots

let run_players ?schedule protocol ~n ~players view coins =
  let sketch_round = sketch_round ?schedule ~players view in
  let per_player = Array.make players 0 in
  let round_max = ref [] and round_total = ref [] and round_broadcast = ref [] in
  let state = ref (protocol.init ~n coins) in
  let result = ref None in
  let round = ref 1 in
  while Option.is_none !result do
    if !round > protocol.max_rounds then
      failwith (protocol.name ^ ": round limit exceeded");
    let r = !round in
    round_span protocol.name r (fun () ->
        let writers = sketch_round (fun view -> protocol.player ~round:r view !state coins) in
        let sizes = Array.map Writer.length_bits writers in
        Array.iteri (fun p bits -> per_player.(p) <- per_player.(p) + bits) sizes;
        round_max := Array.fold_left max 0 sizes :: !round_max;
        round_total := Array.fold_left ( + ) 0 sizes :: !round_total;
        let sketches = Array.map Reader.of_writer writers in
        match protocol.referee ~round:r ~n ~state:!state ~sketches coins with
        | Continue b ->
            round_broadcast := Writer.length_bits (protocol.encode_broadcast b) :: !round_broadcast;
            state := b
        | Finish a ->
            round_broadcast := 0 :: !round_broadcast;
            result := Some a);
    incr round
  done;
  let output = match !result with Some a -> a | None -> assert false in
  let round_max = Array.of_list (List.rev !round_max) in
  let round_total = Array.of_list (List.rev !round_total) in
  let round_broadcast = Array.of_list (List.rev !round_broadcast) in
  ( output,
    {
      rounds = Array.length round_max;
      max_bits = Array.fold_left max 0 per_player;
      total_bits = Array.fold_left ( + ) 0 per_player;
      broadcast_bits = Array.fold_left ( + ) 0 round_broadcast;
      round_max;
      round_total;
      round_broadcast;
    } )

let run_views ?schedule protocol ~n views coins =
  run_players ?schedule protocol ~n ~players:(Array.length views) (Array.get views) coins

(* One view at a time: a player's neighbour copy is garbage once its
   sketch is written, instead of all n copies living through the round. *)
let run protocol g coins =
  let n = Dgraph.Graph.n g in
  run_players protocol ~n ~players:n (Model.view g) coins

let pp_stats ppf s =
  Format.fprintf ppf "rounds=%d max=%d bits total=%d bits broadcast=%d bits [per-round max:%s]"
    s.rounds s.max_bits s.total_bits s.broadcast_bits
    (String.concat ","
       (Array.to_list (Array.map string_of_int s.round_max)))
