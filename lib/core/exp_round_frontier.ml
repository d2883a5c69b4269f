(* T16: the rounds-vs-communication frontier for MIS on D_MM — the
   r-round prefix family against the Luby-style upper-bound rows
   (DESIGN.md §4, arXiv:2209.09049). *)

module T = Report.Tabular
module R = Exp_registry
module Public_coins = Sketchmodel.Public_coins
module Rs = Rsgraph.Rs_graph

type row = {
  fm : int;
  protocol : string;
  rounds_used : int;
  max_bits : int;
  total_bits : int;
  broadcast_bits : int;
  r1_max : int;
  maximal : bool;
  sqrt_n : float;
}

let row_of ~m ~g ~sqrt_n name (mis, (stats : Sketchmodel.Rounds.stats)) =
  {
    fm = m;
    protocol = name;
    rounds_used = stats.Sketchmodel.Rounds.rounds;
    max_bits = stats.Sketchmodel.Rounds.max_bits;
    total_bits = stats.Sketchmodel.Rounds.total_bits;
    broadcast_bits = stats.Sketchmodel.Rounds.broadcast_bits;
    r1_max = stats.Sketchmodel.Rounds.round_max.(0);
    maximal = Dgraph.Mis.is_maximal g mis;
    sqrt_n;
  }

let compute ~ms ~rounds ~seed =
  List.concat_map
    (fun m ->
      let rs = Rs.bipartite m in
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + m)) in
      let dmm = Hard_dist.sample rs rng in
      let g = dmm.Hard_dist.graph in
      let sqrt_n = sqrt (float_of_int dmm.Hard_dist.n) in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 17 + m)) in
      let row = row_of ~m ~g ~sqrt_n in
      let frontier =
        List.map
          (fun r ->
            row
              (Printf.sprintf "prefix r=%d" r)
              (Multipass.Frontier.run ~rounds:r g coins))
          rounds
      in
      let luby =
        List.map
          (fun kind ->
            row
              ("luby " ^ Multipass.Luby.priority_name kind)
              (Multipass.Luby.run kind g coins))
          [ Multipass.Luby.Random; Multipass.Luby.Degree; Multipass.Luby.Index ]
      in
      frontier @ luby)
    ms

let schema =
  [
    T.int_col ~width:5 "m";
    T.str_col ~width:14 ~left:true "protocol";
    T.int_col ~width:7 ~header:"rounds" "rounds_used";
    T.int_col ~width:9 ~header:"max bits" "max_bits";
    T.int_col ~width:11 ~header:"total bits" "total_bits";
    T.int_col ~width:10 ~header:"bcast bits" "broadcast_bits";
    T.int_col ~width:8 ~header:"r1 max" "r1_max";
    T.bool_col ~width:8 "maximal";
    T.float_col ~width:9 ~digits:1 ~header:"sqrt(n)" "sqrt_n";
  ]

let to_row r =
  T.
    [
      Int r.fm;
      Str r.protocol;
      Int r.rounds_used;
      Int r.max_bits;
      Int r.total_bits;
      Int r.broadcast_bits;
      Int r.r1_max;
      Bool r.maximal;
      Float r.sqrt_n;
    ]

let preamble =
  [
    "";
    "T16. Round frontier on D_MM: r-round prefix MIS vs Luby-style rounds";
    "     (r=1 is the one-round regime of the paper's lower bound)";
  ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "round-frontier"
    let title = "T16"
    let doc = "T16: bits-per-round frontier for MIS (prefix r-round vs Luby variants)."

    let params =
      R.std_params
        [
          R.ints_param "m" ~doc:"RS parameters m." [ 10; 25 ];
          R.ints_param "rounds" ~doc:"Prefix-protocol round counts r." [ 1; 2; 3; 4 ];
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~ms:(R.ints_value ps "m") ~rounds:(R.ints_value ps "rounds")
        ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []

    let fast_overrides =
      [ ("m", R.Vints [ 10 ]); ("rounds", R.Vints [ 1; 2; 4 ]); ("seed", R.Vint 53) ]

    let full_overrides =
      [ ("m", R.Vints [ 10; 25 ]); ("rounds", R.Vints [ 1; 2; 3; 4 ]); ("seed", R.Vint 53) ]

    let smoke = [ ("m", R.Vints [ 4 ]); ("rounds", R.Vints [ 1; 2 ]); ("seed", R.Vint 53) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
