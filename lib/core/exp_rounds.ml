(* T12: one round fails, two rounds suffice, on D_MM itself
   (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Public_coins = Sketchmodel.Public_coins
module Rs = Rsgraph.Rs_graph

type row = {
  rm : int;
  one_round_undominated : float;
  one_round_bits : int;
  two_round_mm_maximal : bool;
  two_round_mm_bits : int;
  two_round_mis_maximal : bool;
  two_round_mis_bits : int;
  sqrt_n_dmm : float;
}

let compute ~ms ~seed =
  List.map
    (fun m ->
      let rs = Rs.bipartite m in
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + m)) in
      let dmm = Hard_dist.sample rs rng in
      let g = dmm.Hard_dist.graph in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 17 + m)) in
      let undominated, one_stats = Protocols.One_round_mis.undominated_fraction g coins in
      let mm, mm_stats = Protocols.Two_round_mm.run g coins in
      let mis, mis_stats = Protocols.Two_round_mis.run g coins in
      {
        rm = m;
        one_round_undominated = undominated;
        one_round_bits = one_stats.Sketchmodel.Rounds.max_bits;
        two_round_mm_maximal = Dgraph.Matching.is_maximal g mm;
        two_round_mm_bits = mm_stats.Sketchmodel.Rounds.max_bits;
        two_round_mis_maximal = Dgraph.Mis.is_maximal g mis;
        two_round_mis_bits = mis_stats.Sketchmodel.Rounds.max_bits;
        sqrt_n_dmm = sqrt (float_of_int dmm.Hard_dist.n);
      })
    ms

let schema =
  [
    T.int_col ~width:6 "m";
    T.float_col ~width:13 ~digits:3 ~header:"undominated" "one_round_undominated";
    T.int_col ~width:9 ~header:"1r bits" "one_round_bits";
    T.bool_col ~width:8 ~header:"2r-mm" "two_round_mm_maximal";
    T.int_col ~width:9 ~header:"mm bits" "two_round_mm_bits";
    T.bool_col ~width:9 ~header:"2r-mis" "two_round_mis_maximal";
    T.int_col ~width:9 ~header:"mis bits" "two_round_mis_bits";
    T.float_col ~width:9 ~digits:1 ~header:"sqrt(n)" "sqrt_n_dmm";
  ]

let to_row r =
  T.
    [
      Int r.rm;
      Float r.one_round_undominated;
      Int r.one_round_bits;
      Bool r.two_round_mm_maximal;
      Int r.two_round_mm_bits;
      Bool r.two_round_mis_maximal;
      Int r.two_round_mis_bits;
      Float r.sqrt_n_dmm;
    ]

let preamble =
  [ ""; "T12. On D_MM: one-round local-minima MIS fails; two rounds solve MM and MIS" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "rounds"
    let title = "T12"
    let doc = "T12: one-round MIS failure vs two-round success on D_MM."

    let params = R.std_params [ R.ints_param "m" ~doc:"RS parameters m." [ 10; 25; 50 ] ]
    let schema = schema
    let to_row = to_row
    let run ps = compute ~ms:(R.ints_value ps "m") ~seed:(R.seed ps)
    let preamble _ _ = preamble
    let footer _ = []
    let fast_overrides = [ ("m", R.Vints [ 10 ]); ("seed", R.Vint 47) ]
    let full_overrides = [ ("m", R.Vints [ 10; 25; 50 ]); ("seed", R.Vint 47) ]
    let smoke = [ ("m", R.Vints [ 4 ]); ("seed", R.Vint 47) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
