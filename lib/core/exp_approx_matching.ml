(* F10: approximation ratio of budget-limited matching protocols against
   a Blossom maximum-matching oracle (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins

type row = { an : int; abudget : int; ratio_mean : float; ratio_min : float }

let compute ~ns ~budgets ~trials ~seed =
  List.concat_map
    (fun n ->
      List.map
        (fun budget ->
          let ratios =
            List.init trials (fun i ->
                let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (i * 131) + n)) in
                let g = Dgraph.Gen.gnp rng n (4.0 /. float_of_int n) in
                let coins = Public_coins.create (Stdx.Hashing.mix64 (seed + i + (n * budget))) in
                let protocol =
                  Protocols.Sampled_mm.protocol ~budget_bits:budget
                    ~strategy:Protocols.Sampled_mm.Uniform
                in
                let output, _ = Rounds.run (Rounds.one_round protocol) g coins in
                let valid = List.filter (fun (u, v) -> Graph.mem_edge g u v) output in
                let opt = Dgraph.Blossom.maximum_matching_size g in
                if opt = 0 then 1.
                else float_of_int (List.length valid) /. float_of_int opt)
          in
          {
            an = n;
            abudget = budget;
            ratio_mean = List.fold_left ( +. ) 0. ratios /. float_of_int trials;
            ratio_min = List.fold_left min 1. ratios;
          })
        budgets)
    ns

let schema =
  [
    T.int_col ~width:7 ~header:"n" "n";
    T.int_col ~width:9 ~header:"bits" "budget_bits";
    T.float_col ~width:11 ~digits:3 ~header:"mean ratio" "ratio_mean";
    T.float_col ~width:10 ~digits:3 ~header:"min ratio" "ratio_min";
  ]

let to_row r = T.[ Int r.an; Int r.abudget; Float r.ratio_mean; Float r.ratio_min ]

let preamble =
  [ ""; "F10. Approximate matching vs per-player budget (Blossom oracle; avg degree 4)" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "approx-matching"
    let title = "F10"
    let doc = "F10: approximation ratio of budget protocols (Blossom oracle)."

    let params =
      R.std_params
        [
          R.ints_param "n" ~doc:"Graph sizes n." [ 40; 80; 160 ];
          R.ints_param "budgets" ~doc:"Budgets in bits." [ 8; 24; 64; 256 ];
          R.int_param "trials" ~doc:"Trials per configuration." 8;
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~ns:(R.ints_value ps "n") ~budgets:(R.ints_value ps "budgets")
        ~trials:(R.int_value ps "trials") ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []

    let fast_overrides = [ ("n", R.Vints [ 40 ]); ("trials", R.Vint 3); ("seed", R.Vint 31) ]

    let full_overrides =
      [ ("n", R.Vints [ 40; 80; 160 ]); ("trials", R.Vint 8); ("seed", R.Vint 31) ]

    let smoke = [ ("n", R.Vints [ 16 ]); ("budgets", R.Vints [ 16 ]); ("trials", R.Vint 2) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
