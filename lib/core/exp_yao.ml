(* T13: the Yao averaging step — best fixed coins dominate the
   coin-averaged success (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rounds = Sketchmodel.Rounds
module Rs = Rsgraph.Rs_graph

type row = {
  ym : int;
  ybudget : int;
  randomized : float;
  derandomized : float;
  dominates : bool;
}

let compute ~m ~budgets ~instances ~seeds ~seed =
  let rs = Rs.bipartite m in
  let insts =
    Array.init instances (fun i ->
        Hard_dist.sample rs (Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (i * 53)))))
  in
  let seed_list = List.init seeds (fun i -> Stdx.Hashing.mix64 (seed + (811 * i))) in
  List.map
    (fun budget ->
      let report =
        Yao.derandomize ~seeds:seed_list ~instances:insts ~run:(fun coins dmm ->
            let p =
              Protocols.Sampled_mm.protocol ~budget_bits:budget
                ~strategy:Protocols.Sampled_mm.Uniform
            in
            let out, _ = Rounds.run (Rounds.one_round p) dmm.Hard_dist.graph coins in
            Dgraph.Matching.is_maximal dmm.Hard_dist.graph out)
      in
      {
        ym = m;
        ybudget = budget;
        randomized = report.Yao.average;
        derandomized = report.Yao.best_rate;
        dominates = Yao.dominates report;
      })
    budgets

let schema =
  [
    T.int_col ~width:6 ~header:"m" "m";
    T.int_col ~width:9 ~header:"bits" "budget_bits";
    T.float_col ~width:12 ~digits:3 "randomized";
    T.float_col ~width:14 ~digits:3 "derandomized";
    T.bool_col ~width:10 "dominates";
  ]

let to_row r =
  T.[ Int r.ym; Int r.ybudget; Float r.randomized; Float r.derandomized; Bool r.dominates ]

let preamble =
  [ ""; "T13. The averaging step: best fixed coins >= coin-averaged success (Yao [53])" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "yao"
    let title = "T13"
    let doc = "T13: derandomization by averaging on D_MM."

    let params =
      R.std_params
        [
          R.int_param "m" ~doc:"RS parameter m." 10;
          R.ints_param "budgets" ~doc:"Budgets in bits." [ 16; 32; 48 ];
          R.int_param "instances" ~doc:"Sampled instances." 20;
          R.int_param "seeds" ~doc:"Coin seeds evaluated." 8;
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~m:(R.int_value ps "m") ~budgets:(R.ints_value ps "budgets")
        ~instances:(R.int_value ps "instances") ~seeds:(R.int_value ps "seeds")
        ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []

    let fast_overrides =
      [ ("instances", R.Vint 8); ("seeds", R.Vint 4); ("seed", R.Vint 61) ]

    let full_overrides =
      [ ("instances", R.Vint 20); ("seeds", R.Vint 8); ("seed", R.Vint 61) ]

    let smoke =
      [ ("m", R.Vint 4); ("budgets", R.Vints [ 16 ]); ("instances", R.Vint 2); ("seeds", R.Vint 2) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
