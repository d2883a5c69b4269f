(* T14: BCC rounds vs bandwidth trade-off on D_MM (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Rs = Rsgraph.Rs_graph

type row = {
  bn : int;
  bcc_rounds : int;
  bcc_bits_per_round : int;
  bcc_total_bits : int;
  bcc_maximal : bool;
  one_round_same_budget_maximal : float;
}

let compute ~ms ~trials ~seed =
  List.map
    (fun m ->
      let rs = Rs.bipartite m in
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + m)) in
      let dmm = Hard_dist.sample rs rng in
      let g = dmm.Hard_dist.graph in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 19 + m)) in
      let mm, stats = Protocols.Bcc_mm.run g coins in
      (* Apples to apples: the BCC bandwidth measure is bits per round, so
         the one-round comparison gets exactly that per-player budget. *)
      let budget = stats.Sketchmodel.Bcc.max_bits_per_round in
      let successes = ref 0 in
      for i = 1 to trials do
        let one_round =
          Protocols.Sampled_mm.protocol ~budget_bits:budget
            ~strategy:Protocols.Sampled_mm.Uniform
        in
        let out, _ =
          Rounds.run (Rounds.one_round one_round) g
            (Public_coins.create (Stdx.Hashing.mix64 (seed + (i * 71))))
        in
        if Dgraph.Matching.is_maximal g out then incr successes
      done;
      {
        bn = dmm.Hard_dist.n;
        bcc_rounds = stats.Sketchmodel.Bcc.rounds_used;
        bcc_bits_per_round = stats.Sketchmodel.Bcc.max_bits_per_round;
        bcc_total_bits = stats.Sketchmodel.Bcc.max_bits_total;
        bcc_maximal = Dgraph.Matching.is_maximal g mm;
        one_round_same_budget_maximal = float_of_int !successes /. float_of_int trials;
      })
    ms

let schema =
  [
    T.int_col ~width:8 ~header:"n" "n";
    T.int_col ~width:8 ~header:"rounds" "bcc_rounds";
    T.int_col ~width:11 ~header:"bits/round" "bcc_bits_per_round";
    T.int_col ~width:11 ~header:"total bits" "bcc_total_bits";
    T.bool_col ~width:9 ~header:"maximal" "bcc_maximal";
    T.float_col ~width:21 ~digits:2 ~header:"1-round same b/round" "one_round_same_budget_maximal";
  ]

let to_row r =
  T.
    [
      Int r.bn;
      Int r.bcc_rounds;
      Int r.bcc_bits_per_round;
      Int r.bcc_total_bits;
      Bool r.bcc_maximal;
      Float r.one_round_same_budget_maximal;
    ]

let preamble =
  [
    "";
    "T14. BCC rounds vs bandwidth on D_MM: O(log n) rounds of O(log n)-bit broadcasts";
    "     solve MM; one round at the same per-round bandwidth does not.";
  ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "bcc"
    let title = "T14"
    let doc = "T14: BCC rounds/bandwidth trade-off on D_MM."

    let params =
      R.std_params
        [
          R.ints_param "m" ~doc:"RS parameters m." [ 10; 25 ];
          R.int_param "trials" ~doc:"One-round trials." 10;
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~ms:(R.ints_value ps "m") ~trials:(R.int_value ps "trials") ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []
    let fast_overrides = [ ("m", R.Vints [ 10 ]); ("trials", R.Vint 3); ("seed", R.Vint 67) ]
    let full_overrides = [ ("m", R.Vints [ 10; 25 ]); ("trials", R.Vint 10); ("seed", R.Vint 67) ]
    let smoke = [ ("m", R.Vints [ 4 ]); ("trials", R.Vint 2) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
