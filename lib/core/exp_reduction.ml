(* T8: the Section-4 MM-to-MIS reduction on H, end to end (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Rs = Rsgraph.Rs_graph

type row = {
  m : int;
  samples : int;
  lemma41_all : bool;
  complete_all : bool;
  min_rule_exact_all : bool;
  mean_valid_fraction : float;
  cost_ratio : float;
}

let compute ~ms ~samples ~seed =
  List.map
    (fun m ->
      let rs = Rs.bipartite m in
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (13 * m))) in
      let lemma_ok = ref true and complete_ok = ref true and min_ok = ref true in
      let valid_frac = ref 0. and ratio = ref 0. in
      for i = 0 to samples - 1 do
        let dmm = Hard_dist.sample rs rng in
        let coins = Public_coins.create (Stdx.Hashing.mix64 (seed + (97 * i) + m)) in
        let solver g =
          Dgraph.Mis.greedy g
            ~order:(Stdx.Prng.permutation (Stdx.Prng.create (seed + i)) (Graph.n g))
            ()
        in
        let verdict, g_stats, h_stats =
          Reduction.end_to_end_cost dmm Protocols.Trivial.mis coins
        in
        ignore solver;
        lemma_ok := !lemma_ok && verdict.Reduction.lemma41_ok;
        complete_ok := !complete_ok && verdict.Reduction.complete;
        valid_frac :=
          !valid_frac
          +. (float_of_int verdict.Reduction.valid_edges
             /. float_of_int (max 1 verdict.Reduction.output_size));
        ratio :=
          !ratio
          +. (float_of_int g_stats.Rounds.max_bits /. float_of_int h_stats.Rounds.max_bits);
        (* min-rule ablation on a referee-side exact MIS *)
        let mis = solver (Reduction.build_h dmm) in
        let mn =
          List.sort compare
            (List.map (fun (u, v) -> Graph.normalize_edge u v) (Reduction.referee_output_min dmm mis))
        in
        let survivors =
          List.sort compare
            (List.map
               (fun (_, (u, v)) -> Graph.normalize_edge u v)
               (Hard_dist.surviving_special dmm))
        in
        min_ok := !min_ok && mn = survivors
      done;
      {
        m;
        samples;
        lemma41_all = !lemma_ok;
        complete_all = !complete_ok;
        min_rule_exact_all = !min_ok;
        mean_valid_fraction = !valid_frac /. float_of_int samples;
        cost_ratio = !ratio /. float_of_int samples;
      })
    ms

let schema =
  [
    T.int_col ~width:6 "m";
    T.int_col ~width:8 "samples";
    T.bool_col ~width:9 ~header:"lemma4.1" "lemma41_all";
    T.bool_col ~width:9 ~header:"complete" "complete_all";
    T.bool_col ~width:10 ~header:"min-exact" "min_rule_exact_all";
    T.float_col ~width:11 ~digits:3 ~header:"valid-frac" "mean_valid_fraction";
    T.float_col ~width:11 ~digits:3 ~header:"cost-ratio" "cost_ratio";
  ]

let to_row r =
  T.
    [
      Int r.m;
      Int r.samples;
      Bool r.lemma41_all;
      Bool r.complete_all;
      Bool r.min_rule_exact_all;
      Float r.mean_valid_fraction;
      Float r.cost_ratio;
    ]

let preamble = [ ""; "T8. Theorem 2 — the MM-to-MIS reduction on H (two copies + public biclique)" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "reduction"
    let title = "T8"
    let doc = "T8: the Section-4 MM-to-MIS reduction, end to end."

    let params =
      R.std_params
        [
          R.ints_param "m" ~doc:"RS parameters m." [ 5; 10; 25 ];
          R.int_param "samples" ~doc:"Samples per m." 10;
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~ms:(R.ints_value ps "m") ~samples:(R.int_value ps "samples") ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []
    let fast_overrides = [ ("m", R.Vints [ 5; 10 ]); ("samples", R.Vint 3); ("seed", R.Vint 23) ]
    let full_overrides = [ ("m", R.Vints [ 5; 10; 25 ]); ("samples", R.Vint 10); ("seed", R.Vint 23) ]
    let smoke = [ ("m", R.Vints [ 4 ]); ("samples", R.Vint 2) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
