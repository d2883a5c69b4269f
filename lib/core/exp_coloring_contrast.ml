(* T6b: palette sparsification vs the trivial protocol on dense G(n, 1/2)
   (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins

type row = {
  cn : int;
  delta : int;
  list_size : int;
  palette_bits : int;
  full_bits : int;
  ratio : float;
  proper : bool;
}

let compute ~ns ~seed =
  List.map
    (fun n ->
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (5 * n))) in
      let g = Dgraph.Gen.gnp rng n 0.5 in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 11 + n)) in
      let outcome, stats = Coloring.Palette.run g coins in
      let (), trivial_stats = Rounds.run (Rounds.one_round Protocols.Trivial.baseline) g coins in
      let delta = Graph.max_degree g in
      {
        cn = n;
        delta;
        list_size = int_of_float (ceil (4. *. log (float_of_int (n + 1)))) + 4;
        palette_bits = stats.Rounds.max_bits;
        full_bits = trivial_stats.Rounds.max_bits;
        ratio = float_of_int stats.Rounds.max_bits /. float_of_int trivial_stats.Rounds.max_bits;
        proper =
          (match outcome.Coloring.Palette.coloring with
          | Some colors ->
              Coloring.Palette.is_proper g colors && Coloring.Palette.max_color colors <= delta
          | None -> false);
      })
    ns

let schema =
  [
    T.int_col ~width:7 ~header:"n" "n";
    T.int_col ~width:7 ~header:"Delta" "delta";
    T.int_col ~width:6 ~header:"list" "list_size";
    T.int_col ~width:13 ~header:"palette bits" "palette_bits";
    T.int_col ~width:13 ~header:"full bits" "full_bits";
    T.float_col ~width:8 ~digits:3 "ratio";
    T.bool_col ~width:8 "proper";
  ]

let to_row r =
  T.
    [
      Int r.cn;
      Int r.delta;
      Int r.list_size;
      Int r.palette_bits;
      Int r.full_bits;
      Float r.ratio;
      Bool r.proper;
    ]

let preamble =
  [ ""; "T6b. (Delta+1)-coloring vs trivial on dense G(n, 1/2) — the ratio decays with n" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "coloring-contrast"
    let title = "T6b"
    let doc = "T6b: palette sparsification vs trivial on dense graphs."

    let params =
      R.std_params [ R.ints_param "n" ~doc:"Graph sizes n." [ 256; 512; 1024; 2048 ] ]

    let schema = schema
    let to_row = to_row
    let run ps = compute ~ns:(R.ints_value ps "n") ~seed:(R.seed ps)
    let preamble _ _ = preamble
    let footer _ = []
    let fast_overrides = [ ("n", R.Vints [ 128; 256 ]); ("seed", R.Vint 19) ]
    let full_overrides = [ ("n", R.Vints [ 256; 512; 1024; 2048 ]); ("seed", R.Vint 19) ]
    let smoke = [ ("n", R.Vints [ 32 ]); ("seed", R.Vint 19) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
