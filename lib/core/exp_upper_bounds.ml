(* T6: the Section-1 upper-bound landscape — measured per-player sketch
   bits of the cited protocols (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins

type row = {
  n : int;
  agm_forest_bits : int;
  agm_ok : bool;
  coloring_bits : int;
  coloring_ok : bool;
  trivial_mm_bits : int;
  two_round_mm_bits : int;
  two_round_mm_ok : bool;
  two_round_mis_bits : int;
  two_round_mis_ok : bool;
}

let compute ~ns ~seed =
  List.map
    (fun n ->
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + n)) in
      (* Proportional degree (n/4 on average): the trivial protocol must
         then grow linearly in n while the sketches stay polylog — the
         Section-1 contrast. *)
      let g = Dgraph.Gen.gnp rng n 0.25 in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 7 + n)) in
      let forest, agm_stats = Agm.Spanning_forest.run g coins in
      let color_outcome, color_stats = Coloring.Palette.run g coins in
      let (), trivial_stats = Rounds.run (Rounds.one_round Protocols.Trivial.baseline) g coins in
      let mm2, mm2_stats = Protocols.Two_round_mm.run g coins in
      let mis2, mis2_stats = Protocols.Two_round_mis.run g coins in
      {
        n;
        agm_forest_bits = agm_stats.Rounds.max_bits;
        agm_ok = Dgraph.Components.is_spanning_forest g forest;
        coloring_bits = color_stats.Rounds.max_bits;
        coloring_ok =
          (match color_outcome.Coloring.Palette.coloring with
          | Some colors ->
              Array.length colors = n
              && Graph.fold_edges (fun u v acc -> acc && colors.(u) <> colors.(v)) g true
          | None -> false);
        trivial_mm_bits = trivial_stats.Rounds.max_bits;
        two_round_mm_bits = mm2_stats.Sketchmodel.Rounds.max_bits;
        two_round_mm_ok = Dgraph.Matching.is_maximal g mm2;
        two_round_mis_bits = mis2_stats.Sketchmodel.Rounds.max_bits;
        two_round_mis_ok = Dgraph.Mis.is_maximal g mis2;
      })
    ns

(* log2(bits(n2)/bits(n1)) / log2(n2/n1): 1.0 = linear growth in n,
   ~0 = polylogarithmic. *)
let growth_exponents rows select =
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        let e =
          log (float_of_int (select b) /. float_of_int (select a))
          /. log (float_of_int b.n /. float_of_int a.n)
        in
        e :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs rows

let schema =
  [
    T.int_col ~width:7 "n";
    T.int_col ~width:12 ~header:"agm-forest" "agm_forest_bits";
    T.bool_col ~width:7 ~header:"ok" "agm_ok";
    T.int_col ~width:12 ~header:"coloring" "coloring_bits";
    T.bool_col ~width:7 ~header:"ok" "coloring_ok";
    T.int_col ~width:12 ~header:"trivial-mm" "trivial_mm_bits";
    T.int_col ~width:12 ~header:"2r-mm" "two_round_mm_bits";
    T.bool_col ~width:7 ~header:"ok" "two_round_mm_ok";
    T.int_col ~width:12 ~header:"2r-mis" "two_round_mis_bits";
    T.bool_col ~width:7 ~header:"ok" "two_round_mis_ok";
  ]

let to_row r =
  T.
    [
      Int r.n;
      Int r.agm_forest_bits;
      Bool r.agm_ok;
      Int r.coloring_bits;
      Bool r.coloring_ok;
      Int r.trivial_mm_bits;
      Int r.two_round_mm_bits;
      Bool r.two_round_mm_ok;
      Int r.two_round_mis_bits;
      Bool r.two_round_mis_ok;
    ]

let preamble = [ ""; "T6. Section 1 landscape — measured per-player sketch bits (avg degree n/4)" ]

let footer rows =
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  if List.length rows >= 2 then
    [
      Printf.sprintf
        "    growth exponents (1.0 = linear in n, ~0 = polylog): agm=%.2f coloring=%.2f \
         trivial=%.2f 2r-mm=%.2f 2r-mis=%.2f"
        (mean (growth_exponents rows (fun r -> r.agm_forest_bits)))
        (mean (growth_exponents rows (fun r -> r.coloring_bits)))
        (mean (growth_exponents rows (fun r -> r.trivial_mm_bits)))
        (mean (growth_exponents rows (fun r -> r.two_round_mm_bits)))
        (mean (growth_exponents rows (fun r -> r.two_round_mis_bits)));
    ]
  else []

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "upper-bounds"
    let title = "T6"
    let doc = "T6: measured sketch sizes of the cited upper bounds."

    let params =
      R.std_params [ R.ints_param "n" ~doc:"Graph sizes n." [ 64; 128; 256 ] ]

    let schema = schema
    let to_row = to_row
    let run ps = compute ~ns:(R.ints_value ps "n") ~seed:(R.seed ps)
    let preamble _ _ = preamble
    let footer = footer
    let fast_overrides = [ ("n", R.Vints [ 64; 128 ]); ("seed", R.Vint 3) ]
    let full_overrides = [ ("n", R.Vints [ 64; 128; 256 ]); ("seed", R.Vint 3) ]
    let smoke = [ ("n", R.Vints [ 24; 32 ]); ("seed", R.Vint 3) ]
  end)

let table_of rows = T.table ~preamble ~footer:(footer rows) schema (List.map to_row rows)
