(* F9: Footnote 1 — recovering the bridge between two random clouds via
   AGM-style sampling (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins

type row = { half : int; samples_per_vertex : int; max_bits : int; success : float }

let compute ~halves ~samples ~trials ~seed =
  List.concat_map
    (fun half ->
      List.map
        (fun s ->
          let success =
            Agm.Bridge_demo.success_probability ~half ~samples_per_vertex:s ~trials ~seed
          in
          let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + half + s)) in
          let g, _ = Dgraph.Gen.bridge_of_clouds rng ~half ~p:0.5 in
          let result =
            Agm.Bridge_demo.run g ~samples_per_vertex:s
              (Public_coins.create (Stdx.Hashing.mix64 (seed * 3 + half)))
          in
          let max_bits = result.Agm.Bridge_demo.stats.Rounds.max_bits in
          { half; samples_per_vertex = s; max_bits; success })
        samples)
    halves

let schema =
  [
    T.int_col ~width:7 "half";
    T.int_col ~width:9 ~header:"samples" "samples_per_vertex";
    T.int_col ~width:10 ~header:"max bits" "max_bits";
    T.float_col ~width:9 ~digits:2 "success";
  ]

let to_row r = T.[ Int r.half; Int r.samples_per_vertex; Int r.max_bits; Float r.success ]
let preamble = [ ""; "F9. Footnote 1 — recovering the bridge between two random clouds" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "bridge"
    let title = "F9"
    let doc = "F9: Footnote 1 — find the bridge between two random clouds."

    let params =
      R.std_params
        [
          R.ints_param "halves" ~doc:"Cloud sizes (n/2)." [ 32; 128; 512 ];
          R.ints_param "samples" ~doc:"Sampled edges per vertex." [ 1; 2; 4 ];
          R.int_param "trials" ~doc:"Trials per configuration." 20;
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~halves:(R.ints_value ps "halves") ~samples:(R.ints_value ps "samples")
        ~trials:(R.int_value ps "trials") ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []

    let fast_overrides =
      [ ("halves", R.Vints [ 32 ]); ("trials", R.Vint 5); ("seed", R.Vint 29) ]

    let full_overrides =
      [ ("halves", R.Vints [ 32; 128; 512 ]); ("trials", R.Vint 20); ("seed", R.Vint 29) ]

    let smoke = [ ("halves", R.Vints [ 12 ]); ("samples", R.Vints [ 2 ]); ("trials", R.Vint 2) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
