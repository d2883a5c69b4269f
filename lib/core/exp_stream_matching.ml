(* T17: semi-streaming (1+eps) matching — eps vs passes vs memory,
   scored against the exact blossom optimum (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph

type row = {
  sn : int;
  eps_pct : int;
  passes : int;
  peak_memory_bits : int;
  matching : int;
  optimum : int;
  ratio : float;
  within_eps : bool;
  converged : bool;
}

let compute ~ns ~eps_pcts ~seed =
  List.concat_map
    (fun n ->
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (5 * n))) in
      let g = Dgraph.Gen.gnp rng n (8.0 /. float_of_int n) in
      let stream = Streams.Stream.shuffled rng g in
      let optimum = Dgraph.Blossom.maximum_matching_size g in
      List.map
        (fun eps_pct ->
          let eps = float_of_int eps_pct /. 100.0 in
          let res = Streams.Stream_matching.run ~eps stream in
          let size = Dgraph.Matching.size res.Streams.Stream_matching.matching in
          let ratio =
            if size = 0 then if optimum = 0 then 1.0 else infinity
            else float_of_int optimum /. float_of_int size
          in
          {
            sn = n;
            eps_pct;
            passes = List.length res.Streams.Stream_matching.passes;
            peak_memory_bits = res.Streams.Stream_matching.peak_memory_bits;
            matching = size;
            optimum;
            ratio;
            within_eps = ratio <= 1.0 +. eps +. 1e-9;
            converged = res.Streams.Stream_matching.converged;
          })
        eps_pcts)
    ns

let schema =
  [
    T.int_col ~width:6 "n";
    T.int_col ~width:6 ~header:"eps%" "eps_pct";
    T.int_col ~width:7 "passes";
    T.int_col ~width:10 ~header:"peak bits" "peak_memory_bits";
    T.int_col ~width:9 ~header:"matching" "matching";
    T.int_col ~width:8 ~header:"optimum" "optimum";
    T.float_col ~width:7 ~digits:3 "ratio";
    T.bool_col ~width:10 ~header:"within eps" "within_eps";
    T.bool_col ~width:10 "converged";
  ]

let to_row r =
  T.
    [
      Int r.sn;
      Int r.eps_pct;
      Int r.passes;
      Int r.peak_memory_bits;
      Int r.matching;
      Int r.optimum;
      Float r.ratio;
      Bool r.within_eps;
      Bool r.converged;
    ]

let preamble =
  [
    "";
    "T17. Semi-streaming (1+eps) matching: eps vs passes vs memory, scored";
    "     against the exact blossom optimum";
  ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "stream-matching"
    let title = "T17"
    let doc = "T17: multi-pass (1+eps) streaming matching vs the blossom optimum."

    let params =
      R.std_params
        [
          R.ints_param "n" ~doc:"Graph sizes n." [ 48; 96 ];
          R.ints_param "eps" ~doc:"Epsilon values, in percent." [ 50; 25; 10 ];
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~ns:(R.ints_value ps "n") ~eps_pcts:(R.ints_value ps "eps")
        ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []

    let fast_overrides =
      [ ("n", R.Vints [ 48 ]); ("eps", R.Vints [ 50; 25 ]); ("seed", R.Vint 59) ]

    let full_overrides =
      [ ("n", R.Vints [ 48; 96 ]); ("eps", R.Vints [ 50; 25; 10 ]); ("seed", R.Vint 59) ]

    let smoke = [ ("n", R.Vints [ 16 ]); ("eps", R.Vints [ 50 ]); ("seed", R.Vint 59) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
