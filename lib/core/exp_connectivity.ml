(* T11: k-forest edge-connectivity certificates and bipartiteness from
   sketches, over a fixed workload suite (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins

type row = {
  workload : string;
  k_cert : int;
  cert_valid : bool;
  estimate : int;
  truth : int;
  bipartite_sketch : bool;
  bipartite_truth : bool;
  conn_bits : int;
}

let compute ~seed =
  let rng = Stdx.Prng.create (Stdx.Hashing.mix64 seed) in
  let coins = Public_coins.create (Stdx.Hashing.mix64 (seed + 1)) in
  let workloads =
    [
      ("cycle(16)", Dgraph.Gen.cycle 16, 3);
      ("complete(9)", Dgraph.Gen.complete 9, 4);
      ("path(12)", Dgraph.Gen.path 12, 2);
      ("gnp(48,.25)", Dgraph.Gen.gnp rng 48 0.25, 4);
      ("bipartite(14,12)", Dgraph.Gen.random_bipartite rng ~left:14 ~right:12 ~p:0.5, 3);
      ("2 components", Graph.disjoint_union (Dgraph.Gen.cycle 6) (Dgraph.Gen.complete 5), 2);
    ]
  in
  List.map
    (fun (workload, g, k) ->
      let cert, stats = Agm.Connectivity.k_forests g ~k coins in
      let bip, _ = Agm.Connectivity.is_bipartite_via_sketches g coins in
      {
        workload;
        k_cert = k;
        cert_valid = Agm.Connectivity.certificate_valid g ~k cert;
        estimate = Agm.Connectivity.edge_connectivity_estimate cert ~k;
        truth = (let c = Dgraph.Mincut.min_cut g in if c = max_int then 0 else min k c);
        bipartite_sketch = bip;
        bipartite_truth = Agm.Connectivity.is_bipartite_exact g;
        conn_bits = stats.Rounds.max_bits;
      })
    workloads

let schema =
  [
    T.str_col ~width:18 ~left:true "workload";
    T.int_col ~width:4 ~header:"k" "k_cert";
    T.bool_col ~width:7 ~header:"valid" "cert_valid";
    T.int_col ~width:5 ~header:"est" "estimate";
    T.int_col ~width:6 ~header:"truth" "truth";
    T.bool_col ~width:11 ~header:"bip-sketch" "bipartite_sketch";
    T.bool_col ~width:10 ~header:"bip-truth" "bipartite_truth";
    T.int_col ~width:10 ~header:"bits" "conn_bits";
  ]

let to_row r =
  T.
    [
      Str r.workload;
      Int r.k_cert;
      Bool r.cert_valid;
      Int r.estimate;
      Int r.truth;
      Bool r.bipartite_sketch;
      Bool r.bipartite_truth;
      Int r.conn_bits;
    ]

let preamble =
  [ ""; "T11. Edge connectivity (k-forest certificate) and bipartiteness from sketches" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "connectivity"
    let title = "T11"
    let doc = "T11: k-forest edge-connectivity and bipartiteness sketches."

    let params = R.std_params []
    let schema = schema
    let to_row = to_row
    let run ps = compute ~seed:(R.seed ps)
    let preamble _ _ = preamble
    let footer _ = []
    let fast_overrides = [ ("seed", R.Vint 43) ]
    let full_overrides = [ ("seed", R.Vint 43) ]
    let smoke = [ ("seed", R.Vint 43) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
