(* T15: hypergraph MM/MIS through the sketching model — the k-uniform
   generalisation served end-to-end (DESIGN.md §11).

   For each arity k, a random k-uniform hypergraph goes through three
   protocols with exact bit accounting: the trivial one-round MM (ship
   every incident pin set), the iterated proposal MM (multi-round, one
   broadcast per round) and the Luby-style multi-round MIS. The verdict
   columns are referee-blind checks by [Hmatching]/[Hmis]; at k = 2 the
   numbers coincide with the ordinary graph protocols. *)

module T = Report.Tabular
module R = Exp_registry
module Public_coins = Sketchmodel.Public_coins
module H = Dgraph.Hypergraph

type row = {
  k : int;
  hm : int;
  triv_bits : int;
  triv_ok : bool;
  msize : int;
  it_rounds : int;
  it_bits : int;
  it_bcast : int;
  it_ok : bool;
  luby_rounds : int;
  luby_bits : int;
  luby_ok : bool;
}

(* Pin sets back to frozen edge ids; a maximal matching of real edges is
   the only acceptable outcome for both MM protocols. *)
let matching_ok h pin_sets =
  let ids = List.map (fun pins -> H.find_edge h pins) pin_sets in
  List.for_all Option.is_some ids
  && Dgraph.Hmatching.is_maximal h (List.filter_map Fun.id ids)

let compute ~n ~m ~ks ~seed =
  List.map
    (fun k ->
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (k * 7919))) in
      let h = Dgraph.Hgen.uniform_random rng ~n ~m ~k in
      let coins = Public_coins.create (Stdx.Hashing.mix64 ((seed * 31) + k)) in
      let triv, triv_stats = Protocols.Hyper_mm.run_trivial h coins in
      let it, it_stats = Protocols.Hyper_mm.run_iterated h coins in
      let mis, mis_stats = Protocols.Hyper_mis.run_luby h coins in
      let mis_verdict = Dgraph.Hmis.verify h mis in
      {
        k;
        hm = H.m h;
        triv_bits = triv_stats.Sketchmodel.Rounds.max_bits;
        triv_ok = matching_ok h triv;
        msize = List.length it;
        it_rounds = it_stats.Sketchmodel.Rounds.rounds;
        it_bits = it_stats.Sketchmodel.Rounds.max_bits;
        it_bcast = it_stats.Sketchmodel.Rounds.broadcast_bits;
        it_ok = matching_ok h it;
        luby_rounds = mis_stats.Sketchmodel.Rounds.rounds;
        luby_bits = mis_stats.Sketchmodel.Rounds.max_bits;
        luby_ok = mis_verdict.Dgraph.Hmis.independent && mis_verdict.Dgraph.Hmis.maximal;
      })
    ks

let schema =
  [
    T.int_col ~width:4 "k";
    T.int_col ~width:5 ~header:"m" "hm";
    T.int_col ~width:9 ~header:"triv bits" "triv_bits";
    T.bool_col ~width:8 ~header:"triv ok" "triv_ok";
    T.int_col ~width:6 ~header:"|M|" "msize";
    T.int_col ~width:7 ~header:"it rds" "it_rounds";
    T.int_col ~width:8 ~header:"it bits" "it_bits";
    T.int_col ~width:8 ~header:"bcast" "it_bcast";
    T.bool_col ~width:7 ~header:"it ok" "it_ok";
    T.int_col ~width:8 ~header:"mis rds" "luby_rounds";
    T.int_col ~width:9 ~header:"mis bits" "luby_bits";
    T.bool_col ~width:7 ~header:"mis ok" "luby_ok";
  ]

let to_row r =
  T.
    [
      Int r.k;
      Int r.hm;
      Int r.triv_bits;
      Bool r.triv_ok;
      Int r.msize;
      Int r.it_rounds;
      Int r.it_bits;
      Int r.it_bcast;
      Bool r.it_ok;
      Int r.luby_rounds;
      Int r.luby_bits;
      Bool r.luby_ok;
    ]

let preamble =
  [ ""; "T15. Hypergraph MM/MIS: trivial one-round vs iterated proposals vs Luby rounds" ]

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "hypergraph-mm"
    let title = "T15"
    let doc = "T15: hypergraph MM/MIS protocols over the k-uniform workload."

    let params =
      R.std_params
        [
          R.int_param "n" ~doc:"Vertices." 60;
          R.int_param "m" ~doc:"Sampled hyperedges (before dedup)." 40;
          R.ints_param "k" ~doc:"Hyperedge arities." [ 2; 3; 4 ];
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      compute ~n:(R.int_value ps "n") ~m:(R.int_value ps "m") ~ks:(R.ints_value ps "k")
        ~seed:(R.seed ps)

    let preamble _ _ = preamble
    let footer _ = []
    let fast_overrides = [ ("k", R.Vints [ 3 ]); ("seed", R.Vint 71) ]
    let full_overrides = [ ("k", R.Vints [ 2; 3; 4 ]); ("seed", R.Vint 71) ]
    let smoke = [ ("n", R.Vint 12); ("m", R.Vint 8); ("k", R.Vints [ 3 ]); ("seed", R.Vint 71) ]
  end)

let table_of rows = T.table ~preamble schema (List.map to_row rows)
