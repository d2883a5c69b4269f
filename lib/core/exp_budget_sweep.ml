(* F4: success of budget-limited protocols on D_MM as a function of the
   per-player bit budget (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Rs = Rsgraph.Rs_graph
module Params = Rsgraph.Params

type sweep_row = {
  budget_bits : int;
  strategy : string;
  special_recovered : float;
  relaxed_success : float;
  maximal_success : float;
}

type sweep = {
  m : int;
  k : int;
  r : int;
  n : int;
  predicted_bits : float;
  oracle_success : float;
  oracle_bits : int;
  rows : sweep_row list;
}

(* The registry view flattens the shared instance context into every
   per-budget row so that CSV/JSON output is self-contained. *)
type row = { ctx : sweep; line : sweep_row }

let edge_table edges =
  let t = Hashtbl.create (List.length edges) in
  List.iter (fun (u, v) -> Hashtbl.replace t (Graph.normalize_edge u v) ()) edges;
  t

let relaxed_ok = Remarks.meets_remark_iv

(* Players handed sigma and j-star by an oracle: each unique vertex reports just
   its surviving hidden-matching edge.  Shows the hardness is exactly the
   secrecy of sigma and j-star, not volume of data. *)
let oracle_protocol dmm =
  let special = Hard_dist.surviving_special dmm in
  let partner = Hashtbl.create 64 in
  List.iter
    (fun (_, (u, v)) ->
      Hashtbl.replace partner u v;
      Hashtbl.replace partner v u)
    special;
  {
    Model.name = "oracle-mm";
    player =
      (fun view _coins ->
        let w = Stdx.Bitbuf.Writer.create () in
        (match Hashtbl.find_opt partner view.Model.vertex with
        | Some p when p > view.Model.vertex -> Stdx.Bitbuf.Writer.uvarint w p
        | Some _ | None -> ());
        w);
    referee =
      (fun ~n ~sketches _coins ->
        ignore n;
        let out = ref [] in
        Array.iteri
          (fun v r ->
            if Stdx.Bitbuf.Reader.remaining_bits r >= 8 then
              out := Graph.normalize_edge v (Stdx.Bitbuf.Reader.uvarint r) :: !out)
          sketches;
        !out);
  }

let compute ?jobs ~m ?k ~budgets ~trials ~seed () =
  let rs = Rs.bipartite m in
  let k = Option.value ~default:rs.Rs.t_count k in
  (* Same per-trial scheme as claim31: instance [i] is a pure function of
     [(seed, m, i)], so both sampling and evaluation shard across domains. *)
  let root = Stdx.Prng.create (Stdx.Hashing.mix64 ((seed * 31) + m)) in
  let instances =
    Stdx.Parallel.init ?jobs trials (fun i ->
        let rng = Stdx.Prng.split root i in
        (Hard_dist.sample rs ~k rng, Public_coins.create (Stdx.Hashing.mix64 (seed + (1000 * i)))))
  in
  let first = fst instances.(0) in
  let eval_protocol make_protocol =
    let per_instance =
      Stdx.Parallel.map ?jobs
        (fun (dmm, coins) ->
          let g = dmm.Hard_dist.graph in
          let output, _ = Rounds.run (Rounds.one_round (make_protocol dmm)) g coins in
          let special = List.map snd (Hard_dist.surviving_special dmm) in
          let out_set = edge_table output in
          let hit = List.length (List.filter (fun e -> Hashtbl.mem out_set e) special) in
          ( float_of_int hit /. float_of_int (max 1 (List.length special)),
            relaxed_ok dmm output,
            Dgraph.Matching.is_maximal dmm.Hard_dist.graph output ))
        instances
    in
    (* Accumulate sequentially in index order: float addition is not
       associative, and the printed tables must not depend on job count. *)
    let recovered = ref 0. and relaxed = ref 0 and maximal = ref 0 in
    Array.iter
      (fun (frac, ok_relaxed, ok_maximal) ->
        recovered := !recovered +. frac;
        if ok_relaxed then incr relaxed;
        if ok_maximal then incr maximal)
      per_instance;
    let tf = float_of_int trials in
    (!recovered /. tf, float_of_int !relaxed /. tf, float_of_int !maximal /. tf)
  in
  let rows =
    List.concat_map
      (fun budget ->
        List.map
          (fun strategy ->
            let rec_frac, relax, maxi =
              eval_protocol (fun _dmm ->
                  Protocols.Sampled_mm.protocol ~budget_bits:budget ~strategy)
            in
            {
              budget_bits = budget;
              strategy = Protocols.Sampled_mm.strategy_name strategy;
              special_recovered = rec_frac;
              relaxed_success = relax;
              maximal_success = maxi;
            })
          Protocols.Sampled_mm.all_strategies)
      budgets
  in
  let oracle_bits = ref 0 in
  let oracle_success =
    let per_instance =
      Stdx.Parallel.map ?jobs
        (fun (dmm, coins) ->
          let g = dmm.Hard_dist.graph in
          let output, stats = Rounds.run (Rounds.one_round (oracle_protocol dmm)) g coins in
          (stats.Rounds.max_bits, relaxed_ok dmm output))
        instances
    in
    let hits = ref 0 in
    Array.iter
      (fun (bits, ok) ->
        oracle_bits := max !oracle_bits bits;
        if ok then incr hits)
      per_instance;
    float_of_int !hits /. float_of_int trials
  in
  let bound = Params.bound_of_rs rs ~k in
  {
    m;
    k;
    r = Hard_dist.r first;
    n = first.Hard_dist.n;
    predicted_bits = bound.Params.bits_lower_bound;
    oracle_success;
    oracle_bits = !oracle_bits;
    rows;
  }

let schema =
  [
    T.int_col ~width:10 ~header:"bits" "budget_bits";
    T.str_col ~width:15 "strategy";
    T.float_col ~width:10 ~digits:3 ~header:"recovered" "special_recovered";
    T.float_col ~width:9 ~digits:2 ~header:"relaxed" "relaxed_success";
    T.float_col ~width:9 ~digits:2 ~header:"maximal" "maximal_success";
    (* Shared instance context, machine formats only. *)
    T.int_col ~width:1 ~text:false "m";
    T.int_col ~width:1 ~text:false "k";
    T.int_col ~width:1 ~text:false "r";
    T.int_col ~width:1 ~text:false "n";
    T.float_col ~width:1 ~digits:2 ~text:false "predicted_bits";
    T.float_col ~width:1 ~digits:2 ~text:false "oracle_success";
    T.int_col ~width:1 ~text:false "oracle_bits";
  ]

let to_row { ctx; line } =
  T.
    [
      Int line.budget_bits;
      Str line.strategy;
      Float line.special_recovered;
      Float line.relaxed_success;
      Float line.maximal_success;
      Int ctx.m;
      Int ctx.k;
      Int ctx.r;
      Int ctx.n;
      Float ctx.predicted_bits;
      Float ctx.oracle_success;
      Int ctx.oracle_bits;
    ]

let preamble_of ctx =
  [
    "";
    Printf.sprintf "F4. Theorem 1 shape — budget-limited protocols on D_MM (m=%d, k=%d, r=%d, n=%d)"
      ctx.m ctx.k ctx.r ctx.n;
    Printf.sprintf "    information-theoretic per-player bound at these parameters: %.2f bits"
      ctx.predicted_bits;
    Printf.sprintf
      "    oracle players (handed sigma, j*): relaxed success %.2f with only %d bits/player"
      ctx.oracle_success ctx.oracle_bits;
  ]

let rows_of_sweep ctx = List.map (fun line -> { ctx; line }) ctx.rows

let experiment : R.experiment =
  (module struct
    type nonrec row = row

    let id = "budget-sweep"
    let title = "F4"
    let doc = "F4: success of budget-b protocols on D_MM vs b."

    let params =
      R.std_params
        [
          R.int_param "m" ~doc:"RS parameter m." 25;
          R.int_param "k" ~doc:"Copies k (0 = t, the paper's choice)." 0;
          R.ints_param "budgets" ~doc:"Per-player budgets in bits."
            [ 8; 16; 32; 64; 128; 256; 512; 1024 ];
          R.int_param "trials" ~doc:"Trials per configuration." 10;
        ]

    let schema = schema
    let to_row = to_row

    let run ps =
      let k = match R.int_value ps "k" with k when k <= 0 -> None | k -> Some k in
      rows_of_sweep
        (compute ?jobs:(R.jobs ps) ~m:(R.int_value ps "m") ?k
           ~budgets:(R.ints_value ps "budgets") ~trials:(R.int_value ps "trials")
           ~seed:(R.seed ps) ())

    let preamble _ rows = match rows with [] -> [] | { ctx; _ } :: _ -> preamble_of ctx
    let footer _ = []

    let fast_overrides =
      [ ("budgets", R.Vints [ 8; 64; 512 ]); ("trials", R.Vint 3); ("seed", R.Vint 11) ]

    let full_overrides =
      [
        ("budgets", R.Vints [ 8; 16; 32; 64; 128; 256; 512; 1024 ]);
        ("trials", R.Vint 10);
        ("seed", R.Vint 11);
      ]

    let smoke = [ ("m", R.Vint 4); ("budgets", R.Vints [ 8 ]); ("trials", R.Vint 2) ]
  end)

let table_of sweep =
  T.table ~preamble:(preamble_of sweep) schema (List.map to_row (rows_of_sweep sweep))
