(* The `simulate` endpoint: run a named sketching protocol on a generated
   graph and report its exact bit accounting.

   This is the served version of what the repo's experiments do in-process
   — the same engines, [Sketchmodel.Model] for one round and
   [Sketchmodel.Rounds] for every multi-round protocol (graph or
   hypergraph views), with the same generators and the same coins, so a
   response's [max_bits] and [total_bits] are {e exactly} the numbers an
   in-process run of the same (protocol, graph, seed) triple produces;
   [test_server] pins that.

   Derivations are fixed and documented in the mli: the graph generator is
   [Prng.split (Prng.create seed) 1], the coins are
   [Public_coins.create seed]. Everything downstream is deterministic, so
   simulate responses are cacheable like experiment runs. *)

module T = Report.Tabular
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds

type gspec =
  | Gnp of { n : int; p : float }
  | Path of int
  | Cycle of int
  | Complete of int
  | Star of int
  | Hyperk of { n : int; m : int; k : int }

type spec = { protocol : string; graph : gspec; seed : int }

let graph_rng seed = Stdx.Prng.split (Stdx.Prng.create seed) 1
let stream_rng seed = Stdx.Prng.split (Stdx.Prng.create seed) 2
let coins seed = Sketchmodel.Public_coins.create seed

let graph_of_spec { graph; seed; _ } =
  match graph with
  | Gnp { n; p } -> Dgraph.Gen.gnp (graph_rng seed) n p
  | Path n -> Dgraph.Gen.path n
  | Cycle n -> Dgraph.Gen.cycle n
  | Complete n -> Dgraph.Gen.complete n
  | Star n -> Dgraph.Gen.star n
  | Hyperk _ -> invalid_arg "Simulate.graph_of_spec: hyperk is not a graph"

(* Every gspec also names a hypergraph: [hyperk] directly (through the
   same derived generator as {!graph_of_spec} uses), the graph kinds via
   the 2-uniform embedding — so the hypergraph protocols run on every
   input the graph protocols do. *)
let hypergraph_of_spec ({ graph; seed; _ } as spec) =
  match graph with
  | Hyperk { n; m; k } -> Dgraph.Hgen.uniform_random (graph_rng seed) ~n ~m ~k
  | _ -> Dgraph.Hypergraph.of_graph (graph_of_spec spec)

let json_of_gspec = function
  | Gnp { n; p } -> T.Jobj [ ("kind", T.Jstr "gnp"); ("n", T.Jint n); ("p", T.Jfloat p) ]
  | Path n -> T.Jobj [ ("kind", T.Jstr "path"); ("n", T.Jint n) ]
  | Cycle n -> T.Jobj [ ("kind", T.Jstr "cycle"); ("n", T.Jint n) ]
  | Complete n -> T.Jobj [ ("kind", T.Jstr "complete"); ("n", T.Jint n) ]
  | Star n -> T.Jobj [ ("kind", T.Jstr "star"); ("n", T.Jint n) ]
  | Hyperk { n; m; k } ->
      T.Jobj [ ("kind", T.Jstr "hyperk"); ("n", T.Jint n); ("m", T.Jint m); ("k", T.Jint k) ]

(* The largest vertex count, and hyperedge count, a wire spec may ask
   for. The repository's own requests stay at n <= 2500. *)
let max_n = 4096
let max_hyperk_m = 65536

let gspec_of_json j =
  let int k = match T.member k j with Some (T.Jint i) -> Some i | _ -> None in
  let num k =
    match T.member k j with
    | Some (T.Jfloat f) -> Some f
    | Some (T.Jint i) -> Some (float_of_int i)
    | _ -> None
  in
  (* The least [n] each generator accepts; below it the spec is a 400
     naming the bound, never a generator's [Invalid_argument]. Above
     [max_n] (or [max_hyperk_m] hyperedges) it is a 400 too: one spec
     must not make the daemon build a graph that exhausts its memory. *)
  let at_most kind field hi v =
    if v <= hi then Ok v else Error (Printf.sprintf "graph kind %S needs %S <= %d" kind field hi)
  in
  let sized kind lo n =
    if n >= lo then at_most kind "n" max_n n
    else Error (Printf.sprintf "graph kind %S needs \"n\" >= %d" kind lo)
  in
  match (T.member "kind" j, int "n") with
  | Some (T.Jstr "gnp"), Some n ->
      Result.bind (sized "gnp" 0 n) (fun n ->
          match num "p" with
          | Some p when p >= 0. && p <= 1. -> Ok (Gnp { n; p })
          | _ -> Error "gnp needs a probability field \"p\" in [0,1]")
  | Some (T.Jstr "path"), Some n -> Result.map (fun n -> Path n) (sized "path" 0 n)
  | Some (T.Jstr "cycle"), Some n -> Result.map (fun n -> Cycle n) (sized "cycle" 3 n)
  | Some (T.Jstr "complete"), Some n -> Result.map (fun n -> Complete n) (sized "complete" 0 n)
  | Some (T.Jstr "star"), Some n -> Result.map (fun n -> Star n) (sized "star" 1 n)
  | Some (T.Jstr "hyperk"), Some n -> (
      match (int "m", int "k") with
      | Some m, Some k when n >= 0 && m >= 0 && k >= 2 && k <= n ->
          Result.bind (at_most "hyperk" "n" max_n n) (fun n ->
              Result.map (fun m -> Hyperk { n; m; k }) (at_most "hyperk" "m" max_hyperk_m m))
      | Some _, Some _ -> Error "hyperk needs 2 <= k <= n and m >= 0"
      | _ -> Error "hyperk needs integer fields \"m\" and \"k\"")
  | Some (T.Jstr k), None -> Error (Printf.sprintf "graph kind %S needs an integer field \"n\"" k)
  | Some (T.Jstr k), _ -> Error (Printf.sprintf "unknown graph kind %S" k)
  | _ -> Error "graph spec needs a string field \"kind\""

(* ------------------------------------------------------------------ *)
(* The protocol catalogue                                              *)

(* Which engine call computes a protocol, split by the input it needs.
   Both variants are private to this module and matched exhaustively in
   [run], so a constructor with no [run] arm (warning 8) or in no
   catalogue entry (warning 37) fails the build. *)
type graph_engine =
  | Trivial_mm
  | Trivial_mis
  | Local_minima
  | Two_round_mm
  | Two_round_mis
  | Frontier of int
  | Luby of Protocols.Luby.priority
  | Stream_matching

type hypergraph_engine =
  | Hyper_trivial_mm
  | Hyper_iterated_mm
  | Hyper_local_minima_mis
  | Hyper_luby_mis

type input = Graph of graph_engine | Hypergraph of hypergraph_engine
type protocol = { doc : string; input : input }

(* Static data: strings and constructors of constants only, so the
   compiler emits the whole list as one constant and module
   initialisation allocates nothing. *)
let protocols =
  [
    ( "trivial-mm",
      { doc = "full neighbourhoods, referee solves MM exactly (one round)";
        input = Graph Trivial_mm } );
    ( "trivial-mis",
      { doc = "full neighbourhoods, referee solves MIS exactly (one round)";
        input = Graph Trivial_mis } );
    ( "local-minima",
      { doc = "one-bit local-minima MIS attempt (one round; rarely maximal)";
        input = Graph Local_minima } );
    ( "two-round-mm",
      { doc = "Lattanzi-style filtering MM (two rounds, O~(sqrt n))";
        input = Graph Two_round_mm } );
    ( "two-round-mis",
      { doc = "random-prefix greedy MIS (two rounds, O~(sqrt n))";
        input = Graph Two_round_mis } );
    ( "hyper-trivial-mm",
      { doc = "full incident pin sets, referee solves hypergraph MM (one round)";
        input = Hypergraph Hyper_trivial_mm } );
    ( "hyper-iterated-mm",
      { doc = "proposal rounds to a maximal hypergraph matching (multi-round)";
        input = Hypergraph Hyper_iterated_mm } );
    ( "hyper-local-minima-mis",
      { doc = "one-bit hypergraph MIS attempt (one round; rarely maximal)";
        input = Hypergraph Hyper_local_minima_mis } );
    ( "hyper-luby-mis",
      { doc = "Luby-style hypergraph MIS (multi-round, always maximal)";
        input = Hypergraph Hyper_luby_mis } );
    ( "prefix-mis-r4",
      { doc = "r-round prefix-greedy MIS at r=4 (multipass frontier)";
        input = Graph (Frontier 4) } );
    ( "luby-mis-random",
      { doc = "Luby MIS, fresh public-coin priorities (2 bits/player/round)";
        input = Graph (Luby Protocols.Luby.Random) } );
    ( "luby-mis-degree",
      { doc = "Luby MIS, degree-biased priorities (degree prep round first)";
        input = Graph (Luby Protocols.Luby.Degree) } );
    ( "luby-mis-index",
      { doc = "Luby MIS, fixed index priorities (deterministic rounds)";
        input = Graph (Luby Protocols.Luby.Index) } );
    ( "stream-matching",
      { doc = "multi-pass semi-streaming (1+eps) matching at eps=1/4";
        input = Graph Stream_matching } );
  ]

(* Graph protocols need a graph-shaped input; the hypergraph protocols
   accept everything (graph kinds embed 2-uniformly). The service checks
   this before computing, so a mismatch is a 400, not a crash. *)
let compatible { input; _ } graph =
  match (input, graph) with Graph _, Hyperk _ -> false | _ -> true

let mm_output g m =
  let v = Dgraph.Matching.verify g m in
  T.Jobj
    [
      ("kind", T.Jstr "matching");
      ("size", T.Jint (Dgraph.Matching.size m));
      ("edges_exist", T.Jbool v.Dgraph.Matching.edges_exist);
      ("disjoint", T.Jbool v.Dgraph.Matching.disjoint);
      ("maximal", T.Jbool v.Dgraph.Matching.maximal);
    ]

let mis_output g s =
  let v = Dgraph.Mis.verify g s in
  T.Jobj
    [
      ("kind", T.Jstr "mis");
      ("size", T.Jint (List.length s));
      ("independent", T.Jbool v.Dgraph.Mis.independent);
      ("maximal", T.Jbool v.Dgraph.Mis.maximal);
    ]

let one_round_stats (s : Model.stats) =
  T.Jobj
    [
      ("rounds", T.Jint 1);
      ("players", T.Jint s.Model.players);
      ("max_bits", T.Jint s.Model.max_bits);
      ("total_bits", T.Jint s.Model.total_bits);
      ("avg_bits", T.Jfloat s.Model.avg_bits);
    ]

let jarr_of_ints a = T.Jarr (Array.to_list (Array.map (fun i -> T.Jint i) a))

(* Every multi-round protocol runs on [Rounds]; the response keeps one
   shape per family, each a projection of the same record. The hypergraph
   protocols report the cumulative figures, the r-round wing adds the
   per-round curves the round-frontier experiment plots, and the
   two-round protocols report their two round maxima. *)
let cumulative_fields (s : Rounds.stats) =
  [
    ("rounds", T.Jint s.Rounds.rounds);
    ("max_bits", T.Jint s.Rounds.max_bits);
    ("total_bits", T.Jint s.Rounds.total_bits);
    ("broadcast_bits", T.Jint s.Rounds.broadcast_bits);
  ]

let hyper_rounds_stats s = T.Jobj (cumulative_fields s)

let rounds_stats (s : Rounds.stats) =
  T.Jobj
    (cumulative_fields s
    @ [
        ("round_max", jarr_of_ints s.Rounds.round_max);
        ("round_total", jarr_of_ints s.Rounds.round_total);
        ("round_broadcast", jarr_of_ints s.Rounds.round_broadcast);
      ])

let two_round_stats (s : Rounds.stats) =
  T.Jobj
    [
      ("rounds", T.Jint s.Rounds.rounds);
      ("max_bits", T.Jint s.Rounds.max_bits);
      ("round1_max", T.Jint s.Rounds.round_max.(0));
      ("round2_max", T.Jint s.Rounds.round_max.(1));
      ("broadcast_bits", T.Jint s.Rounds.broadcast_bits);
      ("total_bits", T.Jint s.Rounds.total_bits);
    ]

(* Streaming passes are the cost axis, not rounds: report per-pass memory
   and matching growth alongside the peak. *)
let stream_stats (r : Streams.Stream_matching.result) =
  let passes = r.Streams.Stream_matching.passes in
  let per f = T.Jarr (List.map (fun p -> T.Jint (f p)) passes) in
  T.Jobj
    [
      ("passes", T.Jint (List.length passes));
      ("peak_memory_bits", T.Jint r.Streams.Stream_matching.peak_memory_bits);
      ("converged", T.Jbool r.Streams.Stream_matching.converged);
      ("pass_memory_bits", per (fun p -> p.Streams.Stream_matching.memory_bits));
      ("pass_matching", per (fun p -> p.Streams.Stream_matching.matching_size));
      ("pass_augmented", per (fun p -> p.Streams.Stream_matching.augmented));
    ]

(* A hypergraph matching arrives as pin sets (players cannot name frozen
   edge ids); map them back through [find_edge] for the id-based
   verdicts. An unmappable pin set is a fabricated edge. *)
let hyper_mm_output h pin_sets =
  let ids = List.map (fun pins -> Dgraph.Hypergraph.find_edge h pins) pin_sets in
  let all_exist = List.for_all Option.is_some ids in
  let known = List.filter_map Fun.id ids in
  let v = Dgraph.Hmatching.verify h known in
  T.Jobj
    [
      ("kind", T.Jstr "hyper-matching");
      ("size", T.Jint (List.length pin_sets));
      ("edges_exist", T.Jbool (all_exist && v.Dgraph.Hmatching.edges_exist));
      ("disjoint", T.Jbool v.Dgraph.Hmatching.disjoint);
      ("maximal", T.Jbool (all_exist && v.Dgraph.Hmatching.maximal));
    ]

let hyper_mis_output h s =
  let v = Dgraph.Hmis.verify h s in
  T.Jobj
    [
      ("kind", T.Jstr "hyper-mis");
      ("size", T.Jint (List.length s));
      ("independent", T.Jbool v.Dgraph.Hmis.independent);
      ("maximal", T.Jbool v.Dgraph.Hmis.maximal);
    ]

let run spec =
  let coins = coins spec.seed in
  let vertices, edges, output, stats =
    match (List.assoc spec.protocol protocols).input with
    | Graph engine ->
        (* Raises [Invalid_argument] on a [Hyperk] spec: the pair is not
           {!compatible}. *)
        let g = graph_of_spec spec in
        let output, stats =
          match engine with
          | Trivial_mm ->
              let m, s = Model.run Protocols.Trivial.mm g coins in
              (mm_output g m, one_round_stats s)
          | Trivial_mis ->
              let mis, s = Model.run Protocols.Trivial.mis g coins in
              (mis_output g mis, one_round_stats s)
          | Local_minima ->
              let mis, s = Model.run Protocols.One_round_mis.local_minima g coins in
              (mis_output g mis, one_round_stats s)
          | Two_round_mm ->
              let m, s = Protocols.Two_round_mm.run g coins in
              (mm_output g m, two_round_stats s)
          | Two_round_mis ->
              let mis, s = Protocols.Two_round_mis.run g coins in
              (mis_output g mis, two_round_stats s)
          | Frontier rounds ->
              let mis, s = Protocols.Frontier.run ~rounds g coins in
              (mis_output g mis, rounds_stats s)
          | Luby priority ->
              let mis, s = Protocols.Luby.run priority g coins in
              (mis_output g mis, rounds_stats s)
          | Stream_matching ->
              let stream = Streams.Stream.shuffled (stream_rng spec.seed) g in
              let res = Streams.Stream_matching.run ~eps:0.25 stream in
              (mm_output g res.Streams.Stream_matching.matching, stream_stats res)
        in
        (Dgraph.Graph.n g, Dgraph.Graph.m g, output, stats)
    | Hypergraph engine ->
        let h = hypergraph_of_spec spec in
        let output, stats =
          match engine with
          | Hyper_trivial_mm ->
              let m, s = Protocols.Hyper_mm.run_trivial h coins in
              (hyper_mm_output h m, one_round_stats s)
          | Hyper_iterated_mm ->
              let m, s = Protocols.Hyper_mm.run_iterated h coins in
              (hyper_mm_output h m, hyper_rounds_stats s)
          | Hyper_local_minima_mis ->
              let mis, s = Protocols.Hyper_mis.run_local_minima h coins in
              (hyper_mis_output h mis, one_round_stats s)
          | Hyper_luby_mis ->
              let mis, s = Protocols.Hyper_mis.run_luby h coins in
              (hyper_mis_output h mis, hyper_rounds_stats s)
        in
        (Dgraph.Hypergraph.n h, Dgraph.Hypergraph.m h, output, stats)
  in
  [
    ("protocol", T.Jstr spec.protocol);
    ("graph", json_of_gspec spec.graph);
    ("seed", T.Jint spec.seed);
    ("vertices", T.Jint vertices);
    ("edges", T.Jint edges);
    ("output", output);
    ("stats", stats);
  ]
