(** The [simulate] endpoint: run a named sketching protocol on a generated
    graph and report its exact per-player bit accounting.

    Determinism contract (what makes simulate responses cacheable and
    testable): for a [spec] with seed [s], the graph generator is
    [Stdx.Prng.split (Stdx.Prng.create s) 1] and the public coins are
    [Sketchmodel.Public_coins.create s]. An in-process run of the same
    protocol over {!graph_of_spec} (or {!hypergraph_of_spec}) with
    {!coins} — [Sketchmodel.Model] for one round, [Sketchmodel.Rounds]
    for more — produces {e exactly} the [max_bits] / [total_bits] the
    response reports. *)

module T = Report.Tabular

(** A generated input, named as on the wire ([{"kind":"gnp",...}]).
    [Hyperk] is a random [k]-uniform hypergraph; the graph kinds double
    as hypergraph inputs through the 2-uniform embedding. *)
type gspec =
  | Gnp of { n : int; p : float }
  | Path of int
  | Cycle of int
  | Complete of int
  | Star of int
  | Hyperk of { n : int; m : int; k : int }

type spec = { protocol : string; graph : gspec; seed : int }
(** One simulation request: which protocol, on which graph, which seed. *)

val graph_rng : int -> Stdx.Prng.t
(** The generator a seed derives for graph construction. *)

val stream_rng : int -> Stdx.Prng.t
(** The generator a seed derives for edge-stream order
    ([Stdx.Prng.split (Stdx.Prng.create seed) 2]): what the
    [stream-matching] protocol shuffles the input's edges with. *)

val coins : int -> Sketchmodel.Public_coins.t
(** The public coins a seed derives for the protocol run. *)

val graph_of_spec : spec -> Dgraph.Graph.t
(** Build the input graph from [spec.graph] using {!graph_rng}[ spec.seed].
    Raises [Invalid_argument] on [Hyperk] (not a graph). *)

val hypergraph_of_spec : spec -> Dgraph.Hypergraph.t
(** Build the input hypergraph: [Hyperk] through
    [Dgraph.Hgen.uniform_random] over {!graph_rng}[ spec.seed], every
    graph kind through [Dgraph.Hypergraph.of_graph] of
    {!graph_of_spec}. *)

val json_of_gspec : gspec -> T.json
(** Wire encoding of a graph spec (canonical field order). *)

val gspec_of_json : T.json -> (gspec, string) result
(** Parse a wire graph spec; [Error] carries a human-readable reason.
    Every [Ok] spec builds: [n] must be at least 0 for [gnp], [path] and
    [complete], 3 for [cycle] and 1 for [star], and at most 4096 for
    every kind ([hyperk] included), else the reason names ["n"] and its
    bound. A [hyperk] spec also needs [m <= 65536] (the reason names
    ["m"]). *)

type graph_engine
(** Which engine call computes a graph protocol (private). *)

type hypergraph_engine
(** Which engine call computes a hypergraph protocol (private). *)

(** The input a protocol runs on, and the engine call that computes it. *)
type input = Graph of graph_engine | Hypergraph of hypergraph_engine

type protocol = { doc : string; input : input }
(** One catalogue entry: its one-line description (what [list] serves)
    and its input. *)

val protocols : (string * protocol) list
(** The catalogue, [(id, protocol)] for every runnable protocol, in
    [list] order: [trivial-mm], [trivial-mis], [local-minima],
    [two-round-mm], [two-round-mis], the hypergraph protocols
    [hyper-trivial-mm], [hyper-iterated-mm], [hyper-local-minima-mis],
    [hyper-luby-mis], and the multi-round wing [prefix-mis-r4],
    [luby-mis-random], [luby-mis-degree], [luby-mis-index],
    [stream-matching] (PROTOCOL.md §4.5). Static data: building it
    allocates nothing. *)

val compatible : protocol -> gspec -> bool
(** Whether the protocol can run on the input: a [Graph] protocol needs
    a graph kind, a [Hypergraph] protocol accepts every kind. The service
    layer rejects incompatible pairs as a 400 before computing. *)

val run : spec -> (string * T.json) list
(** Execute the simulation; the response body's fields ([protocol], [graph],
    [seed], [vertices], [edges], [output], [stats]). Raises [Not_found]
    on a protocol name not in {!protocols} and [Invalid_argument] on an
    incompatible (protocol, input) pair — the service layer validates
    first via {!protocols} and {!compatible}. *)
