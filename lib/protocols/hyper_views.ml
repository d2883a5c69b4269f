(* The distributed sketching model over hypergraphs.

   One player per vertex; a player sees the vertex/edge counts, its own
   id, and the full pin set of every incident hyperedge — the hypergraph
   analogue of [Model.view]'s sorted neighbour list (for 2-uniform
   hypergraphs the two views carry the same information). Protocols run
   on the graph engine, [Rounds.run_views]. *)

module Hypergraph = Dgraph.Hypergraph
module Rounds = Sketchmodel.Rounds

type view = { n : int; m : int; vertex : int; edges : int array array }

let views h =
  Array.init (Hypergraph.n h) (fun v ->
      {
        n = Hypergraph.n h;
        m = Hypergraph.m h;
        vertex = v;
        edges =
          Array.map (fun e -> Hypergraph.pins h e) (Hypergraph.incident h v);
      })

(* The iterated hypergraph protocols announce their final state to the
   players as well, so unlike a graph protocol's [Finish] it is charged:
   the hypergraph-mm table and the served hyper stats count one broadcast
   per round, the last included. *)
let iterate protocol h coins =
  let final, stats = Rounds.run_views protocol ~n:(Hypergraph.n h) (views h) coins in
  let last = Stdx.Bitbuf.Writer.length_bits (protocol.Rounds.encode_broadcast final) in
  let round_broadcast = Array.copy stats.Rounds.round_broadcast in
  round_broadcast.(stats.Rounds.rounds - 1) <- last;
  (final, { stats with broadcast_bits = stats.Rounds.broadcast_bits + last; round_broadcast })
