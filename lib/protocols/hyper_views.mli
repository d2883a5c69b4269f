(** The distributed sketching model over hypergraphs.

    One player per vertex, as in {!Sketchmodel.Model}; a player's whole
    input is the vertex/edge counts, its own id, and the full pin set of
    every incident hyperedge (for 2-uniform hypergraphs this is the
    graph view). The engine is the graph one, run on these views: a
    one-round protocol is a [(view, 'a) Sketchmodel.Model.protocol_over]
    run by {!Sketchmodel.Rounds.run_views} after {!Sketchmodel.Rounds.one_round},
    a multi-round one a [(view, 'b, 'a) Sketchmodel.Rounds.protocol_over]
    run by {!iterate}. *)

type view = {
  n : int;  (** number of vertices *)
  m : int;  (** number of hyperedges *)
  vertex : int;  (** this player's id *)
  edges : int array array;  (** sorted pins of each incident hyperedge, ascending edge id *)
}
(** Everything a player is allowed to see. *)

val views : Dgraph.Hypergraph.t -> view array
(** The honest per-vertex views. *)

val iterate :
  (view, 'b, 'b) Sketchmodel.Rounds.protocol_over ->
  Dgraph.Hypergraph.t ->
  Sketchmodel.Public_coins.t ->
  'b * Sketchmodel.Rounds.stats
(** {!Sketchmodel.Rounds.run_views} on the honest views, for the
    iterated hypergraph protocols, whose output is their final broadcast
    state. That final state is broadcast too — every player learns the
    finished matching or independent set — so its encoded size is
    charged to the last round, where the engine's [Finish] charges
    nothing. *)
