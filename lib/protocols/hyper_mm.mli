(** Hypergraph maximal-matching protocols over {!Hyper_views}.

    {b Trivial.} Every vertex ships the full pin set of every incident
    hyperedge; the referee reconstructs the hypergraph and runs greedy.
    Always maximal, with per-player cost proportional to the incident
    pin mass — the hypergraph analogue of the trivial graph protocol the
    lower bound is measured against.

    {b Iterated (multi-round).} Each round, every still-uncovered vertex
    proposes its best fully-uncovered incident hyperedge (best = lowest
    public-coin priority, ties by lexicographic pins — players and
    referee derive edge priorities from pin sets, never from frozen edge
    ids, which no player can see). The referee commits disjoint
    proposals greedily in that same order and broadcasts the covered
    set. When no vertex proposes, every hyperedge meets a covered
    vertex, so the chosen set is a maximal matching. Terminates in at
    most [n/2 + 1] rounds (every non-final round commits at least one
    edge). *)

val trivial : (Hyper_views.view, int array list) Sketchmodel.Model.protocol_over
(** One round; output is the matching as a list of pin sets. *)

(** Broadcast state of {!iterated}: players may only read [covered]
    (the pin-covered vertices); [chosen] rides along for the referee
    and is not part of the encoded broadcast. *)
type state = { covered : bool array; chosen : int array list }

val iterated : n:int -> (Hyper_views.view, state, state) Sketchmodel.Rounds.protocol_over
(** The multi-round proposal protocol for an [n]-vertex hypergraph; its
    output is the final state. *)

val run_trivial :
  Dgraph.Hypergraph.t ->
  Sketchmodel.Public_coins.t ->
  int array list * Sketchmodel.Rounds.stats
(** {!Sketchmodel.Rounds.run_views} of {!trivial} on the honest views. *)

val run_iterated :
  Dgraph.Hypergraph.t ->
  Sketchmodel.Public_coins.t ->
  int array list * Sketchmodel.Rounds.stats
(** Run {!iterated} to termination through {!Hyper_views.iterate};
    returns the maximal matching as pin sets in commit order, plus the
    multi-round bit accounting. *)
