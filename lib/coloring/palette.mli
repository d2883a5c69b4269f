(** (Δ+1)-coloring by palette sparsification [Assadi–Chen–Khanna, SODA'19]
    — the polylog-sketch symmetry-breaking result the paper's Result 1 is
    contrasted against.

    With public coins, every vertex [v] draws a list [L(v)] of
    [O(log n)] colors from [\[Δ+1\]]. ACK19 shows the graph is
    [L]-list-colorable w.h.p., and the only information the referee is
    missing is the {e conflict graph}: the edges [(u, v)] with
    [L(u) ∩ L(v) ≠ ∅]. Since lists are public, each endpoint recognises
    its conflicting neighbours locally and reports them — an expected
    [O(log² n)] ids per vertex.

    [Δ] is a promise parameter (every player must know it); this matches
    the standard presentation of the sketch. *)

type outcome = {
  coloring : int array option;  (** [None] when list-coloring failed *)
  conflict_edges : int;
}

val protocol :
  n:int -> delta:int -> list_size:int -> restarts:int -> outcome Sketchmodel.Model.protocol

val run :
  Dgraph.Graph.t ->
  ?list_size:int ->
  ?restarts:int ->
  Sketchmodel.Public_coins.t ->
  outcome * Sketchmodel.Rounds.stats
(** Computes [Δ] from the graph (the promise), runs the one-round protocol,
    and returns the referee's outcome. Default [list_size] is
    [⌈4·ln(n+1)⌉ + 4], default [restarts] 10. *)

val is_proper : Dgraph.Graph.t -> int array -> bool
val max_color : int array -> int
