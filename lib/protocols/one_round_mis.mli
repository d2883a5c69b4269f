(** One-round MIS attempts — the protocols the lower bound says cannot
    work.

    {b Local-minima (one-shot Luby).} Public coins assign every vertex a
    priority; a vertex can evaluate its neighbours' priorities locally (a
    priority is a function of coins and id), so one bit — "I am a local
    minimum" — lets the referee output an independent set. It is
    {e always} independent but essentially never maximal: the expected
    fraction of undominated vertices is constant on sparse graphs. This is
    the natural one-round attempt whose failure rate the T12 experiment
    measures against Theorem 2.

    {b Budgeted neighbourhoods.} Every vertex ships a [b]-bit prefix of
    its neighbour list; the referee runs greedy over what it can see. The
    MIS analogue of {!Sampled_mm} — and errs on the {e independence} side
    (unreported edges can join two chosen vertices), the other error mode
    of the paper's Section 2.1. *)

val local_minima : Dgraph.Mis.t Sketchmodel.Model.protocol
(** One bit per player; output independent, rarely maximal. *)

val undominated_fraction :
  Dgraph.Graph.t -> Sketchmodel.Public_coins.t -> float * Sketchmodel.Rounds.stats
(** Run {!local_minima}; return the fraction of vertices that are neither
    in the output nor adjacent to it (0 would mean maximal). *)

val budgeted : budget_bits:int -> Dgraph.Mis.t Sketchmodel.Model.protocol
(** Greedy MIS over reported adjacency prefixes. *)
