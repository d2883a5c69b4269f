(** Two-round MIS by random-prefix greedy [Ghaffari et al., PODC'18 style]
    — the adaptive [Õ(√n)] MIS upper bound cited in Section 1.1.

    A public-coin random permutation [π] is shared for free. Round 1:
    every vertex reports its neighbours among the first [⌈c·√n⌉] vertices
    of [π] (the prefix [P]); the referee runs greedy MIS over [P] in
    [π]-order, learns exactly which vertices are dominated, and broadcasts
    the partial MIS and the decided bitmap. Round 2: undecided vertices
    report their undecided neighbours (w.h.p. [Õ(√n)] of them, by the
    residual-sparsification property of random-order greedy); the referee
    finishes greedily on the fully-known residual graph.

    The output is {e always} a maximal independent set. *)

type broadcast = { decided : bool array; i1 : Dgraph.Mis.t }

val protocol :
  ?prefix_factor:float -> n:int -> unit -> (broadcast, Dgraph.Mis.t) Sketchmodel.Rounds.protocol
(** The prefix protocol on the r-round engine with [max_rounds = 2]
    (round 1 sees the empty initial state: nothing decided).
    [prefix_factor] scales the prefix size [⌈prefix_factor·√n⌉]
    (default 1.0). *)

val run :
  ?prefix_factor:float ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Mis.t * Sketchmodel.Rounds.stats
