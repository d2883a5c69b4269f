(** Two-round maximal matching by filtering [Lattanzi et al., SPAA'11] —
    the adaptive [Õ(√n)] upper bound the paper cites (Section 1.1) right
    above its one-round lower bound.

    Round 1: every vertex samples up to [cap ≈ c·√n] incident edges; the
    referee computes a greedy matching [M₁] on the sampled graph and
    broadcasts the matched-vertex bitmap. Round 2: every unmatched vertex
    reports its unmatched neighbours; the referee extends [M₁] greedily.
    The output is {e always} a maximal matching; the filtering argument
    keeps round-2 messages small w.h.p., which the harness measures. *)

type broadcast = { matched : bool array; m1 : Dgraph.Matching.t }

val protocol :
  ?cap_factor:float -> n:int -> unit -> (broadcast, Dgraph.Matching.t) Sketchmodel.Rounds.protocol
(** The filtering protocol on the r-round engine with [max_rounds = 2]
    (round 1 sees the empty initial state: nothing matched).
    [cap_factor] scales the round-1 sample cap [⌈cap_factor·√n⌉]
    (default 1.0). *)

val run :
  ?cap_factor:float ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Matching.t * Sketchmodel.Rounds.stats
