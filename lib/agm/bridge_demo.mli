(** The paper's Footnote 1, implemented verbatim: two disjoint random
    graphs joined by a single bridge edge [(u, v)]. Although [(u, v)] is
    locally indistinguishable from any other edge at [u] and [v], the
    referee recovers it from [O(log n)]-size sketches:

    - every vertex sends [c·log n] uniformly sampled incident edges, which
      w.h.p. reveal the two-cloud partition (each cloud's sampled subgraph
      is connected, and the bridge itself is rarely sampled);
    - every vertex [w] also sends the telescoping sum
      [s_w = Σ_{z ∈ N(w), z > w} (z·n + w) − Σ_{z ∈ N(w), z < w} (w·n + z)].
      Summing [s_w] over one cloud cancels every internal edge and leaves
      [±(v·n + u)] — the bridge's code. *)

type result = {
  bridge : Dgraph.Graph.edge option;  (** referee's answer *)
  stats : Sketchmodel.Rounds.stats;
  partition_found : bool;  (** whether the sampled subgraph had 2 clouds *)
}

val protocol : n:int -> samples_per_vertex:int -> (Dgraph.Graph.edge option * bool) Sketchmodel.Model.protocol

val run :
  Dgraph.Graph.t -> samples_per_vertex:int -> Sketchmodel.Public_coins.t -> result

val success_probability :
  half:int -> samples_per_vertex:int -> trials:int -> seed:int -> float
(** Fraction of trials (fresh instance + fresh coins each) where the
    referee outputs exactly the planted bridge. *)
