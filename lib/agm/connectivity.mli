(** Edge-connectivity certificates and bipartiteness testing from linear
    sketches — the further AGM-family positive results ([1], [2]) the
    paper's introduction lists among "everything sketching can do".

    {b k edge-disjoint forests.} The player sends [k] independent sampler
    stacks. The referee peels: decode a spanning forest [F₁] from stack 1,
    {e subtract} its edges from stack 2 (linearity lets the referee do
    this without any player involvement), decode [F₂] of [G − F₁], and so
    on. It parses stack [j] of every vertex only when it peels [F_j], so
    it holds [n] stacks at a time, not [n·k]. The union
    [F₁ ∪ … ∪ F_k] is a sparse certificate preserving every cut value up
    to [k] (Nagamochi–Ibaraki), so [min(k, edge-connectivity)] is
    computable from sketches alone.

    {b Bipartiteness.} [G] is bipartite iff its bipartite double cover has
    exactly twice as many connected components. Each vertex of [G] can
    construct its two double-cover views locally, so one round of
    [2×]-size AGM sketches decides bipartiteness. The referee parses and
    decodes the [n] stacks on [G] before it parses the [2n] cover
    stacks, into the same buffer. *)

type certificate = {
  forests : Dgraph.Graph.edge list array;  (** [forests.(j)] is [F_{j+1}] *)
  union : Dgraph.Graph.t;
}

val forests_protocol :
  ?config:Spanning_forest.config ->
  n:int ->
  k:int ->
  unit ->
  certificate Sketchmodel.Model.protocol

val k_forests :
  ?config:Spanning_forest.config ->
  Dgraph.Graph.t ->
  k:int ->
  Sketchmodel.Public_coins.t ->
  certificate * Sketchmodel.Rounds.stats

val certificate_valid : Dgraph.Graph.t -> k:int -> certificate -> bool
(** The forests are edge-disjoint subforests of [G], each [F_j] spanning in
    [G − F₁ − … − F_{j−1}]. *)

val edge_connectivity_estimate : certificate -> k:int -> int
(** [min(k, edge-connectivity of G)], computed as the min-cut of the
    certificate capped at [k] (exact when the certificate is valid). *)

val bipartiteness_protocol :
  ?config:Spanning_forest.config -> n:int -> unit -> bool Sketchmodel.Model.protocol
(** Referee outputs [true] iff the graph is bipartite (w.h.p.). *)

val is_bipartite_via_sketches :
  ?config:Spanning_forest.config ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  bool * Sketchmodel.Rounds.stats

val is_bipartite_exact : Dgraph.Graph.t -> bool
(** BFS 2-coloring; the ground-truth oracle. *)
