(** The trivial [Θ(n log n)]-bit upper bound (Section 1 of the paper): every
    vertex ships its entire neighbourhood, the referee reconstructs the
    graph and solves the problem exactly. Always correct; exists to anchor
    the upper end of the gap the paper leaves open. *)

val mm : Dgraph.Matching.t Sketchmodel.Model.protocol
(** Referee outputs a greedy maximal matching of the reconstructed graph. *)

val mis : Dgraph.Mis.t Sketchmodel.Model.protocol
(** Referee outputs a greedy MIS of the reconstructed graph. *)

val baseline : unit Sketchmodel.Model.protocol
(** The trivial players with a referee that decodes nothing. For tables
    that report only the trivial protocol's bits: {!Sketchmodel.Rounds.run}
    accounts them exactly as for {!mm} and {!mis}, without rebuilding the
    graph or solving anything. *)

val reconstruct :
  n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Dgraph.Graph.t
(** The shared referee front half: rebuild the exact input graph. *)
