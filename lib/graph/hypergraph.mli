(** Hypergraphs on vertex set [\[0, n)] (DESIGN.md §8).

    A hyperedge is a set of at least two distinct vertices (its {e pins});
    pins are stored sorted, hyperedges are deduplicated at freeze, and
    edge ids [0 .. m-1] enumerate the distinct hyperedges in lexicographic
    pin order. The frozen representation is two CSRs over flat int
    columns: the pins segments (edge → sorted vertex list) and the
    incident-lookup index (vertex → ascending incident edge ids).
    An ordinary graph is exactly the 2-uniform special case —
    {!of_graph} embeds one. *)

type t
(** A frozen hypergraph: immutable once built. *)

(** Mutable hyperedge accumulator: [create] a builder, [add_edge] pin
    arrays in any order — duplicate edges, duplicate pins within an edge
    and unsorted pins are all fine — then [freeze] once. Freezing runs
    a lexicographic row sort (skipped when the rows were added in that
    order), an adjacent dedup and the incidence fill under
    [hypergraph.sort] / [.dedup] / [.csr-fill] trace spans, nested in
    [hypergraph.freeze]. *)
module Builder : sig
  type hypergraph := t

  type t

  val create : ?capacity:int -> int -> t
  (** [create ?capacity n] is an empty builder over vertex set [\[0, n)].
      [capacity] (default 16) pre-sizes the row store. *)

  val n : t -> int
  (** Vertex count the builder was created with. *)

  val length : t -> int
  (** Hyperedges added so far (before deduplication). *)

  val add_edge : t -> int array -> unit
  (** Add one hyperedge given by its pins, in any order; duplicate pins
      collapse. Raises [Invalid_argument] on out-of-range pins or fewer
      than two distinct pins (the self-loop analogue). The array is not
      retained. *)

  val freeze : t -> hypergraph
  (** Sort + dedup into a frozen hypergraph. The builder is consumed:
      using it after [freeze] is unspecified. *)
end

val create : int -> int list list -> t
(** [create n edges] builds a hypergraph from pin lists; see
    {!Builder.add_edge} for normalisation rules. *)

val of_edge_array : int -> int array array -> t
(** [create] without the lists: one builder pass over pin arrays. *)

val of_graph : Graph.t -> t
(** The 2-uniform embedding: one hyperedge [{u, v}] per graph edge. *)

val empty : int -> t
(** [empty n] has [n] vertices and no hyperedges. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of distinct hyperedges. *)

val arity : t -> int -> int
(** Number of pins of a hyperedge; O(1). *)

val max_arity : t -> int
(** Largest {!arity} over all hyperedges (0 when [m = 0]). *)

val pins : t -> int -> int array
(** Sorted pins of a hyperedge, as a fresh owned copy. Iterate with
    {!iter_pins} / {!fold_pins} (or index with {!pin}) instead when the
    copy is not needed. *)

val pin : t -> int -> int -> int
(** [pin h e j] is the [j]-th (0-based) pin of [e] in sorted order;
    reads the segment row in place. *)

val iter_pins : (int -> unit) -> t -> int -> unit
(** Apply a function to each pin of a hyperedge in sorted order, without
    allocating. *)

val fold_pins : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** Fold over the sorted pins, without allocating. *)

val for_all_pins : (int -> bool) -> t -> int -> bool
(** Short-circuiting for-all over the pins of a hyperedge. *)

val exists_pin : (int -> bool) -> t -> int -> bool
(** Short-circuiting exists over the pins of a hyperedge. *)

val degree : t -> int -> int
(** Number of hyperedges a vertex pins; O(1). *)

val incident : t -> int -> int array
(** Ascending ids of the hyperedges incident to a vertex, as a fresh
    owned copy; iterate with {!iter_incident} / {!fold_incident} when
    the copy is not needed. *)

val iter_incident : (int -> unit) -> t -> int -> unit
(** Apply a function to each incident hyperedge id, ascending, without
    allocating. *)

val fold_incident : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** Fold over the ascending incident hyperedge ids, without allocating. *)

val exists_incident : (int -> bool) -> t -> int -> bool
(** Short-circuiting exists over the incident hyperedge ids. *)

val iter_edges : (int -> unit) -> t -> unit
(** Apply a function to each hyperedge id [0 .. m-1] in order. *)

val find_edge : t -> int array -> int option
(** Id of the hyperedge with exactly the given pins (normalised first),
    by binary search over the lexicographic edge order. *)

val mem_edge : t -> int array -> bool
(** [find_edge <> None]. *)

val equal : t -> t -> bool
(** Same vertex count and same hyperedge set. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: vertex count plus the pin sets. *)
