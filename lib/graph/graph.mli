(** Undirected simple graphs on vertex set [\[0, n)].

    This is the substrate every layer above shares: the RS construction, the
    hard distribution, the sketching protocols and the referee all exchange
    values of this type. The representation is columnar (DESIGN.md §8):
    a frozen CSR neighbour store (rows sorted ascending, the entries
    above the diagonal being the edges in lexicographic order), filled
    by one sort + dedup freeze over packed [u*n + v] edge keys; keys
    that arrive in ascending order skip the sort. Both
    neighbourhood queries and whole-edge-set scans are cache-friendly,
    deterministic and allocation-free. Graphs are assembled either
    through the legacy list-taking {!create}, or — on hot paths —
    through {!Builder}, {!of_edge_array} and {!of_sorted_csr}. *)

type t
(** A frozen graph: immutable once built, structurally comparable with
    {!equal}. *)

type edge = int * int
(** Normalised: [(u, v)] with [u < v]. *)

val normalize_edge : int -> int -> edge
(** Orders the endpoints; rejects self-loops. *)

val create : int -> edge list -> t
(** [create n edges] builds a graph; duplicate edges are collapsed,
    endpoints must lie in [\[0, n)], self-loops are rejected. Prefer
    {!Builder} or {!of_edge_array} on hot paths: they take the same
    sort+dedup freeze path without consing a list first. *)

(** Mutable edge accumulator: [create] a builder (with a capacity hint when
    the edge count is known), [add_edge] in any order — duplicates and
    unnormalised endpoint order are fine — then [freeze] once into an
    immutable graph. Freezing sorts and deduplicates in one pass over a
    flat key array (no sort when the edges were added in ascending
    order); the builder must not be reused afterwards. *)
module Builder : sig
  type graph := t

  type t

  val create : ?capacity:int -> int -> t
  (** [create ?capacity n] is an empty builder over vertex set [\[0, n)].
      [capacity] (default 16) pre-sizes the edge store; adding beyond it
      grows by doubling. *)

  val n : t -> int
  (** Vertex count the builder was created with. *)

  val length : t -> int
  (** Edges added so far (before deduplication). *)

  val add_edge : t -> int -> int -> unit
  (** Endpoints in any order; rejects self-loops and out-of-range
      vertices. *)

  val freeze : t -> graph
  (** Sort + dedup into a frozen graph. The builder is consumed: using it
      after [freeze] is unspecified. *)
end

val of_edge_array : int -> edge array -> t
(** [of_edge_array n edges] is [create n] without the list: one
    validation pass over the array, then the shared sort+dedup freeze.
    Fast path for array-shaped producers ({!relabel}-style permuted edge
    sets, [kept]-filtered RS copies, decoded sketches). *)

val of_sorted_csr : n:int -> row_start:int array -> col:int array -> t
(** Adopts an already-validated CSR adjacency: [row_start] has length
    [n+1] with [row_start.(0) = 0] and [row_start.(n) = Array.length col],
    and row [v] is [col.(row_start.(v)) .. col.(row_start.(v+1)-1)], sorted
    ascending, symmetric and self-loop-free. The arrays are adopted, not
    copied — callers must not mutate them afterwards. Only shape is
    checked; per-row sortedness/symmetry is trusted. *)

val empty : int -> t
(** [empty n] has [n] vertices and no edges. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val neighbors : t -> int -> int array
(** Sorted neighbours of [v], as a fresh owned copy of the CSR row — safe
    to mutate, and allocated per call. Iterate with {!iter_neighbors} /
    {!fold_neighbors} / {!exists_neighbor} (or index with {!neighbor})
    instead when the copy is not needed. *)

val neighbor : t -> int -> int -> int
(** [neighbor g v j] is the [j]-th (0-based) neighbour of [v] in sorted
    order, [0 <= j < degree g v]; reads the CSR row in place. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_neighbors f g v] applies [f] to each neighbour of [v] in sorted
    order, without allocating. *)

val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** Fold over the sorted neighbour row, without allocating. *)

val exists_neighbor : (int -> bool) -> t -> int -> bool
(** Short-circuiting exists over the sorted neighbour row. *)

val degree : t -> int -> int
(** Number of neighbours of a vertex; O(1). *)

val max_degree : t -> int
(** Largest {!degree} over all vertices. *)

val mem_edge : t -> int -> int -> bool
(** Edge test, order-insensitive; binary search in the shorter row. *)

val edges_array : t -> edge array
(** All edges, normalised, in lexicographic order, as a fresh array (safe
    to mutate, e.g. to shuffle into a greedy order). *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Lexicographic, allocation-free scan over the flat edge columns. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Lexicographic, allocation-free fold over the flat edge columns. *)

val union : t -> t -> t
(** Union of edge sets; both graphs must have the same vertex count. *)

val union_all : int -> t list -> t
(** [union_all n gs] unions every edge set over vertex set [\[0, n)]. *)

val relabel : t -> int array -> t
(** [relabel g sigma] renames vertex [v] to [sigma.(v)]; [sigma] must be a
    permutation of [\[0, n)]. *)

val induced : t -> int list -> t * int array
(** [induced g vs] is the induced subgraph on [vs] with vertices renumbered
    [0 ..]; the returned array maps new indices back to original ones. *)

val disjoint_union : t -> t -> t
(** Vertices of the second graph are shifted by [n first]. Fast path: the
    two CSR stores are concatenated directly, no re-sort. *)

val equal : t -> t -> bool
(** Same vertex count and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: vertex count plus the edge list. *)
