(** Columnar freeze primitives: key sorting and CSR index fills.

    These are the allocation-disciplined interior loops of every
    {!Graph} freeze (sort, dedup, CSR fill) and of
    {!Hypergraph.Builder.freeze} (the incidence fill): plain int arrays
    in, plain int arrays out, no closures on the hot paths. A graph
    freeze whose keys already arrive in order calls only
    {!csr_of_sorted_keys}, so it borrows nothing. Their
    internal scratch (the radix sort's swap buffer and byte counters,
    the incidence fill's write cursors) is borrowed from the per-domain
    {!Stdx.Scratch} arena rather than allocated, so repeated freezes of
    same-shaped inputs allocate only their results — see PERFORMANCE.md
    for the ownership contract and the reserved key names. *)

val sort_keys : int array -> unit
(** Sort non-negative int keys ascending, in place. Large arrays (length
    [>= 512]) take an LSD base-256 radix sort whose pass count is the
    byte-width of the largest key — on [u*n+v] edge keys this replaces
    the generic comparison sort's [O(len log len)] compare calls with
    [ceil(bits/8)] counting passes over the data (one scratch array of
    the same length). Small arrays fall back to [Array.sort]. The result
    is identical either way. Scratch is an arena borrow (keys
    ["columnar.radix-buf"] / ["columnar.radix-count"]). *)

val radix_sort_nonneg : int array -> unit
(** The radix sort itself, without the small-array fallback — exposed for
    tests pinning [sort_keys]'s equivalence to [Array.sort]. *)

val csr_of_sorted_keys : n:int -> int array -> int -> int array * int array
(** [csr_of_sorted_keys ~n keys len] is [(row_start, col)], the merged
    undirected neighbour CSR of the first [len] entries of [keys]:
    ascending edge keys [u*n + v] with [u < v < n], duplicates adjacent
    and counted once. Only those [len] entries are read, so a longer
    builder array is handed over as is, without a copy. [row_start] has
    length [n+1], each row of [col] is sorted ascending. One counting
    pass (the ["graph.dedup"] trace span), one prefix sum and one
    scatter (["graph.csr-fill"]); no per-row sort, no edge columns, no
    arena borrow. *)

val incidence_of_segments :
  cod_count:int -> seg_row:int array -> seg_val:int array -> int array * int array
(** [(row_start, dom_ids)] of the incidence index of a segment CSR
    ([seg_row]/[seg_val], one segment per domain element — a hyperedge's
    pins): for each codomain element [v] in [\[0, cod_count)], the domain
    elements whose segment holds [v], ascending, one entry per
    occurrence. *)
