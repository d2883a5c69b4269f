(** Multi-pass semi-streaming (1+ε)-approximate maximum matching
    (SNIPPETS.md snippet 3 / arXiv:2412.19057 lineage): the pass axis of
    the frontier.

    Pass 1 runs greedy maximal matching over the edge stream (a
    2-approximation, the single-pass baseline of {!Insertion_greedy}).
    Each later pass streams the edges again and keeps a bounded-degree
    {e sparsifier}: at most [2k] kept edges incident to a free vertex and
    [k] to a matched one, [k = ⌈1/ε⌉], so the retained state is
    [O(nk log n)] bits — semi-streaming. The pass then re-matches the
    sparsifier plus the current matching with the exact blossom matcher;
    since the current matching is a subgraph, the matching never shrinks.
    Passes stop at the first non-improving pass or at the pass budget.

    By Hopcroft–Karp, a matching with no augmenting path shorter than
    [2k+1] is a (1+1/k)-approximation; the sparsifier is the pass-bounded
    surrogate for that search, and the [stream-matching] experiment
    measures the achieved ratio against the exact optimum. Every pass is
    wrapped in a [stream.pass] trace span carrying its memory and matching
    size. *)

type pass_stat = {
  pass : int;  (** 1-based *)
  events : int;  (** stream events scanned in this pass *)
  kept_edges : int;  (** sparsifier size (pass 1: the matching itself) *)
  memory_bits : int;  (** retained state during the pass *)
  matching_size : int;  (** matching size after the pass *)
  augmented : int;  (** matching growth in this pass *)
}

type result = {
  matching : Dgraph.Matching.t;
  passes : pass_stat list;  (** in pass order *)
  peak_memory_bits : int;
  converged : bool;  (** stopped on a non-improving pass, not the budget *)
}

val run : ?eps:float -> ?max_passes:int -> Stream.t -> result
(** [run ~eps stream] on an insertion-only stream; raises
    [Invalid_argument] on deletions (greedy cannot start from a dynamic
    stream) or [eps <= 0]. [max_passes] defaults to [k²], the poly(1/ε)
    budget. *)
