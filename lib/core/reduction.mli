(** The Section-4 reduction: maximal matching on [D_MM] via maximal
    independent set on a doubled graph [H].

    [H] has [2n] vertices: two disjoint copies [G^ℓ] and [G^r] of
    [G ~ D_MM] (vertex [u] becomes [uℓ = u] and [ur = n + u]), plus a
    complete bipartite graph between the public vertices of the two copies
    (including the pair [(uℓ, ur)] for each public [u], so no public vertex
    can appear on both sides of an independent set).

    Given a maximal independent set [S] of [H], the referee — who knows
    [σ] and [j*] for free (Remark 3.6) — reconstructs the survived hidden
    matching: Lemma 4.1 states that on a side whose public copies avoid
    [S], a pair [(u,v) ∈ M^RS_{i,j*}] survived the edge-dropping {e iff}
    not both of its copies are in [S]. *)

val build_h : Hard_dist.t -> Dgraph.Graph.t

val left : int -> int
(** [uℓ] for label [u] (identity). *)

val right : Hard_dist.t -> int -> int
(** [ur = n + u]. *)

type side = Left | Right

val side_public_empty : Hard_dist.t -> Dgraph.Mis.t -> side -> bool
(** Does the MIS avoid every public copy on this side? The biclique
    guarantees at least one side satisfies this. *)

val extract : Hard_dist.t -> Dgraph.Mis.t -> side -> Dgraph.Matching.t
(** [M^side] of the reduction: the [G]-pre-images of the pairs
    [(u, v) ∈ M^RS_{i,j*}] for which not both copies lie in the MIS. *)

val referee_output : Hard_dist.t -> Dgraph.Mis.t -> Dgraph.Matching.t
(** The paper's rule verbatim: the larger of [M^ℓ] and [M^r] (pre-images). *)

val referee_output_min : Hard_dist.t -> Dgraph.Mis.t -> Dgraph.Matching.t
(** Ablation: the {e smaller} side — by Lemma 4.1 this equals the exact
    surviving hidden matching whenever the MIS is correct. *)

type verdict = {
  lemma41_ok : bool;  (** the iff of Lemma 4.1 on the public-free side *)
  complete : bool;  (** output ⊇ all surviving hidden edges *)
  output_size : int;
  valid_edges : int;  (** output edges actually present in [G] *)
  surviving : int;
  side_used : side;
}

val check : Hard_dist.t -> Dgraph.Mis.t -> verdict
(** Full analysis of the paper's referee on a given MIS of [H]. *)

val run_with_solver :
  Hard_dist.t -> (Dgraph.Graph.t -> Dgraph.Mis.t) -> verdict
(** Build [H], solve MIS with the given (referee-side) solver, analyse. *)

val end_to_end_cost :
  Hard_dist.t ->
  Dgraph.Mis.t Sketchmodel.Model.protocol ->
  Sketchmodel.Public_coins.t ->
  verdict * Sketchmodel.Rounds.stats * Sketchmodel.Rounds.stats
(** Run an actual one-round MIS sketching protocol on [H], with each
    [G]-vertex simulating both of its copies (message = concatenation, as
    in the paper's cost argument). Returns the verdict, the per-[G]-player
    cost of the simulation, and the per-[H]-player cost of the underlying
    MIS protocol, both one-round — the ratio is the factor-2 blow-up of
    Theorem 2. *)
