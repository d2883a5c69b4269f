(** Luby-style r-round MIS protocols under three priority schemes
    (SNIPPETS.md snippets 1–2): the upper-bound contrast rows of the
    round frontier.

    Each round, every active vertex (neither chosen nor blocked) compares
    itself against its active neighbours under a strict total priority
    order and joins iff it beats them all; vertices with a chosen
    neighbour report themselves blocked. Players send two bits per round
    ([joins], [blocked_now]); the referee broadcasts the updated
    chosen/blocked bitmaps. Simultaneous joins of two neighbours are
    impossible (one beats the other), and the globally top-priority active
    vertex always joins or blocks, so the protocol terminates with a
    maximal independent set in at most n rounds.

    Priorities:
    - {!Random}: fresh public-coin draws each round (classic Luby) — no
      extra communication: each (round, vertex) draw is derived once per
      run from the coins, carried in state, never broadcast;
    - {!Degree}: lower degree beats higher (random + id tie-breaks) —
      players cannot see neighbours' degrees, so a one-round degree
      exchange precedes the Luby rounds (uvarint up, degree vector down);
    - {!Index}: the fixed id order — deterministic, the worst case of the
      family (a path decided one vertex per round).

    Runs on {!Sketchmodel.Rounds}, the repo's one multi-round engine. *)

type priority = Random | Degree | Index

val priority_name : priority -> string
(** ["random"], ["degree"], ["index"] — used in protocol ids and table
    rows. *)

type state = {
  degs : int array option;  (** broadcast by the prep round (Degree only) *)
  degs_fresh : bool;  (** charge the degree vector only once *)
  chosen : bool array;
  blocked : bool array;
  label : string;  (** this round's coin label (empty under {!Index}) *)
  draws : int array;
      (** this round's public-coin priorities, filled lazily (-1 = not yet
          drawn) so each is derived at most once; reset every round, never
          broadcast; empty under {!Index} *)
}

val protocol : priority -> n:int -> (state, Dgraph.Mis.t) Sketchmodel.Rounds.protocol
(** The r-round protocol; [n >= 0]. The output lists MIS members in
    ascending vertex order. *)

val run :
  priority ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Mis.t * Sketchmodel.Rounds.stats
