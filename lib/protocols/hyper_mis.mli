(** Hypergraph MIS protocols (weak independence) over {!Hyper_views}.

    {b Local minima (one-shot).} Public coins give every vertex a
    priority; weak independence only needs the top-priority pin of every
    hyperedge to stay out, so one bit — "I am not the maximum of any
    incident edge" — yields an independent set that is essentially never
    maximal. On 2-uniform hypergraphs the rule is
    {!One_round_mis.local_minima}'s: [v] joins iff its (priority, id) is
    below every neighbour's. The priorities are drawn under another coin
    label (["hmis-priority"], not ["mis-priority"]), so on the same coins
    the two outputs generally differ.

    {b Luby-style (multi-round).} Fresh priorities each round; an active
    vertex blocks itself when some incident edge has every other pin
    chosen, and otherwise joins unless it is the top-priority active pin
    of a live incident edge (an edge with a blocked pin can never be
    completed). Every live edge keeps its top active pin out for the
    round, so simultaneous joins never complete an edge; the globally
    minimum-priority active vertex always joins or blocks, so the
    protocol reaches a maximal independent set in at most [n] rounds. *)

val local_minima : (Hyper_views.view, Dgraph.Hmis.t) Sketchmodel.Model.protocol_over
(** One bit per player; output independent, rarely maximal. *)

(** Broadcast state of {!luby}: chosen and blocked vertex bitmaps. *)
type state = { chosen : bool array; blocked : bool array }

val luby : n:int -> (Hyper_views.view, state, state) Sketchmodel.Rounds.protocol_over
(** The Luby-style multi-round protocol for an [n]-vertex hypergraph; its
    output is the final state. *)

val run_local_minima :
  Dgraph.Hypergraph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Hmis.t * Sketchmodel.Model.stats
(** {!Sketchmodel.Model.run_views} of {!local_minima} on the honest
    views. *)

val run_luby :
  Dgraph.Hypergraph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Hmis.t * Sketchmodel.Rounds.stats
(** Run {!luby} to termination through {!Hyper_views.iterate};
    returns a maximal independent set and the multi-round bit
    accounting. *)
