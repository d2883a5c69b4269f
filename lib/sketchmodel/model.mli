(** The one-round distributed sketching model (Section 2.1).

    One player per vertex; a player's whole input is the number of vertices,
    its own id, and its sorted neighbour list. All players simultaneously
    send one message (a {e sketch}) to the referee, who sees only the
    messages and the public coins. Communication cost is the worst-case
    message length in bits — measured exactly from the bit buffers, never
    estimated. *)

type view = {
  n : int;  (** number of vertices in the graph *)
  vertex : int;  (** this player's id *)
  neighbors : int array;  (** sorted ids of adjacent vertices *)
}
(** Everything a player is allowed to see. *)

val views : Dgraph.Graph.t -> view array
(** The honest per-vertex views of a graph. *)

type ('v, 'a) protocol_over = {
  name : string;
  player : 'v -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
      (** The sketch of one player: a function of its view and the public
          coins only. *)
  referee : n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Public_coins.t -> 'a;
      (** Output from the sketches and the coins; no access to the input. *)
}
(** A one-round protocol whose players see views of type ['v] (graph
    views here, hypergraph pin-set views in [Protocols.Hyper_views]). *)

type 'a protocol = (view, 'a) protocol_over
(** A one-round protocol over graph views. *)

type stats = {
  max_bits : int;  (** the paper's communication cost *)
  total_bits : int;
  avg_bits : float;
  players : int;
}

val run : 'a protocol -> Dgraph.Graph.t -> Public_coins.t -> 'a * stats
(** Executes one round honestly: builds views, runs every player, hands the
    referee read-only sketches, and accounts bits. *)

val run_views :
  ?schedule:int array -> ('v, 'a) protocol_over -> n:int -> 'v array -> Public_coins.t -> 'a * stats
(** Same, but over explicit views — used by the public/unique augmented
    player model of Section 3.1, where the number of players exceeds [n]
    and views are not the honest per-vertex ones, and by the hypergraph
    protocols, whose players see pin sets.

    [schedule] (a permutation of the player indices; default identity)
    fixes the {e order} in which player sketches are computed. Players are
    simultaneous and independent, so every schedule must give identical
    output and stats — the referee's accounting is order-independent by
    construction. The knob exists so tests can pin that invariant, which
    is what makes computing sketches concurrently (or trials in parallel
    via {!Stdx.Parallel}) safe. Raises [Invalid_argument] if [schedule]
    is not a permutation. *)

val success_rate :
  trials:int -> seed:int -> (Public_coins.t -> bool) -> float
(** Runs a boolean experiment over [trials] independent public-coin seeds
    and returns the empirical success probability. *)

val pp_stats : Format.formatter -> stats -> unit
