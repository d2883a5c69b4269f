(** The one-round distributed sketching model (Section 2.1).

    One player per vertex; a player's whole input is the number of vertices,
    its own id, and its sorted neighbour list. All players simultaneously
    send one message (a {e sketch}) to the referee, who sees only the
    messages and the public coins. Communication cost is the worst-case
    message length in bits — measured exactly from the bit buffers, never
    estimated. [Rounds] runs a one-round protocol, lifted by
    [Rounds.one_round], as the [r = 1] case of its engine. *)

type view = {
  n : int;  (** number of vertices in the graph *)
  vertex : int;  (** this player's id *)
  neighbors : int array;  (** sorted ids of adjacent vertices *)
}
(** Everything a player is allowed to see. *)

val view : Dgraph.Graph.t -> int -> view
(** [view g v] is vertex [v]'s honest view, with a fresh copy of its
    neighbour row. *)

val views : Dgraph.Graph.t -> view array
(** The honest per-vertex views of a graph: [view g v] for every [v]. *)

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

val success_rate :
  trials:int -> seed:int -> (Public_coins.t -> bool) -> float
(** Runs a boolean experiment over [trials] independent public-coin seeds
    and returns the empirical success probability. *)
