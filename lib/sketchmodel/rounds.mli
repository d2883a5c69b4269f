(** The r-round referee engine: the model's adaptive extension, with
    first-class per-round accounting.

    The paper's model is one simultaneous round ({!Model.run}). Its
    [Õ(√n)] contrast (Section 1.1) lets the referee broadcast between
    rounds; this module runs {e any} number of sketch rounds, each
    followed by one referee step that either broadcasts a new state or
    finishes. It records the bit cost of every boundary: per-round
    player maxima and totals, per-round broadcast sizes, and the
    cumulative per-player worst case. Every multi-round protocol in the
    repo runs here: the two-round protocols ([max_rounds = 2]), the
    r-round frontier and Luby families, and the iterated hypergraph
    protocols.

    The engine is polymorphic in the player view: graph protocols see
    {!Model.view}s, the hypergraph protocols pin-set views.

    Every round is a [protocol.round] trace span (args [round], numbered
    from 1, and [protocol], the protocol's [name]), so a Perfetto trace
    of any multi-round run shows its round structure uniformly. *)

(** What the referee does with a round's sketches: broadcast a new state
    (its encoded size is charged) and run another round, or stop. *)
type ('b, 'a) step = Continue of 'b | Finish of 'a

type ('v, 'b, 'a) protocol_over = {
  name : string;
  max_rounds : int;  (** Hard round limit; exceeding it is a protocol bug. *)
  init : n:int -> Public_coins.t -> 'b;
      (** The state players see in round 1. Not charged: it is a pure
          function of public information (n and the coins). *)
  player : round:int -> 'v -> 'b -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
      (** Player sketch for the given (1-based) round, seeing the latest
          broadcast state. *)
  referee :
    round:int ->
    n:int ->
    state:'b ->
    sketches:Stdx.Bitbuf.Reader.t array ->
    Public_coins.t ->
    ('b, 'a) step;
      (** Consume a round's sketches: [Continue b] broadcasts [b] (charged
          at [encode_broadcast b]'s size) and runs another round; [Finish]
          ends the protocol (nothing further is charged). *)
  encode_broadcast : 'b -> Stdx.Bitbuf.Writer.t;
      (** How a broadcast state would be serialised; only its length is
          used. *)
}
(** An r-round protocol whose players see views of type ['v], broadcast
    states of type ['b] and output an ['a]. *)

type ('b, 'a) protocol = (Model.view, 'b, 'a) protocol_over
(** An r-round protocol over graph views. *)

type stats = {
  rounds : int;  (** Rounds actually run. *)
  max_bits : int;  (** Worst-case per-player total over all rounds. *)
  total_bits : int;  (** Sum over players and rounds. *)
  broadcast_bits : int;  (** Cumulative broadcast cost. *)
  round_max : int array;  (** Per round: worst single player's bits. *)
  round_total : int array;  (** Per round: summed player bits. *)
  round_broadcast : int array;
      (** Per round: the broadcast that {e followed} it (0 for the final
          round — a [Finish] broadcasts nothing). *)
}

val run_views :
  ('v, 'b, 'a) protocol_over -> n:int -> 'v array -> Public_coins.t -> 'a * stats
(** Run on explicit player views (the {!Model.run_views} analogue);
    raises [Failure] if the referee never finishes within [max_rounds]. *)

val run : ('b, 'a) protocol -> Dgraph.Graph.t -> Public_coins.t -> 'a * stats
(** Run on a graph's standard one-player-per-vertex views. *)

val pp_stats : Format.formatter -> stats -> unit
