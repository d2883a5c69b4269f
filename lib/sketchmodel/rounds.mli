(** The referee engine: every sketching protocol in the repo runs here,
    with first-class per-round accounting.

    The paper's model (Section 2.1) is one simultaneous round: a
    {!Model.protocol_over} lifted by {!one_round} runs here with
    [max_rounds = 1] and a referee that always finishes. Its [Õ(√n)]
    contrast (Section 1.1) lets the referee broadcast between rounds;
    this module runs {e any} number of sketch rounds, each followed by
    one referee step that either broadcasts a new state or finishes. It
    records the bit cost of every boundary: per-round player maxima and
    totals, per-round broadcast sizes, and the cumulative per-player
    worst case. The two-round protocols ([max_rounds = 2]), the r-round
    frontier and Luby families, and the iterated hypergraph protocols
    all run here too.

    The engine is polymorphic in the player view: graph protocols see
    {!Model.view}s, the hypergraph protocols pin-set views.

    Every round is a [protocol.round] trace span (args [round], numbered
    from 1, and [protocol], the protocol's [name]), so a Perfetto trace
    of any run, one round or many, shows its round structure uniformly. *)

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

val one_round : ('v, 'a) Model.protocol_over -> ('v, unit, 'a) protocol_over
(** The paper's one-round protocol as a [Rounds] protocol: [max_rounds =
    1], a unit state, and a referee that always returns [Finish]. *)

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
  ?schedule:int array ->
  ('v, 'b, 'a) protocol_over -> n:int -> 'v array -> Public_coins.t -> 'a * stats
(** Run on explicit player views (there may be more players than [n]),
    as the hypergraph protocols do; raises [Failure] if the referee never
    finishes within [max_rounds].

    [schedule] (a permutation of the player indices; default identity)
    fixes the {e order} in which player sketches are computed in every
    round. Players are simultaneous and independent, so every schedule
    must give identical output and stats — the referee's accounting is
    order-independent by construction. The knob exists so tests can pin
    that invariant, which is what makes computing sketches concurrently
    (or trials in parallel via {!Stdx.Parallel}) safe. Raises
    [Invalid_argument] if [schedule] is not a permutation. *)

val run : ('b, 'a) protocol -> Dgraph.Graph.t -> Public_coins.t -> 'a * stats
(** Run on a graph's standard one-player-per-vertex views: the same
    output and stats as [run_views p ~n (Model.views g)], but each
    player's view ({!Model.view}) is built when that player runs, so
    the n neighbour copies never live at once. *)

val pp_stats : Format.formatter -> stats -> unit
