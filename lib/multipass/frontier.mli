(** The r-round prefix-greedy MIS family: the rounds-vs-communication
    frontier.

    Generalises the two-round protocol of [Protocols.Two_round_mis] to any
    number of rounds. A shared random permutation π — derived once per run
    from the coins, carried in state, never broadcast — splits the vertices
    into r blocks with boundaries s_t = ⌈n^(t/r)⌉ (s_r = n); round t runs
    referee-side greedy over the still-undecided vertices of block t, using
    only the edges the undecided players report against that block. After
    its block is processed every vertex is decided (chosen or dominated),
    so after round r the output is a maximal independent set of the input
    graph — for {e every} r.

    The bit cost interpolates the frontier of arXiv:2209.09049: r = 1
    degenerates to players shipping their whole adjacency (the regime the
    paper's one-round lower bound lives in), r = 2 matches the √n-prefix
    shape of the two-round protocol, and larger r trades rounds for
    per-round communication. The [round-frontier] experiment tabulates
    exactly this curve. Runs on {!Sketchmodel.Rounds}, the repo's one
    multi-round engine. *)

type state = {
  pi : int array;
      (** the shared permutation π: derived once per run from the coins,
          carried in state, never broadcast *)
  pos : int array;  (** π's inverse: [pos.(pi.(p)) = p] *)
  decided : bool array;  (** chosen or dominated so far *)
  mis_rev : int list;  (** members, most recent first *)
  fresh : int list;  (** members added by the latest round (broadcast) *)
}

val blocks : n:int -> rounds:int -> int array
(** [blocks ~n ~rounds] is the r monotone prefix cutoffs
    s_t = ⌈n^(t/r)⌉ with the last forced to n. *)

val protocol : rounds:int -> n:int -> (state, Dgraph.Mis.t) Sketchmodel.Rounds.protocol
(** The r-round protocol; [rounds >= 1]. The output lists MIS members in
    joining (permutation) order. *)

val run :
  ?rounds:int ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Mis.t * Sketchmodel.Rounds.stats
(** Run on a graph (default [rounds = 2]). *)
