(** The AGM spanning-forest sketch [Ahn–Guha–McGregor, SODA'12]: the
    positive result the paper's introduction contrasts with its lower
    bound. Per-vertex sketches of [O(log^3 n)] bits suffice for the referee
    to output a spanning forest with high probability.

    Each vertex serialises [⌈log2 n⌉ + 1] independent L0-samplers of its
    signed edge-incidence vector (fresh randomness per Borůvka round, so
    adaptivity never reuses a sampler). The referee decodes round by round:
    it parses the current round's sampler off every vertex's message,
    sums them over each component, draws an outgoing edge, and merges.
    Rounds after the forest stops growing are never parsed. *)

type config = { sparsity : int; reps : int }

val default_config : config

val protocol :
  ?config:config -> n:int -> unit -> Dgraph.Graph.edge list Sketchmodel.Model.protocol
(** A one-round sketching protocol (the paper's model, Section 2.1) whose
    referee outputs a spanning forest. The graph size [n] parametrises the
    public randomness; communication is measured by the runner. *)

val rounds : int -> int
(** Number of Borůvka rounds / samplers per vertex for an [n]-vertex
    graph. *)

val run :
  ?config:config ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Graph.edge list * Sketchmodel.Rounds.stats
(** {!Sketchmodel.Rounds.run} of {!protocol}, lifted to one round. *)

val connected_components :
  ?config:config ->
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  int * Sketchmodel.Rounds.stats
(** Number of connected components according to the decoded forest. *)

(** {1 Low-level pieces}

    Exposed so other substrates (the dynamic-stream processor, the
    k-forest connectivity certificate) can reuse the exact same sampler
    stacks, serialisation and Borůvka decoder. *)

val sampler_params :
  config -> n:int -> Sketchmodel.Public_coins.t -> Linear_sketch.L0_sampler.params array
(** One sampler parameter set per Borůvka round, derived from public
    coins (players and referee call this identically). Memoized per
    domain on [(config, n, seed)] — the derivation is pure, so the
    cache changes allocation, never values. *)

val empty_stack :
  config -> n:int -> Sketchmodel.Public_coins.t -> Linear_sketch.L0_sampler.t array
(** Fresh all-zero samplers, one per round, each owning its buffer —
    for long-lived stacks (e.g. the dynamic-stream processor). Hot
    loops use {!scratch_stack} instead. *)

val stack_words : Linear_sketch.L0_sampler.params array -> int
(** Flat size in ints of one vertex's whole sampler stack (the sum of
    the rounds' {!Linear_sketch.L0_sampler.size_words}). *)

val scratch_stack :
  Stdx.Scratch.t -> string -> Linear_sketch.L0_sampler.params array -> Linear_sketch.L0_sampler.t array
(** [scratch_stack arena key params] borrows one zeroed arena buffer of
    {!stack_words} ints and carves it into per-round sampler views —
    the allocation-free {!empty_stack} for stacks that die before the
    key is borrowed again (a player's stack lives only until
    [write_stack]). See the {!Stdx.Scratch} ownership contract. *)

val stack_update : n:int -> Linear_sketch.L0_sampler.t array -> int -> int -> weight:int -> unit
(** [stack_update ~n stack v u ~weight] applies the signed edge-incidence
    update of edge [(v, u)] as seen from vertex [v], scaled by [weight]
    ([+1] insert, [-1] delete), to every round's sampler. *)

val write_stack : Linear_sketch.L0_sampler.t array -> Stdx.Bitbuf.Writer.t
(** Serialise a vertex's samplers — this is the protocol message. *)

val read_stack_into :
  Linear_sketch.L0_sampler.params array ->
  int array ->
  int ->
  Stdx.Bitbuf.Reader.t ->
  Linear_sketch.L0_sampler.t array
(** [read_stack_into params buf off r] deserialises one vertex's stack
    into the caller-owned region at [buf.(off ..)] ({!stack_words} ints,
    every slot overwritten) and returns the per-round sampler views.
    How the connectivity referees parse one certificate layer's stacks
    into a single arena borrow. *)

val decode_forest :
  n:int -> per_vertex:Linear_sketch.L0_sampler.t array array -> Dgraph.Graph.edge list
(** The Borůvka referee over deserialised (or directly maintained)
    per-vertex sampler stacks. Component sums accumulate in an arena
    borrow under the key ["sf.decode-acc"]; input stacks are not
    modified. The one-round {!protocol}'s referee runs the same decode
    but parses each round's samplers only when that round starts, into
    one [n × size_words] borrow (key ["sf.referee"]) shared by the
    rounds. *)
