(** Exact 1-sparse recovery over integer vectors.

    The base cell of the AGM stack. For a vector [x : \[0, universe) -> Z]
    it maintains three linear measurements:
    - [s0 = Σ x_i],
    - [s1 = Σ i·x_i],
    - a fingerprint [f = Σ x_i·z^i mod p] for a public random [z].

    If [x] has exactly one nonzero coordinate [(i, w)] then [s0 = w],
    [s1 = i·w] and [f = w·z^i]; the decoder checks all three. A vector with
    two or more nonzeros passes the check with probability
    [<= universe / p] (Schwartz–Ippel on the degree-[universe]
    polynomial), so false singletons are rare and detected as
    {!result.Collision} otherwise.

    All operations are linear: {!add_at} of two cells built from the same
    {!params} gives the cell of the summed vectors — the property AGM's
    referee exploits when it merges the sketches of a component.

    {2 Flat representation}

    A cell is {!words} (= 3) consecutive ints [s0; s1; f] in a
    caller-owned [int array]. The [_at] operations act on such a region
    at a given offset; {!Sparse_recovery} and {!L0_sampler} pack all
    their cells into single flat buffers (typically borrowed from a
    {!Stdx.Scratch} arena) and never box individual cells. A standalone
    cell is just an [Array.make words 0] buffer at offset [0]. *)

type params
(** Public randomness of a cell: the prime [p], evaluation point [z] and
    the universe size. Players and referee derive equal [params] from
    public coins. *)

val make_params : Stdx.Prng.t -> universe:int -> params
val universe : params -> int

val words : int
(** Flat size of one cell in ints — [3]: the [s0], [s1] and [f]
    counters, in that order. *)

val update_at : params -> int array -> int -> int -> int -> unit
(** [update_at params buf off i w] adds [w] to coordinate [i] of the
    cell stored at [buf.(off .. off+words-1)]. Raises
    [Invalid_argument] when [i] is outside the universe. *)

val add_at : params -> dst:int array -> int -> src:int array -> int -> unit
(** [add_at params ~dst doff ~src soff] adds the cell at
    [src.(soff ..)] into the cell at [dst.(doff ..)] in place: the cell
    of the pointwise sum, used by arena-backed accumulators. Both cells
    must come from the same [params], and the two regions must not
    overlap unless they coincide exactly. *)

type result =
  | Zero  (** the zero vector (up to fingerprint error) *)
  | Singleton of int * int  (** exactly one nonzero: (index, weight) *)
  | Collision  (** two or more nonzeros *)

val decode_at : params -> int array -> int -> result
(** Decode the cell stored at [buf.(off .. off+words-1)]. *)

val write_at : params -> int array -> int -> Stdx.Bitbuf.Writer.t -> unit
(** Serialise the cell at [off] (zigzag varints for [s0], [s1]; the
    fingerprint at the field width of [p]) — exact bit accounting. *)

val read_at : params -> int array -> int -> Stdx.Bitbuf.Reader.t -> unit
(** Deserialise one cell into [buf.(off .. off+words-1)], overwriting
    the three slots. *)
