(** Exact s-sparse recovery by hashing into 1-sparse cells and peeling.

    [reps] independent pairwise-independent hash functions each spread the
    coordinates over [buckets] cells. Decoding peels: any cell that decodes
    to a singleton reveals one coordinate, which is subtracted from every
    repetition, possibly turning collisions into new singletons. Decoding
    succeeds iff the whole residual reaches zero, which happens with
    constant probability per repetition when the vector is at most
    [buckets/2]-sparse, amplified by [reps].

    {2 Flat representation}

    A sketch is [reps x buckets] one-sparse cells packed row-major by
    repetition into {!words} consecutive ints of a caller-owned buffer;
    the [_at] operations act on such a region at a given offset.
    {!L0_sampler} packs its levels this way into one flat buffer, and
    players keep whole stacks of samplers in single {!Stdx.Scratch}
    arena buffers. A standalone sketch is an [Array.make (words params) 0]
    buffer at offset [0]. *)

type params

val make_params : Stdx.Prng.t -> universe:int -> buckets:int -> reps:int -> params
val universe : params -> int

val words : params -> int
(** Flat size of one sketch in ints: [reps * buckets * One_sparse.words].
    Independent of the universe size, so arena buffers keyed by a fixed
    (reps, buckets) never reallocate across universes. *)

val update_at : params -> int array -> int -> int -> int -> unit
(** [update_at params buf off i w] adds [w] to coordinate [i] of the
    sketch region at [buf.(off .. off + words params - 1)]. *)

val add_at : params -> dst:int array -> int -> src:int array -> int -> unit
(** Add the sketch region at [src.(soff ..)] into the one at
    [dst.(doff ..)] in place, cell by cell: the sketch of the summed
    vectors. Both regions must come from the same [params]. *)

val decode_at : params -> int array -> int -> (int * int) list option
(** Decode the region at [off] by peeling: [Some assoc] with the exact
    nonzero coordinates (sorted by index) if peeling terminates at zero;
    [None] when the vector is too dense to recover. Works on a
    scratch copy borrowed from the calling domain's {!Stdx.Scratch}
    arena under the key ["sparse_recovery.decode"] — the input region
    is not modified, and callers must not hold a borrow of that same
    key across the call. *)

val write_at : params -> int array -> int -> Stdx.Bitbuf.Writer.t -> unit
(** Serialise the region's cells row-major (exact bit accounting). *)

val read_at : params -> int array -> int -> Stdx.Bitbuf.Reader.t -> unit
(** Deserialise one sketch into the region at [off], overwriting it. *)
