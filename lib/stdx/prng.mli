(** Deterministic pseudo-random number generation.

    The library deliberately does not use [Stdlib.Random]: distributed
    sketching protocols need {e public coins} — randomness that is shared
    between every player and the referee, and that can be re-derived by key
    (e.g. "the coins of vertex 17 in round 2") without any communication.
    Everything here is a pure function of the seed, so a protocol run is
    reproducible bit-for-bit.

    The generator is xoshiro256** seeded through SplitMix64, the standard
    combination recommended by the xoshiro authors.

    {b State and allocation.} The four 64-bit state words are kept
    unboxed in one 32-byte buffer beside the seed, and each draw runs
    its xoshiro step on local unboxed integers. So {!int}, {!bool},
    {!bernoulli} and {!fill_bools} allocate nothing per draw
    (pinned by an allocation test in [test_prng.ml]); {!bits64} and
    {!float} allocate only their boxed result. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val split : t -> int -> t
(** [split g key] derives an independent generator from [g]'s seed and an
    integer [key], without advancing [g]. Two distinct keys give streams that
    are independent for all practical purposes. This is how public coins are
    distributed: every player calls [split coins vertex_id].

    {b Trial-key derivation (the seeding scheme).} [split] is also the
    contract the deterministic parallel engine ({!Parallel}) is built on:
    Monte-Carlo trial [i] of an experiment rooted at generator [root] uses
    exactly [split root i] as its private generator. The derivation is a
    pure function of [(root seed, key)] — one SplitMix64 step of the root
    seed, XORed with [key * 0x9E3779B97F4A7C15], masked to 63 bits, then
    fed to {!create} — and never reads or advances the root's stream
    state, so trial [i]'s randomness is identical whether the trials run
    sequentially, sharded over any number of domains, or in any order.
    This derivation is pinned by golden-value tests in [test_prng.ml];
    changing it silently would break bit-for-bit reproducibility of every
    published table, so any change must update those goldens (and the
    recorded tables) deliberately. *)

val split_seed : int -> int -> t
(** [split_seed seed key] is [split (create seed) key], without building
    the parent generator. Use it where only a seed is at hand, as
    public coins are. *)

val copy : t -> t
(** [copy g] duplicates the state; the copy evolves independently. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** A fair coin. *)

val fill_bools : t -> bool array -> unit
(** [fill_bools g a] overwrites every cell of [a] with a fair coin,
    consuming {e exactly} the stream positions repeated {!bool} calls
    would — [fill_bools g a] and [Array.map (fun _ -> bool g) a] produce
    identical contents from identical states (qcheck-pinned). Bulk-fill
    form for hot paths such as [Hard_dist.sample]'s kept masks. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniformly random permutation of [0 .. n-1]. *)

val sample_distinct : t -> int -> int -> int array
(** [sample_distinct g k n] draws [k] distinct values from [\[0, n)]
    uniformly (Floyd's algorithm). Requires [k <= n]. *)
