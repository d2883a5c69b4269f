(** Per-domain keyed scratch arenas for the hot experiment loops.

    The Monte-Carlo inner loops (AGM sketch stacks, L0-sampler decode
    buffers, bit-accounting accumulators, CSR fill scratch) need the
    same transient flat buffers once per trial. Allocating them fresh
    every trial is the dominant GC load that BENCH_tables.json exposes
    at [--fast] scale; an arena instead hands out {e cached} unboxed
    [int array] / [float array] buffers keyed by name, reallocating
    only when the requested length changes. A steady workload — every
    trial at the same problem size — reallocates each buffer once per
    domain and thereafter only resets it.

    {2 Ownership contract}

    The contract, spelled out in full in [PERFORMANCE.md]:

    - {b Keys are exclusive to one call site.} Borrowing key [k]
      returns the same backing store as every previous borrow of [k]
      in that domain, so two concurrent users of one key would corrupt
      each other. Name keys after the borrowing module
      (["sf.stack"], ["sr.decode"], ...) and never pass a borrowed
      buffer to code that might borrow the same key.
    - {b Borrows do not escape the trial.} A borrowed buffer is valid
      until the same key is borrowed again; anything that must survive
      (a result row, a frozen CSR column) is copied out.
    - {b Arenas are domain-local.} {!domain} returns the calling
      domain's own arena via [Domain.DLS]; arenas are never shared, so
      borrowing needs no locks, and a trial's buffer contents are a
      function of that trial alone — {!Parallel}'s bit-for-bit
      determinism contract is untouched by any [--jobs] count.
    - {b Reset, never reallocated.} {!ints}/{!floats} zero-fill the
      cached buffer on each borrow (the reset); {!dirty_ints}/
      {!dirty_floats} skip the fill for callers that overwrite every
      slot themselves.

    {!Parallel.init} calls {!chunk_begin} at the start of every chunk
    fill, so the arena (and its table) exists before the first trial
    of the chunk runs — "allocated once per chunk, reused across
    trials".

    {2 Lifetime}

    An arena lives for one experiment table: the registry
    ([Core.Exp_registry.table], [measured_table]) calls {!clear} on
    the calling domain's arena when a table ends, also when it raises,
    so the buffers a table borrowed do not stay resident under the
    next one. *)

type t
(** A scratch arena: a table from string keys to cached flat buffers,
    plus borrow/realloc counters. Owned by exactly one domain. *)

type stats = {
  keys : int;  (** Distinct buffer keys currently cached. *)
  borrows : int;  (** Total borrows since creation or {!clear}. *)
  reallocs : int;
      (** Borrows that had to allocate (first use of a key, a length
          change, or an at-least borrow longer than the cached
          buffer). [reallocs] staying flat while [borrows] grows is
          the signature of a healthy steady-state arena. *)
  live_words : int;
      (** Approximate words held by cached buffers (array contents
          plus one header word each). *)
}

val create : unit -> t
(** A fresh empty arena. Prefer {!domain} in library code — explicit
    arenas are for tests and for call sites that must not share keys
    with anyone. *)

val domain : unit -> t
(** The calling domain's arena, created on first use and cached in
    domain-local storage. Never shared across domains. *)

val ints : t -> string -> int -> int array
(** [ints t key len] borrows the arena's [int] buffer for [key],
    zero-filled, of exactly [len] elements. Reuses the cached backing
    store when its length is already [len]; reallocates (and caches
    the replacement) otherwise. Raises [Invalid_argument] on negative
    [len]. *)

val dirty_ints : t -> string -> int -> int array
(** Like {!ints} but skips the zero fill — the caller promises to
    write every slot it reads. A fresh allocation (length change or
    first borrow) is still all-zero. *)

val dirty_ints_at_least : t -> string -> int -> int array
(** Like {!dirty_ints}, but the returned buffer is {e at least} [len]
    long: a cached buffer longer than [len] is reused rather than
    replaced, so a key borrowed at varying lengths reallocates only
    when it grows. The caller must index only the first [len] slots and
    never read [Array.length] of the result. *)

val floats : t -> string -> int -> float array
(** [float array] analogue of {!ints} (zero-filled with [0.0]). *)

val dirty_floats : t -> string -> int -> float array
(** [float array] analogue of {!dirty_ints}. *)

val clear : t -> unit
(** Drop every cached buffer and reset the counters. Outstanding
    borrows keep their (now unmanaged) arrays alive; the arena simply
    forgets them. *)

val stats : t -> stats
(** Current counters; see {!type-stats}. *)

val chunk_begin : unit -> unit
(** Notify the arena layer that a {!Parallel} chunk is starting in the
    calling domain: warms the domain arena so no trial pays for table
    creation, and bumps the per-domain chunk counter. Called by
    {!Parallel.init}; safe (and idempotent in effect) to call
    manually. *)

val chunk_count : unit -> int
(** Chunks started in the calling domain since it was spawned — test
    hook for the {!Parallel} wiring. *)
