(** The daemon's request handler, socket-free.

    [handle] maps one request payload (a JSON object with a string field
    ["op"]) to one response payload. Keeping this layer free of file
    descriptors makes every endpoint unit-testable in-process; {!Daemon}
    adds TCP framing, connection threads and signals around it.

    Operations: [ping], [list], [stats], [cache], [run], [simulate],
    [shutdown].
    Responses are canonical JSON strings (fixed field order, no
    whitespace): a cached payload is byte-identical to a recomputed one.
    [run]/[simulate] go through the result cache and then the bounded
    {!Scheduler}; errors come back as
    [{"ok":false,"error":...,"code":...,"msg":...}] with HTTP-flavoured
    codes (400 bad request, 404 unknown id/op, 429 overloaded, 499 client
    cancelled, 500 failed, 503 shutting down, 504 deadline exceeded).

    The [stats] response includes a [trace] object (enabled flag, buffered
    and dropped event counts) reflecting the process-wide {!Stdx.Trace}
    state. The full request/response schema of every operation is specified
    in [PROTOCOL.md] at the repository root. *)

(** Canonical JSON response text, shared by the daemon and the routing
    proxy: object fields in the order given, no whitespace, so equal
    responses are equal bytes. *)
module Response : sig
  val jstr : string -> string
  (** A JSON string literal. *)

  val obj : (string * string) list -> string
  (** An object from pre-rendered field values, in the order given. *)

  val arr : string list -> string
  (** An array from pre-rendered items. *)

  val ok_response : (string * string) list -> string
  (** [{"ok":true,...}] followed by the given fields. *)

  val error_response : code:int -> error:string -> string -> string
  (** [{"ok":false,"error":error,"code":code,"msg":msg}]: a
      machine-readable tag, an HTTP-flavoured code and a human message. *)
end

type t
(** One service instance: scheduler + cache + metrics + registry. *)

val create :
  ?workers:int ->
  ?capacity:int ->
  ?cache_entries:int ->
  ?cache_bytes:int ->
  ?log:(string -> unit) ->
  unit ->
  t
(** Defaults: 2 worker domains, queue capacity 16, cache 512 entries /
    64 MiB, no logging. [log] receives one structured line per request
    (and per cache decision). *)

val scheduler : t -> Scheduler.t
(** The bounded scheduler behind [run]/[simulate]. *)

val cache : t -> Cache.t
(** The result cache — exposed for tests and stats. *)

val metrics : t -> Metrics.t
(** The metrics accumulator — the daemon feeds connection gauges into it
    so the `stats` RPC's [connections] block reflects the event loop. *)

val request_key : Report.Tabular.json -> string option
(** The canonical cache key a parsed [run]/[simulate] request will be
    stored under — exactly the key derivation the cache uses ([jobs]
    excluded, merged params in spec order), exposed so the routing proxy
    can consistent-hash requests onto the backend that already holds (or
    is about to hold) the entry. [None] when the request is not a valid
    compute request (bad op, unknown id/protocol, ill-typed params):
    those never reach a cache and may be routed anywhere. *)

type reply = { payload : string; shutdown : bool }
(** [shutdown] is [true] exactly when the request was an accepted
    [shutdown] op — the daemon should reply, then drain and exit. *)

val handle_async : t -> ?cancelled:(unit -> bool) -> string -> k:(reply -> unit) -> unit
(** Process one request payload without blocking the caller; [k] receives
    the reply exactly once. Cheap endpoints ([ping], [list], [stats],
    [cache], [shutdown]), validation failures, cache hits and shed
    requests call [k] {e synchronously} on the caller — the event thread
    answers them without a thread handoff; computed misses call [k] from
    the worker domain that produced the payload. [k] must not block for
    long and must not raise. [cancelled] is probed by the scheduler just
    before compute starts (the daemon passes the event loop's EOF flag).
    Never raises: every failure becomes an [ok:false] response. *)

val handle : t -> ?cancelled:(unit -> bool) -> string -> reply
(** Blocking convenience over {!handle_async} — parks the calling thread
    until the reply is ready. Used by in-process tests and the proxy's
    dispatch threads. *)

val draining : t -> bool
(** Has a [shutdown] request been accepted? *)

val shutdown : t -> unit
(** Refuse new compute work and block until in-flight jobs finish. *)
