(** The [sketchd] TCP daemon: a single epoll(7)-based event loop owning
    every socket — {!Service} does the thinking, this module does the I/O.

    Concurrency shape: one event thread multiplexes the listener and all
    client connections via {!Poll} (no [select], no [FD_SETSIZE] cliff).
    Each socket is registered once and its interest changed only when it
    flips, so an idle connection costs a descriptor and no per-request
    work: the loop visits only the connections the kernel reports ready
    or whose replies just completed. Frames reassemble incrementally on
    {!Wire.Decoder}; compute rides the {!Scheduler}'s worker domains and
    replies return to the event thread as posted completions. Each
    connection is an explicit state machine:
    at most one request in flight (replies stay in request order, so
    clients may pipeline), partial writes buffered per connection, and
    reads suspended while output is pending or the pending-request queue
    is full — back-pressure that a slow or flooding client pays alone.

    A misbehaving client — garbage frame, oversized frame, mid-request
    disconnect — costs its own connection and nothing else. The event
    loop notices EOF immediately, which flags the scheduler's
    cancellation probe for that connection's queued compute.

    Hardening knobs (each observable in the `stats` RPC's [connections]
    block and as a trace instant): [max_conns] (accept, best-effort
    503 [conn-limit] frame, close), [idle_timeout_s] (best-effort 408
    [idle-timeout] frame), [rate_limit] (in-order 429 [rate-limited]
    replies; the connection survives), and TCP [keepalive]. At the
    process's open-files limit the daemon answers the same 503 through
    a spare descriptor it holds for the purpose, rather than leave the
    connection in the backlog and the listener ready.

    {b Descriptor reservation.} {!start} and {!start_handler} first grow
    the process's descriptor table to [max_conns + 64] slots, clamped to
    the soft [RLIMIT_NOFILE] ({!Poll.reserve}); no descriptor of the
    caller's is touched. Linux grows the table by doubling, and in a
    process with more than one thread each doubling waits an RCU grace
    period. Both functions start threads after the reservation, so
    accepting a connection herd later never grows the table. The
    precondition is that the caller has started no thread of its own
    yet; an embedding process that already has threads pays one grace
    period for the reservation instead of one per doubling. *)

type t
(** A running daemon: listener plus one event thread. *)

val start :
  ?host:string ->
  ?port:int ->
  ?workers:int ->
  ?capacity:int ->
  ?cache_entries:int ->
  ?cache_bytes:int ->
  ?max_conns:int ->
  ?idle_timeout_s:float ->
  ?rate_limit:float ->
  ?keepalive:bool ->
  ?log:(string -> unit) ->
  unit ->
  t
(** Bind, listen and start accepting. [port 0] (the default) lets the
    kernel choose — read it back with {!port}. [host] defaults to
    ["127.0.0.1"]. [workers]/[capacity]/[cache_entries]/[cache_bytes]/[log]
    are {!Service.create}'s. Connection knobs: [max_conns] (default 8192)
    caps concurrent connections; [idle_timeout_s] (default 0 = off) evicts
    idle connections; [rate_limit] (default 0 = off) is requests/second
    per connection; [keepalive] (default true) sets [SO_KEEPALIVE] on
    accepted sockets. Installs a [SIGPIPE] ignore (a dead client
    mid-write must surface as [EPIPE]). The first step, before
    {!Service.create} spawns worker domains, reserves the descriptor
    table for [max_conns] (see above). *)

val start_handler :
  ?host:string ->
  ?port:int ->
  ?on_drain:(unit -> unit) ->
  ?service:Service.t ->
  ?metrics:Metrics.t ->
  ?max_conns:int ->
  ?idle_timeout_s:float ->
  ?rate_limit:float ->
  ?keepalive:bool ->
  ?dispatch_threads:int ->
  handle:(cancelled:(unit -> bool) -> string -> Service.reply) ->
  unit ->
  t
(** {!start} generalised over the request brain: the same event engine —
    epoll loop, frame reassembly, buffered writes, connection limits,
    graceful drain — around an arbitrary blocking payload-to-reply
    function. This is how {!Proxy} listens without duplicating any socket
    machinery. [handle] runs on an internal pool of [dispatch_threads]
    (default 16) so its blocking I/O never stalls the event loop; it must
    never raise (every failure should become an [ok:false] payload).
    [metrics] receives the connection gauges (pass the proxy's own
    accumulator so its `stats` sees them). [on_drain] runs once inside
    {!wait} after the loop exits. The first step, before the dispatch
    pool starts its threads, reserves the descriptor table for
    [max_conns] (see above). *)

val port : t -> int
(** The bound TCP port (kernel-chosen when [start ~port:0]). *)

val service : t -> Service.t
(** The daemon's brain — exposed for in-process tests and stats. Raises
    [Invalid_argument] on a {!start_handler} daemon started without one. *)

val stop : ?abort_connections:bool -> t -> unit
(** Begin shutdown: close the listener (no new connections), stop
    dispatching pending requests, and close each connection once its
    in-flight reply has flushed. With [~abort_connections:true] — the
    signal path — close every connection immediately; in-flight
    computations still complete on the worker domains (their replies are
    discarded). The [shutdown] RPC triggers the gentle variant
    internally, after its acknowledgement frame is queued. *)

val wait : t -> unit
(** Block until the daemon is stopped (by {!stop}, a [shutdown] RPC, or a
    signal handler calling {!stop}) and the event loop has exited, then
    drain the dispatch pool and the scheduler. The daemon's main thread
    lives here. *)
