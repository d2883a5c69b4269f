(** The sketchproxy routing tier: consistent-hash request placement across
    N sketchd backends, speaking the same {!Wire} protocol on both sides.

    Compute requests ([run]/[simulate]) route by their canonical cache key
    ({!Service.request_key} — exactly the derivation the backend cache
    uses), so a request always lands on the backend whose cache holds, or
    is about to hold, its entry. The determinism contract (PROTOCOL.md §5)
    makes failover safe: any replica recomputes the byte-identical
    response its dead peer would have served.

    The proxy answers [ping], [cluster], [stats] (aggregated across
    backends) and [shutdown] itself; everything else forwards verbatim. A
    transport failure marks the backend down and fails over to the next
    ring successor; a shed response (429/503) backs off briefly and tries
    the next replica, relaying the final shed response only when every
    backend sheds. No backend reachable at all is error 502
    [no-backend]. *)

type t
(** One proxy instance (with or without a TCP front). *)

val create :
  ?vnodes:int ->
  ?shed_backoff_ms:int ->
  ?log:(string -> unit) ->
  backends:string list ->
  unit ->
  t
(** A socket-free proxy over [backends] (each ["HOST:PORT"]) — drive it
    with {!handle} for in-process tests. [vnodes] (default 128) is ring
    points per backend; [shed_backoff_ms] (default 5) is the pause before
    retrying past a shed response. Raises [Invalid_argument] on a
    malformed address, an empty or duplicate-bearing backend list.
    Backends need not be reachable yet: health starts optimistic and
    adjusts on first contact. *)

val handle : t -> ?cancelled:(unit -> bool) -> string -> Service.reply
(** Process one request payload, forwarding compute ops with failover.
    Same contract as {!Service.handle}: never raises, every failure is an
    [ok:false] payload. *)

val ring : t -> Ring.t
(** The routing ring — exposed so tests can predict placement. *)

val health : t -> Health.t
(** The live health table. *)

val check_health : t -> unit
(** One synchronous [ping] sweep of every backend (what the background
    pinger runs periodically). *)

val draining : t -> bool
(** Has a [shutdown] request been accepted? *)

val close : t -> unit
(** Stop the pinger (if started) and close pooled backend connections.
    Idempotent; called automatically when a {!start}ed proxy drains. *)

val render_stats :
  version:string ->
  uptime_s:float ->
  m:Metrics.snapshot ->
  forwarded:int ->
  failovers:int ->
  retries:int ->
  shed_relayed:int ->
  backends:(string * bool * Report.Tabular.json option) list ->
  string
(** The aggregated cluster [stats] payload as a pure function of its
    inputs — exposed so the golden snapshot test can pin the schema
    without live backends. [backends] carries each backend's address,
    health verdict, and parsed [stats] response ([None] = unreachable).
    Counter fields sum across backends; latency percentiles stay
    per-backend (they do not aggregate). *)

(** {1 TCP front} *)

val start :
  ?host:string ->
  ?port:int ->
  ?vnodes:int ->
  ?health_interval_s:float ->
  ?shed_backoff_ms:int ->
  ?max_conns:int ->
  ?idle_timeout_s:float ->
  ?rate_limit:float ->
  ?keepalive:bool ->
  ?dispatch_threads:int ->
  ?log:(string -> unit) ->
  backends:string list ->
  unit ->
  t
(** {!create}, then listen via {!Daemon.start_handler} (the same epoll
    event engine, frame reassembly and graceful drain as sketchd — the
    proxy inherits every connection knob) and start a background health
    pinger sweeping every [health_interval_s] (default 2.0) seconds.
    [max_conns]/[idle_timeout_s]/[rate_limit]/[keepalive]/[dispatch_threads]
    are {!Daemon.start_handler}'s; the daemon feeds connection gauges into
    this proxy's own metrics. [port 0] (the default) lets the kernel
    choose — read it back with {!port}. *)

val port : t -> int
(** The bound TCP port. Raises [Invalid_argument] unless {!start}ed. *)

val stop : ?abort_connections:bool -> t -> unit
(** Begin shutdown of the TCP front ({!Daemon.stop}). *)

val wait : t -> unit
(** Block until the TCP front has drained ({!Daemon.wait}); also stops
    the pinger and closes backend pools. *)
