(* sketchd's TCP layer, rebuilt as an event engine: ONE thread owns every
   socket — the listener, a wake pipe, and all client connections — via a
   persistent epoll(7) registration ([Poll], no FD_SETSIZE cliff), so
   thousands of idle clients cost file descriptors, not threads, and not
   per-request work either: each socket is registered once, its interest
   changes only when it flips, and the loop visits only the connections
   the kernel reports ready or whose completions just ran. Compute still
   lands on the [Scheduler]'s worker domains; replies come back to the
   event thread as posted completions (action queue + wake pipe) and
   leave through a buffered, non-blocking write path.

   Each connection is an explicit state machine owned by the event thread:

     readable --Decoder--> pending --pump--> in-flight --k--> outq --POLLOUT

   Invariants: at most one request per connection is in flight, so replies
   stay in request order and pipelining is safe; a connection with queued
   output or a full pending queue is not read from (back-pressure — a
   stalled or flooding reader blocks only itself); EOF is seen by the loop
   the moment the peer closes, which flips the cancellation flag the
   scheduler probes — replacing the old select(2)-based client_gone peek
   that silently broke for fds >= FD_SETSIZE.

   Registrations are keyed by a per-connection id, never the descriptor
   number: a connection closed early in a ready batch can have its number
   re-accepted later in the same batch, and a stale report for the old
   connection must not reach the new one.

   The hardening knobs live here, each observable via `stats` and a trace
   instant: a max-connections cap (accept, best-effort 503 frame, close —
   "daemon.conn-limit"; the same answer at the open-files limit, through
   a spare descriptor), an idle-connection timeout (best-effort 408 frame
   — "daemon.idle-timeout"), a per-connection token-bucket rate limit
   (in-order 429 replies, connection kept — "daemon.rate-limited"), and
   TCP keepalive on accepted sockets.

   A misbehaving client still costs its own connection and nothing else:
   garbage or oversized framing gets one best-effort error frame — after
   the well-formed requests that preceded it on the stream — then the
   close. *)

(* Request handler in continuation style: the daemon calls [k] with the
   reply whenever it is ready — possibly synchronously on the event
   thread, possibly later from a worker domain or dispatch thread. *)
type async_handle = cancelled:(unit -> bool) -> string -> (Service.reply -> unit) -> unit

(* ------------------------------------------------------------------ *)
(* A small thread pool for blocking handlers                           *)

(* [start_handler]'s contract predates the event engine: [handle] is a
   plain blocking function (the proxy's does socket I/O to its backends).
   It must not run on the event thread, so a fixed pool of dispatch
   threads carries those calls; [start]'s async service path never
   touches this. *)
module Dispatch = struct
  type t = {
    q : (unit -> unit) Queue.t;
    m : Mutex.t;
    c : Condition.t;
    mutable closing : bool;
    mutable threads : Thread.t list;
  }

  let create ~threads =
    let d =
      { q = Queue.create (); m = Mutex.create (); c = Condition.create ();
        closing = false; threads = [] }
    in
    let rec worker () =
      Mutex.lock d.m;
      while Queue.is_empty d.q && not d.closing do
        Condition.wait d.c d.m
      done;
      if Queue.is_empty d.q then Mutex.unlock d.m
      else begin
        let f = Queue.pop d.q in
        Mutex.unlock d.m;
        (try f () with _ -> ());
        worker ()
      end
    in
    d.threads <- List.init (max 1 threads) (fun _ -> Thread.create worker ());
    d

  let submit d f =
    Mutex.lock d.m;
    if d.closing then begin
      Mutex.unlock d.m;
      (* Draining: run inline rather than drop a completion. *)
      try f () with _ -> ()
    end
    else begin
      Queue.add f d.q;
      Condition.signal d.c;
      Mutex.unlock d.m
    end

  let shutdown d =
    Mutex.lock d.m;
    d.closing <- true;
    Condition.broadcast d.c;
    Mutex.unlock d.m;
    List.iter Thread.join d.threads
end

(* ------------------------------------------------------------------ *)
(* Connection state                                                    *)

type conn = {
  id : int;  (* the connection's [Poll] key *)
  fd : Unix.file_descr;
  mutable interest : int;  (* the mask currently registered with [Poll] *)
  decoder : Wire.Decoder.t;
  outq : string Queue.t;  (* encoded frames awaiting socket room *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  pending : string Queue.t;  (* decoded requests not yet dispatched *)
  mutable busy : bool;  (* one request is at the handler *)
  mutable eof : bool;  (* no more reads; serve what's pending, then close *)
  mutable closing : bool;  (* close as soon as outq drains *)
  mutable dead : bool;  (* closed and removed; discard late completions *)
  gone : bool Atomic.t;  (* the scheduler's cancellation probe reads this *)
  mutable failure : string option;  (* framing-error frame, sent after pending *)
  mutable last_activity : float;
  mutable tokens : float;  (* rate-limit token bucket *)
  mutable last_refill : float;
  mutable req_t0 : float;  (* dispatch time of the in-flight request *)
}

type config = {
  max_conns : int;
  idle_timeout_s : float;  (* <= 0 disables *)
  rate_limit : float;  (* requests/second per connection; <= 0 disables *)
  keepalive : bool;
}

type t = {
  ahandle : async_handle;
  on_drain : unit -> unit;  (* run once by [wait] after the loop exits *)
  service : Service.t option;
  metrics : Metrics.t option;
  cfg : config;
  listen_fd : Unix.file_descr;
  port : int;
  (* Cross-thread door into the loop: completions (and stop requests)
     enqueue an action and write one byte into the wake pipe. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  amutex : Mutex.t;
  actions : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable abort : bool;
  mutable ev_thread : Thread.t option;
  (* Event-thread-only state below. *)
  conns : (int, conn) Hashtbl.t;  (* by [conn.id] *)
  dispatch : Dispatch.t option;
  rbuf : Bytes.t;
  poller : Poll.t;
  mutable next_id : int;
  tick_ms : int;  (* wait timeout and idle-sweep period *)
  mutable next_sweep : float;
  mutable listener_open : bool;
  (* One descriptor held back for the descriptor limit: closing it makes
     room to accept and answer one connection that [accept] alone could
     not take. [None] while it cannot be reopened; the listener's read
     interest is then dropped until a connection closes. *)
  mutable spare : Unix.file_descr option;
  mutable listen_paused : bool;
}

(* [Poll] keys of the two fixed registrations; connections count up from
   [first_conn_key] and are never reused. *)
let wake_key = 0
let listen_key = 1
let first_conn_key = 2

let port t = t.port

(* Decoded-but-undispatched requests one connection may hold before the
   loop stops reading from it: bounds a pipelining flood the same way
   queued output bounds a stalled reader. *)
let pending_max = 64

let locked t f =
  Mutex.lock t.amutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.amutex) f

let wake_byte = Bytes.of_string "!"

(* Nonblocking write; a full pipe already guarantees a wake-up. *)
let wake t = try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let post t f =
  locked t (fun () -> Queue.add f t.actions);
  wake t

let frame_error ~code ~error msg =
  Printf.sprintf "{\"ok\":false,\"error\":%S,\"code\":%d,\"msg\":%S}" error code msg

let metric t f = match t.metrics with Some m -> f m | None -> ()

(* ------------------------------------------------------------------ *)
(* The spare descriptor                                                *)

let open_spare () =
  match Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | fd -> Some fd
  | exception Unix.Unix_error _ -> None

(* With no spare, a full descriptor table leaves the level-triggered
   listener ready forever; stop watching it rather than spin. *)
let pause_listener t =
  if t.listener_open && not t.listen_paused then begin
    Poll.modify t.poller t.listen_fd ~key:listen_key 0;
    t.listen_paused <- true
  end

(* Called while paused (so with no spare) as a descriptor is freed:
   take the spare back, then listen again. *)
let resume_listener t =
  t.spare <- open_spare ();
  if Option.is_some t.spare then begin
    t.listen_paused <- false;
    if t.listener_open then Poll.modify t.poller t.listen_fd ~key:listen_key Poll.pollin
  end

(* ------------------------------------------------------------------ *)
(* Event-thread connection machinery                                   *)

let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    Atomic.set conn.gone true;
    Hashtbl.remove t.conns conn.id;
    Poll.remove t.poller conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    metric t Metrics.conn_closed;
    if t.listen_paused then resume_listener t
  end

(* The interest a connection's state calls for. Back-pressure by
   omission: pending output (POLLOUT only) or a full pending queue
   suspends reads; EOF'd and garbage streams are never read again. *)
let interest_of conn =
  if not (Queue.is_empty conn.outq) then Poll.pollout
  else if (not conn.eof) && Queue.length conn.pending < pending_max then Poll.pollin
  else 0

(* Bring the kernel registration in line with the connection's state —
   a syscall only when the interest flips. Called on every connection the
   loop touched: ready ones and those whose completion just ran. *)
let sync_interest t conn =
  if not conn.dead then begin
    let want = interest_of conn in
    if want <> conn.interest then
      match Poll.modify t.poller conn.fd ~key:conn.id want with
      | () -> conn.interest <- want
      | exception Unix.Unix_error _ -> close_conn t conn
  end

(* Push as much of the out-queue into the socket as it will take; stop at
   the first partial write (POLLOUT finishes the job later). A write
   error is a dead peer — close. *)
let rec try_flush t conn =
  if not conn.dead then
    if Queue.is_empty conn.outq then begin
      if
        conn.closing
        || (conn.eof && (not conn.busy) && Queue.is_empty conn.pending
            && conn.failure = None)
      then close_conn t conn
    end
    else begin
      let head = Queue.peek conn.outq in
      let len = String.length head - conn.out_off in
      match Unix.write conn.fd (Bytes.unsafe_of_string head) conn.out_off len with
      | n when n = len ->
          ignore (Queue.pop conn.outq);
          conn.out_off <- 0;
          try_flush t conn
      | n -> conn.out_off <- conn.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> try_flush t conn
      | exception Unix.Unix_error _ -> close_conn t conn
    end

let enqueue_frame t conn payload =
  Queue.add (Wire.encode payload) conn.outq;
  try_flush t conn

(* Dispatch the next pending request if the connection is quiet: nothing
   in flight, nothing buffered for write. Called after every state change
   that could unblock one. *)
let rec pump t conn =
  if (not conn.dead) && (not conn.busy) && (not conn.closing) && Queue.is_empty conn.outq
  then
    if Queue.is_empty conn.pending then begin
      match conn.failure with
      | Some frame ->
          (* Framing garbage is reported only after every request that
             preceded it on the stream has been answered, matching the
             blocking daemon's frame-at-a-time order. *)
          conn.failure <- None;
          conn.closing <- true;
          enqueue_frame t conn frame
      | None -> if conn.eof then close_conn t conn
    end
    else if locked t (fun () -> t.stopping) then ()
    else if t.cfg.rate_limit > 0. then begin
      (* Token bucket: capacity = one second of burst, refilled
         continuously. An empty bucket answers 429 in order and keeps the
         connection — a client that slows down recovers. *)
      let now = Unix.gettimeofday () in
      let cap = Float.max 1. t.cfg.rate_limit in
      conn.tokens <-
        Float.min cap (conn.tokens +. ((now -. conn.last_refill) *. t.cfg.rate_limit));
      conn.last_refill <- now;
      if conn.tokens < 1. then begin
        ignore (Queue.pop conn.pending);
        metric t Metrics.rate_limited;
        Stdx.Trace.instant "daemon.rate-limited";
        enqueue_frame t conn
          (frame_error ~code:429 ~error:"rate-limited"
             "per-connection request rate exceeded; slow down");
        pump t conn
      end
      else begin
        conn.tokens <- conn.tokens -. 1.;
        dispatch_one t conn
      end
    end
    else dispatch_one t conn

and dispatch_one t conn =
  let request = Queue.pop conn.pending in
  conn.busy <- true;
  conn.req_t0 <- Unix.gettimeofday ();
  let k reply = post t (fun () -> on_reply t conn reply) in
  match t.ahandle ~cancelled:(fun () -> Atomic.get conn.gone) request k with
  | () -> ()
  | exception e ->
      (* The handler contract says "never raise"; if one does anyway,
         answer a 500 so the connection's reply order survives. *)
      k
        {
          Service.payload = frame_error ~code:500 ~error:"failed" (Printexc.to_string e);
          shutdown = false;
        }

and on_reply t conn reply =
  if reply.Service.shutdown then locked t (fun () -> t.stopping <- true);
  if not conn.dead then begin
    conn.busy <- false;
    conn.last_activity <- Unix.gettimeofday ();
    enqueue_frame t conn reply.Service.payload;
    (* Whole-request envelope: dispatch + compute + response write (a
       buffered remainder drains via POLLOUT outside the span, much as
       the blocking daemon's write_frame could block inside it). *)
    Stdx.Trace.complete ~t0:conn.req_t0 ~t1:(Unix.gettimeofday ()) "daemon.request";
    pump t conn;
    sync_interest t conn
  end

(* Frame reassembly over freshly read bytes. A framing error parks one
   error frame in [conn.failure] (served after the pending requests) and
   stops all further reading — the stream position is unrecoverable. *)
let feed_conn t conn n =
  match Wire.Decoder.feed conn.decoder t.rbuf ~off:0 ~len:n with
  | () ->
      let rec drain () =
        match Wire.Decoder.next conn.decoder with
        | Some request ->
            Queue.add request conn.pending;
            drain ()
        | None -> ()
      in
      drain ()
  | exception Wire.Malformed msg ->
      conn.failure <- Some (frame_error ~code:400 ~error:"malformed-frame" msg);
      conn.eof <- true
  | exception Wire.Oversized n ->
      conn.failure <-
        Some
          (frame_error ~code:400 ~error:"oversized-frame"
             (Printf.sprintf "declared %d bytes; max %d" n Wire.max_frame));
      conn.eof <- true

let on_eof t conn =
  conn.eof <- true;
  Atomic.set conn.gone true;
  (* Half-close semantics, same as the blocking daemon's: requests that
     arrived before the FIN are still answered (the peer may be reading),
     but their queued compute is flagged for cancellation. *)
  if
    (not conn.busy) && Queue.is_empty conn.pending && Queue.is_empty conn.outq
    && conn.failure = None
  then close_conn t conn

let read_conn t conn =
  let rec go budget =
    if budget > 0 && (not conn.dead) && not conn.eof then
      match Unix.read conn.fd t.rbuf 0 (Bytes.length t.rbuf) with
      | 0 -> on_eof t conn
      | n ->
          conn.last_activity <- Unix.gettimeofday ();
          feed_conn t conn n;
          (* A full buffer means more may be waiting; a short read means
             the socket drained. The budget keeps one firehose client
             from starving the rest of the loop. *)
          if n = Bytes.length t.rbuf && Queue.length conn.pending < pending_max then
            go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go budget
      | exception Unix.Unix_error _ -> close_conn t conn
  in
  go 4;
  if not conn.dead then pump t conn

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)

(* Accept-then-503: the client learns why instead of waiting in the
   backlog. Best-effort single write — the frame is tiny and the socket
   buffer empty, so a short write means a dead peer. *)
let reject t fd msg =
  metric t Metrics.conn_rejected;
  Stdx.Trace.instant "daemon.conn-limit";
  let frame = Wire.encode (frame_error ~code:503 ~error:"conn-limit" msg) in
  (try ignore (Unix.write fd (Bytes.unsafe_of_string frame) 0 (String.length frame))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let admit t fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  if t.cfg.keepalive then
    (try Unix.setsockopt fd Unix.SO_KEEPALIVE true with Unix.Unix_error _ -> ());
  if locked t (fun () -> t.stopping) then (
    try Unix.close fd with Unix.Unix_error _ -> ())
  else if Hashtbl.length t.conns >= t.cfg.max_conns then
    reject t fd
      (Printf.sprintf "connection limit (%d) reached; retry later" t.cfg.max_conns)
  else begin
    Stdx.Trace.instant "daemon.accept";
    let now = Unix.gettimeofday () in
    let id = t.next_id in
    t.next_id <- id + 1;
    let conn =
      {
        id;
        fd;
        interest = Poll.pollin;
        decoder = Wire.Decoder.create ();
        outq = Queue.create ();
        out_off = 0;
        pending = Queue.create ();
        busy = false;
        eof = false;
        closing = false;
        dead = false;
        gone = Atomic.make false;
        failure = None;
        last_activity = now;
        tokens = Float.max 1. t.cfg.rate_limit;
        last_refill = now;
        req_t0 = now;
      }
    in
    match Poll.add t.poller fd ~key:id conn.interest with
    | () ->
        Hashtbl.replace t.conns id conn;
        metric t Metrics.conn_opened
    | exception Unix.Unix_error _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  end

(* The descriptor table is full and the pending connection stays in the
   backlog, so the listener stays ready: answer it through the spare's
   slot with a 503 and take the spare back, or, with no spare, stop
   watching the listener until a connection closes. *)
let at_descriptor_limit t =
  (match t.spare with
  | None -> ()
  | Some spare -> (
      (try Unix.close spare with Unix.Unix_error _ -> ());
      t.spare <- None;
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ -> reject t fd "descriptor limit reached; retry later"
      | exception Unix.Unix_error _ -> ()));
  t.spare <- open_spare ();
  if Option.is_none t.spare then pause_listener t

let accept_burst t =
  let rec go n =
    if n > 0 then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          admit t fd;
          go (n - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go n
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          at_descriptor_limit t;
          if Option.is_some t.spare then go (n - 1)
      (* Transient accept failure (ECONNABORTED, ...): drop. *)
      | exception Unix.Unix_error _ -> ()
  in
  go 64

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* At most once per [tick_ms]: the sweep is the one pass over every open
   connection, so it must not run on every wakeup of a busy loop. *)
let idle_sweep t =
  let now = Unix.gettimeofday () in
  if t.cfg.idle_timeout_s > 0. && now >= t.next_sweep then begin
    t.next_sweep <- now +. (float_of_int t.tick_ms /. 1000.);
    let victims =
      Hashtbl.fold
        (fun _ conn acc ->
          if
            (not conn.busy) && Queue.is_empty conn.outq && Queue.is_empty conn.pending
            && now -. conn.last_activity > t.cfg.idle_timeout_s
          then conn :: acc
          else acc)
        t.conns []
    in
    List.iter
      (fun conn ->
        metric t Metrics.idle_timeout;
        Stdx.Trace.instant "daemon.idle-timeout";
        let frame =
          Wire.encode
            (frame_error ~code:408 ~error:"idle-timeout"
               (Printf.sprintf "idle longer than %gs; closing" t.cfg.idle_timeout_s))
        in
        (try ignore (Unix.write conn.fd (Bytes.unsafe_of_string frame) 0 (String.length frame))
         with Unix.Unix_error _ -> ());
        close_conn t conn)
      victims
  end

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let run_actions t =
  let batch =
    locked t (fun () ->
        let b = Queue.copy t.actions in
        Queue.clear t.actions;
        b)
  in
  Queue.iter (fun f -> try f () with _ -> ()) batch

(* One connection's readiness report from the kernel. *)
let on_ready t conn events =
  if events land Poll.pollerr <> 0 then close_conn t conn
  else begin
    if events land Poll.pollout <> 0 then begin
      try_flush t conn;
      if not conn.dead then pump t conn
    end;
    if (not conn.dead) && events land Poll.pollin <> 0 then read_conn t conn
    else if
        (* HUP with nothing readable and nothing in flight: the peer is
           gone for good — let read observe the EOF. *)
        (not conn.dead) && events land Poll.pollhup <> 0
        && Queue.is_empty conn.outq && not conn.busy
      then read_conn t conn;
    sync_interest t conn
  end

let close_listener t =
  if t.listener_open then begin
    t.listener_open <- false;
    Poll.remove t.poller t.listen_fd;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let event_loop t =
  let rec loop () =
    run_actions t;
    let stopping, abort = locked t (fun () -> (t.stopping, t.abort)) in
    if stopping then begin
      close_listener t;
      let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter
        (fun conn ->
          (* Gentle drain: keep a connection only while a reply is in
             flight or still flushing; abort closes everything now. *)
          if abort || ((not conn.busy) && Queue.is_empty conn.outq) then
            close_conn t conn)
        all
    end;
    if stopping && Hashtbl.length t.conns = 0 then ()
    else begin
      let n = Poll.wait t.poller ~timeout_ms:(if stopping then 50 else t.tick_ms) in
      for i = 0 to n - 1 do
        let key = Poll.key t.poller i in
        if key = wake_key then drain_wake t
        else if key = listen_key then accept_burst t
        else
          (* A miss is a connection closed earlier in this batch. *)
          match Hashtbl.find_opt t.conns key with
          | Some conn -> on_ready t conn (Poll.events t.poller i)
          | None -> ()
      done;
      idle_sweep t;
      loop ()
    end
  in
  loop ();
  close_listener t;
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.spare;
  t.spare <- None;
  Poll.close t.poller

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* Descriptors beyond [max_conns] connections that the reserved table
   leaves room for: the listener, wake pipe, epoll instance, spare and
   the process's own files. *)
let fd_headroom = 64
let default_max_conns = 8192

(* Grow the descriptor table for [max_conns] connections now, before the
   daemon starts its first thread: with one thread the growth waits no
   RCU grace period, and the accept path never grows it later. *)
let reserve_descriptors max_conns =
  ignore (Poll.reserve (Option.value max_conns ~default:default_max_conns + fd_headroom))

let start_async ?(host = "127.0.0.1") ?(port = 0) ?(on_drain = fun () -> ()) ?service
    ?metrics ?(max_conns = default_max_conns) ?(idle_timeout_s = 0.) ?(rate_limit = 0.)
    ?(keepalive = true) ?dispatch ~ahandle () =
  if max_conns < 1 then invalid_arg "Daemon: max_conns must be at least 1";
  (* A dead client mid-write must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.inet_addr_of_string host in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try Unix.bind listen_fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd 511;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let poller = Poll.create () in
  Poll.add poller wake_r ~key:wake_key Poll.pollin;
  Poll.add poller listen_fd ~key:listen_key Poll.pollin;
  let t =
    {
      ahandle;
      on_drain;
      service;
      metrics;
      cfg = { max_conns; idle_timeout_s; rate_limit; keepalive };
      listen_fd;
      port;
      wake_r;
      wake_w;
      amutex = Mutex.create ();
      actions = Queue.create ();
      stopping = false;
      abort = false;
      ev_thread = None;
      conns = Hashtbl.create 64;
      dispatch;
      rbuf = Bytes.create 65536;
      poller;
      next_id = first_conn_key;
      tick_ms =
        (if idle_timeout_s > 0. then max 10 (min 1000 (int_of_float (idle_timeout_s *. 250.)))
         else 1000);
      next_sweep = 0.;
      listener_open = true;
      spare = open_spare ();
      listen_paused = false;
    }
  in
  t.ev_thread <- Some (Thread.create (fun () -> event_loop t) ());
  t

let start_handler ?host ?port ?on_drain ?service ?metrics ?max_conns ?idle_timeout_s
    ?rate_limit ?keepalive ?(dispatch_threads = 16) ~handle () =
  reserve_descriptors max_conns;
  let dispatch = Dispatch.create ~threads:dispatch_threads in
  let ahandle ~cancelled request k =
    Dispatch.submit dispatch (fun () -> k (handle ~cancelled request))
  in
  start_async ?host ?port ?on_drain ?service ?metrics ?max_conns ?idle_timeout_s
    ?rate_limit ?keepalive ~dispatch ~ahandle ()

let start ?host ?port ?workers ?capacity ?cache_entries ?cache_bytes ?max_conns
    ?idle_timeout_s ?rate_limit ?keepalive ?log () =
  reserve_descriptors max_conns;
  let service = Service.create ?workers ?capacity ?cache_entries ?cache_bytes ?log () in
  start_async ?host ?port
    ~on_drain:(fun () -> Service.shutdown service)
    ~service
    ~metrics:(Service.metrics service)
    ?max_conns ?idle_timeout_s ?rate_limit ?keepalive
    ~ahandle:(fun ~cancelled request k -> Service.handle_async service ~cancelled request ~k)
    ()

let service t =
  match t.service with
  | Some s -> s
  | None -> invalid_arg "Daemon.service: handler daemon has no service"

let stop ?(abort_connections = false) t =
  locked t (fun () ->
      t.stopping <- true;
      if abort_connections then t.abort <- true);
  wake t

let wait t =
  (match t.ev_thread with Some th -> Thread.join th | None -> ());
  (match t.dispatch with Some d -> Dispatch.shutdown d | None -> ());
  t.on_drain ();
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ())
