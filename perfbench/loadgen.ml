(* The load generator: one thread driving a few client connections with
   non-blocking sockets and select(2).

   Open loop: request i is due at [start + i / rate], whatever happened
   to earlier requests, and its latency runs from that due time to its
   reply. A stall anywhere (server, network, or this process) therefore
   inflates the latency of every request that was due behind it, and the
   generator's own lateness (send time minus due time) is reported so a
   run can tell a slow server from a slow generator.

   Closed loop: every connection keeps [depth] requests in flight and
   sends the next one as each reply arrives; latency runs from the send.

   Requests go round-robin over the connections. The servers answer in
   order per connection, so each reply is matched to the oldest request
   still in flight on its connection.

   A connection the server closes or resets is dropped: the requests in
   flight on it, and every later request due on it, count as lost (and
   failed), and the phase goes on over the other connections. *)

module Wire = Server.Wire

type conn = {
  fd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  out : Buffer.t;  (* encoded frames not yet written *)
  mutable out_off : int;
  inflight : (int * float) Queue.t;  (* request index, time it was due *)
  mutable dropped : bool;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    decoder = Wire.Decoder.create ();
    out = Buffer.create 4096;
    out_off = 0;
    inflight = Queue.create ();
    dropped = false;
  }

let close c =
  if not c.dropped then begin
    c.dropped <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

type mode = Open of float  (** requests per second *) | Closed of int  (** depth per connection *)

type outcome = {
  latencies_ms : float array;  (** One per answered request, in answer order. *)
  late_ms : float array;  (** Open loop: send time minus due time, per request sent. *)
  sent : int;
  answered : int;  (** Replies received, ok or not. *)
  failed : int;  (** Non-ok replies, lost requests, and requests unanswered at the drain deadline. *)
  lost : int;  (** Requests on connections the server closed or reset. *)
  unanswered : int;  (** Requests still in flight at the drain deadline. *)
  in_window : int;  (** Replies received before the window closed. *)
  window_s : float;
}

(* Above this p99 lateness the generator, not the server, shaped the
   latencies: the run is flagged invalid and should be repeated. *)
let max_late_ms = 10.

(* How long a phase waits, after its window, for the replies in flight. *)
let drain_s = 45.

let is_ok reply = String.length reply >= 11 && String.sub reply 0 11 = "{\"ok\":true,"

let rbuf = Bytes.create 65536

(* [run ~conns ~mode ~duration ~payload ~on_reply] drives one phase.
   [payload i] is request i; [on_reply i reply] sees every reply. The
   phase sends for [duration] seconds, then waits up to [drain_s] for the
   replies still in flight. *)
let run ~conns ~mode ~duration ~payload ~on_reply =
  let conns = Array.of_list conns in
  let nconns = Array.length conns in
  let start = Unix.gettimeofday () +. 0.002 in
  let window_end = start +. duration in
  let total = match mode with Open rate -> int_of_float (rate *. duration) | Closed _ -> max_int in
  let latencies = ref [] and late = ref [] in
  let next = ref 0 and answered = ref 0 and failed = ref 0 and lost = ref 0 and in_window = ref 0 in
  let drop c =
    lost := !lost + Queue.length c.inflight;
    Queue.clear c.inflight;
    close c
  in
  (* Write as much buffered output as the socket takes. *)
  let flush c =
    let len = Buffer.length c.out - c.out_off in
    if len > 0 then
      match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
      | n ->
          c.out_off <- c.out_off + n;
          if c.out_off = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.out_off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> drop c
  in
  let send c ~due =
    let i = !next in
    incr next;
    if c.dropped then incr lost
    else begin
      Buffer.add_string c.out (Wire.encode (payload i));
      Queue.add (i, due) c.inflight;
      flush c
    end
  in
  (match mode with
  | Closed depth ->
      Array.iter
        (fun c ->
          for _ = 1 to depth do
            send c ~due:(Unix.gettimeofday ())
          done)
        conns
  | Open _ -> ());
  let due_of i = match mode with Open rate -> start +. (float_of_int i /. rate) | Closed _ -> 0. in
  let receive c now =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> drop c
    | n ->
        Wire.Decoder.feed c.decoder rbuf ~off:0 ~len:n;
        (* A frame with nothing in flight is the server's notice before it
           closes the connection (idle timeout, connection limit). *)
        let rec drain () =
          match Wire.Decoder.next c.decoder with
          | None -> ()
          | Some _ when c.dropped || Queue.is_empty c.inflight -> drain ()
          | Some reply ->
              let i, due = Queue.pop c.inflight in
              latencies := ((now -. due) *. 1000.) :: !latencies;
              incr answered;
              if now <= window_end then incr in_window;
              if not (is_ok reply) then incr failed;
              on_reply i reply;
              (match mode with
              | Closed _ when now < window_end -> send c ~due:now
              | _ -> ());
              drain ()
        in
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop c
  in
  let pending () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns in
  let rec loop () =
    let now = Unix.gettimeofday () in
    (match mode with
    | Open _ ->
        while !next < total && due_of !next <= now do
          let due = due_of !next in
          late := ((now -. due) *. 1000.) :: !late;
          send conns.(!next mod nconns) ~due
        done
    | Closed _ -> ());
    let sending = !next < total && now < window_end in
    let deadline = if sending then window_end else window_end +. drain_s in
    if now < deadline && (sending || pending ()) then begin
      let timeout =
        match mode with
        | Open _ when !next < total -> Float.max 0. (due_of !next -. now)
        | _ -> Float.min 0.05 (Float.max 0. (deadline -. now))
      in
      let live = List.filter (fun c -> not c.dropped) (Array.to_list conns) in
      let reads = List.map (fun c -> c.fd) live in
      let writes =
        List.filter_map (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None) live
      in
      let r, w, _ =
        try Unix.select reads writes [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let now = Unix.gettimeofday () in
      List.iter
        (fun c ->
          if List.mem c.fd w then flush c;
          if (not c.dropped) && List.mem c.fd r then receive c now)
        live;
      loop ()
    end
  in
  loop ();
  let unanswered = Array.fold_left (fun acc c -> acc + Queue.length c.inflight) 0 conns in
  (* A connection still owed replies is out of step: later phases must not
     match its late replies to their requests. *)
  Array.iter
    (fun c ->
      if not (Queue.is_empty c.inflight) then begin
        Queue.clear c.inflight;
        close c
      end)
    conns;
  {
    latencies_ms = Array.of_list (List.rev !latencies);
    late_ms = Array.of_list (List.rev !late);
    sent = !next;
    answered = !answered;
    failed = !failed + !lost + unanswered;
    lost = !lost;
    unanswered;
    in_window = !in_window;
    window_s = duration;
  }
