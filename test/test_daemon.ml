(* The epoll-based event engine, attacked over real sockets: incremental
   frame reassembly (slowloris), pipelining with in-order replies,
   buffered partial writes to a stalled reader, connection churn that
   reuses descriptor numbers under a pipelining client, the idle-timeout /
   rate-limit / max-connections hardening knobs, EOF-driven compute
   cancellation, and connections whose fd number exceeds FD_SETSIZE —
   the cliff that broke the old select(2)-based client_gone probe.

   [Wire.Decoder] and [Poll] unit tests live here too: the daemon's
   framing is only as good as reassembly across arbitrary chunk
   boundaries, and its scheduling only as good as the readiness the
   registration reports. *)

module T = Report.Tabular
module W = Server.Wire

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let is_ok j = T.member "ok" j = Some (T.Jbool true)

let error_tag j =
  match T.member "error" j with Some (T.Jstr e) -> e | _ -> "(no error field)"

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let with_daemon ?workers ?capacity ?max_conns ?idle_timeout_s ?rate_limit f =
  let d = Server.Daemon.start ?workers ?capacity ?max_conns ?idle_timeout_s ?rate_limit () in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop ~abort_connections:true d;
      Server.Daemon.wait d)
    (fun () -> f d (Server.Daemon.port d))

(* ------------------------------------------------------------------ *)
(* Wire.Decoder: reassembly across arbitrary chunk boundaries          *)

let feed_string dec s ~chunk =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let len = min chunk (n - off) in
      W.Decoder.feed dec (Bytes.sub b off len) ~off:0 ~len;
      go (off + len)
    end
  in
  go 0

let drain dec =
  let rec go acc =
    match W.Decoder.next dec with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let test_decoder_reassembly () =
  let frames = [ "{\"op\":\"ping\"}"; ""; String.make 300 'x'; "tail" ] in
  let stream = String.concat "" (List.map W.encode frames) in
  (* Every chunk size must produce the same frames in the same order —
     byte-at-a-time is the slowloris case, large chunks the batched one. *)
  List.iter
    (fun chunk ->
      let dec = W.Decoder.create () in
      feed_string dec stream ~chunk;
      Alcotest.(check (list string))
        (Printf.sprintf "chunk=%d" chunk)
        frames (drain dec);
      checki (Printf.sprintf "nothing buffered after chunk=%d" chunk) 0 (W.Decoder.buffered dec))
    [ 1; 2; 3; 7; 64; String.length stream ];
  (* A frame cut mid-payload stays buffered, not delivered. *)
  let dec = W.Decoder.create () in
  let frame = W.encode "{\"op\":\"list\"}" in
  feed_string dec (String.sub frame 0 (String.length frame - 3)) ~chunk:4;
  checkb "partial frame not delivered" true (W.Decoder.next dec = None);
  checkb "partial frame counted as buffered" true (W.Decoder.buffered dec > 0)

let test_decoder_defenses () =
  (* Nine continuation bytes: header budget exhausted. *)
  let dec = W.Decoder.create () in
  checkb "overlong header raises Malformed" true
    (match feed_string dec (String.make 9 '\xff') ~chunk:1 with
    | () -> false
    | exception W.Malformed _ -> true);
  (* A declared size over the cap dies at the header, before any payload
     allocation. *)
  let w = Stdx.Bitbuf.Writer.create () in
  Stdx.Bitbuf.Writer.uvarint w (W.max_frame + 1);
  let header, _ = Stdx.Bitbuf.Writer.contents w in
  let dec = W.Decoder.create () in
  checkb "oversized declaration raises Oversized" true
    (match feed_string dec (Bytes.to_string header) ~chunk:2 with
    | () -> false
    | exception W.Oversized _ -> true)

(* ------------------------------------------------------------------ *)
(* Poll: persistent registration over a pipe and a socket pair         *)

let test_poll_registration () =
  let module P = Server.Poll in
  let p = P.create () in
  let r, w = Unix.pipe () and a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      P.close p;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w; b ])
    (fun () ->
      (* Keys come back verbatim — a full-width int, not a descriptor. *)
      let kr = 1 lsl 40 and ka = 7 in
      let ready () =
        let n = P.wait p ~timeout_ms:0 in
        List.sort compare (List.init n (fun i -> (P.key p i, P.events p i)))
      in
      let reports key bit = List.exists (fun (k, e) -> k = key && e land bit <> 0) (ready ()) in
      let quiet () = ready () = [] in
      let put fd = ignore (Unix.write_substring fd "x" 0 1) in
      let take fd = ignore (Unix.read fd (Bytes.create 16) 0 16) in
      P.add p r ~key:kr P.pollin;
      P.add p a ~key:ka 0;
      checkb "empty pipe and zero interest: nothing ready" true (quiet ());
      put w;
      checkb "pipe readable under its key" true (reports kr P.pollin);
      checkb "level-triggered: reported again while unread" true (reports kr P.pollin);
      take r;
      checkb "drained pipe goes quiet" true (quiet ());
      P.modify p a ~key:ka P.pollout;
      checkb "interest flipped to out: writable" true (reports ka P.pollout);
      P.modify p a ~key:ka P.pollin;
      checkb "flipped to in, nothing sent: quiet" true (quiet ());
      put b;
      checkb "flipped to in: readable" true (reports ka P.pollin);
      P.modify p a ~key:ka 0;
      checkb "flipped to 0: unread data not reported" true (quiet ());
      P.modify p a ~key:ka P.pollin;
      checkb "flipped back to in: still readable" true (reports ka P.pollin);
      take a;
      P.remove p r;
      put w;
      checkb "removed descriptor no longer reported" true (quiet ());
      (* Closing deregisters in the kernel; removing it afterwards, or
         removing twice, must be harmless. *)
      Unix.close a;
      P.remove p a;
      P.remove p r;
      checkb "still quiet after harmless removes" true (quiet ()))

(* ------------------------------------------------------------------ *)
(* The descriptor table                                                *)

(* A line of a /proc/self file whose first words are [prefix]: its
   remaining words. *)
let proc_self_fields file prefix =
  let words s =
    String.map (function '\t' -> ' ' | c -> c) s
    |> String.split_on_char ' ' |> List.filter (( <> ) "")
  in
  let skip = String.length prefix in
  In_channel.with_open_text file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Alcotest.failf "%s has no %S line" file prefix
        | Some line when String.starts_with ~prefix line ->
            words (String.sub line skip (String.length line - skip))
        | Some _ -> go ()
      in
      go ())

(* The slots the process's descriptor table has now. *)
let fd_table_size () = int_of_string (List.hd (proc_self_fields "/proc/self/status" "FDSize:"))

let soft_fd_limit () =
  match proc_self_fields "/proc/self/limits" "Max open files" with
  | "unlimited" :: _ -> max_int
  | soft :: _ -> int_of_string soft
  | [] -> Alcotest.fail "no soft open-files limit"

(* Every open descriptor with what it refers to. The listing's own
   directory descriptor is closed by the time it is read back, so it
   drops out. *)
let open_fds () =
  List.filter_map
    (fun name ->
      match Unix.readlink ("/proc/self/fd/" ^ name) with
      | target -> Some (int_of_string name, target)
      | exception Unix.Unix_error _ -> None)
    (Array.to_list (Sys.readdir "/proc/self/fd"))

let fd_of_int (n : int) : Unix.file_descr = Obj.magic n (* Unix fds are ints *)

(* [Daemon.start] grows the table for [max_conns] connections before it
   starts a thread, so the accept path never waits out a grace period
   growing it. It must open nothing that outlives the call beyond the
   daemon's own descriptors, and close nothing of the caller's — also
   not a descriptor sitting at the very number it reserves up to. This
   case runs before any other starts a daemon in this process. *)
let test_descriptor_table_reserved () =
  let max_conns = 3000 in
  let want = min (max_conns + 64) (soft_fd_limit ()) in
  let start_stop () =
    let d = Server.Daemon.start ~workers:1 ~capacity:4 ~max_conns () in
    let size = fd_table_size () and fds = open_fds () in
    Server.Daemon.stop ~abort_connections:true d;
    Server.Daemon.wait d;
    (size, fds)
  in
  let before = open_fds () in
  let size, during = start_stop () in
  checkb (Printf.sprintf "FDSize %d >= %d after start" size want) true (size >= want);
  List.iter
    (fun (fd, target) ->
      checks (Printf.sprintf "fd %d untouched" fd) target
        (Option.value (List.assoc_opt fd during) ~default:"(closed)"))
    before;
  let own = List.filter (fun (fd, _) -> not (List.mem_assoc fd before)) during in
  let kind (_, target) =
    match String.index_opt target ':' with Some i -> String.sub target 0 i | None -> target
  in
  checks "the daemon's own: listener, wake pipe, epoll, spare"
    "/dev/null anon_inode pipe pipe socket"
    (String.concat " " (List.sort compare (List.map kind own)));
  checkb "all closed again after wait" true (open_fds () = before);
  (* A descriptor already open at the top reserved number survives. *)
  let r, w = Unix.pipe ~cloexec:true () in
  let top = fd_of_int (want - 1) in
  Unix.dup2 ~cloexec:true w top;
  Unix.close w;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; top ])
    (fun () ->
      ignore (start_stop ());
      checki "descriptor at the reserved number still writes" 1
        (try Unix.write_substring top "x" 0 1 with Unix.Unix_error _ -> 0);
      checki "into the same pipe" 1 (Unix.read r (Bytes.create 4) 0 4))

(* ------------------------------------------------------------------ *)
(* Slowloris and pipelining                                            *)

let test_slowloris () =
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* One byte every 5 ms: the frame trickles in over ~15 loop
             wakeups; the decoder must reassemble it exactly once. *)
          String.iter
            (fun c ->
              send_all fd (String.make 1 c);
              Thread.delay 0.005)
            (W.encode "{\"op\":\"ping\"}");
          checkb "slow frame answered" true (is_ok (T.json_of_string (W.read_frame fd)))))

let test_pipelining_in_order () =
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Ten distinguishable requests in ONE write; the `cache keys`
             echo of [prefix] proves each reply matches its request and
             that order survived. *)
          let req i =
            W.encode
              (Printf.sprintf "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"p%d\"}" i)
          in
          send_all fd (String.concat "" (List.init 10 req));
          List.iteri
            (fun i () ->
              let j = T.json_of_string (W.read_frame fd) in
              checkb (Printf.sprintf "reply %d ok" i) true (is_ok j);
              checkb
                (Printf.sprintf "reply %d matches request %d" i i)
                true
                (T.member "prefix" j = Some (T.Jstr (Printf.sprintf "p%d" i))))
            (List.init 10 (fun _ -> ()))))

let test_stalled_reader_buffered_writes () =
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let run_req =
        T.string_of_json
          (T.Jobj [ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true) ])
      in
      (* Warm the cache so every pipelined request below is a pure hit —
         the test measures the write path, not the scheduler. *)
      let warm = Server.Client.with_connection ~port (fun c -> Server.Client.request c run_req) in
      checkb "warm-up ok" true (is_ok (T.json_of_string warm));
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* 64 requests, zero reads: replies pile into the connection's
             out-queue and the socket buffer; reads from this connection
             suspend while output is pending (back-pressure), so the
             daemon must interleave flushing and reading as this client
             finally drains. Every reply must be byte-identical. *)
          let frame = W.encode run_req in
          send_all fd (String.concat "" (List.init 64 (fun _ -> frame)));
          for i = 1 to 64 do
            checks (Printf.sprintf "stalled reply %d byte-identical" i) warm (W.read_frame fd)
          done))

(* Re-check [cond] every 10 ms for up to 2 s: the event loop observes
   accepts and FINs asynchronously. *)
let eventually cond =
  let rec go attempts =
    cond ()
    || attempts > 0
       && (Thread.delay 0.01;
           go (attempts - 1))
  in
  go 200

(* The gauge behind the `stats` RPC's [connections.open], read in process
   so that reading it opens no connection of its own. *)
let open_conns d =
  let m = Server.Service.metrics (Server.Daemon.service d) in
  (Server.Metrics.snapshot m).Server.Metrics.conns_open

let test_churn_reuses_descriptors () =
  with_daemon ~workers:1 ~capacity:8 (fun d port ->
      let baseline = open_conns d in
      let run_req =
        T.string_of_json
          (T.Jobj [ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true) ])
      in
      let req j =
        if j mod 4 = 3 then run_req
        else Printf.sprintf "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"q%d\"}" j
      in
      let batch = 16 in
      (* Reference replies, one request at a time (the run warms the
         cache, so every later run is a byte-identical hit). *)
      let expected =
        Server.Client.with_connection ~port (fun c ->
            Array.init batch (fun j -> Server.Client.request c (req j)))
      in
      let frames = String.concat "" (List.init batch (fun j -> W.encode (req j))) in
      let churn_done = Atomic.make false in
      let mismatches = ref 0 and answered = ref 0 in
      let fd = connect port in
      let pipeliner =
        Thread.create
          (fun () ->
            let rounds = ref 0 in
            while !rounds < 8 || not (Atomic.get churn_done) do
              send_all fd frames;
              for j = 0 to batch - 1 do
                if W.read_frame fd <> expected.(j) then incr mismatches;
                incr answered
              done;
              incr rounds
            done)
          ()
      in
      (* Open and close 300 connections meanwhile; a third of them leave
         an unread request behind. Each close frees descriptor numbers
         on both sides that the next connect — or the daemon's next
         accept — takes again. *)
      for i = 1 to 300 do
        let c = connect port in
        if i mod 3 = 0 then send_all c (W.encode "{\"op\":\"ping\"}");
        Unix.close c
      done;
      Atomic.set churn_done true;
      Thread.join pipeliner;
      Unix.close fd;
      checkb "pipeliner answered through the churn" true (!answered >= 8 * batch);
      checki "every reply byte-identical and in order" 0 !mismatches;
      (* The loop closes its side of each churned connection as it sees
         the FIN; give it a moment to catch up. *)
      ignore (eventually (fun () -> open_conns d = baseline));
      checki "open connections back to baseline" baseline (open_conns d))

(* ------------------------------------------------------------------ *)
(* Hardening knobs                                                     *)

let test_idle_timeout_eviction () =
  with_daemon ~workers:1 ~capacity:4 ~idle_timeout_s:0.3 (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Say nothing; the sweep must evict with a 408 frame, then FIN. *)
          (match W.read_frame fd with
          | frame -> checks "idle eviction tagged" "idle-timeout" (error_tag (T.json_of_string frame))
          | exception W.Closed -> Alcotest.fail "connection closed without a 408 frame");
          checkb "closed after 408" true
            (match W.read_frame fd with _ -> false | exception W.Closed -> true);
          (* The eviction is visible in stats (fresh connection, queried
             well inside its own 0.3 s budget). *)
          let stats =
            Server.Client.with_connection ~port (fun c -> Server.Client.request c "{\"op\":\"stats\"}")
          in
          match T.member "connections" (T.json_of_string stats) with
          | Some (T.Jobj fields) ->
              checkb "idle_timeouts counted" true
                (match List.assoc_opt "idle_timeouts" fields with
                | Some (T.Jint n) -> n >= 1
                | _ -> false)
          | _ -> Alcotest.fail "stats has no connections block"))

let test_rate_limit_429 () =
  with_daemon ~workers:1 ~capacity:4 ~rate_limit:2. (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Burst capacity is one second of budget (2 tokens): of six
             instant pings the first two pass and the rest are answered
             429 in order — the connection survives. *)
          let ping = W.encode "{\"op\":\"ping\"}" in
          send_all fd (String.concat "" (List.init 6 (fun _ -> ping)));
          let replies = List.init 6 (fun _ -> T.json_of_string (W.read_frame fd)) in
          checkb "burst head passes" true (is_ok (List.nth replies 0));
          checkb "second passes" true (is_ok (List.nth replies 1));
          let limited =
            List.length (List.filter (fun j -> error_tag j = "rate-limited") replies)
          in
          checkb "tail rate-limited" true (limited >= 3);
          (* A second of refill restores service on the SAME connection. *)
          Thread.delay 1.1;
          send_all fd ping;
          checkb "recovers after refill" true (is_ok (T.json_of_string (W.read_frame fd)));
          let stats =
            Server.Client.with_connection ~port (fun c -> Server.Client.request c "{\"op\":\"stats\"}")
          in
          match T.member "connections" (T.json_of_string stats) with
          | Some (T.Jobj fields) ->
              checkb "rate_limited counted" true
                (match List.assoc_opt "rate_limited" fields with
                | Some (T.Jint n) -> n >= 3
                | _ -> false)
          | _ -> Alcotest.fail "stats has no connections block"))

let test_max_conns_shedding () =
  with_daemon ~workers:1 ~capacity:4 ~max_conns:2 (fun _ port ->
      let c1 = connect port and c2 = connect port in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ c1; c2 ])
        (fun () ->
          let ping fd =
            send_all fd (W.encode "{\"op\":\"ping\"}");
            is_ok (T.json_of_string (W.read_frame fd))
          in
          checkb "first admitted" true (ping c1);
          checkb "second admitted" true (ping c2);
          (* Over the cap: accept, one 503 conn-limit frame, close. *)
          let c3 = connect port in
          (match W.read_frame c3 with
          | frame -> checks "shed tagged" "conn-limit" (error_tag (T.json_of_string frame))
          | exception W.Closed -> Alcotest.fail "no 503 frame over the cap");
          checkb "shed conn closed" true
            (match W.read_frame c3 with _ -> false | exception W.Closed -> true);
          Unix.close c3;
          (* Freeing a slot re-opens admission (the loop may need a beat
             to observe the FIN). *)
          Unix.close c1;
          let rec admit_ping attempts =
            if attempts = 0 then false
            else begin
              let c4 = connect port in
              send_all c4 (W.encode "{\"op\":\"ping\"}");
              let ok =
                match W.read_frame c4 with
                | frame -> is_ok (T.json_of_string frame)
                | exception W.Closed -> false
              in
              (try Unix.close c4 with Unix.Unix_error _ -> ());
              ok
              ||
              (Thread.delay 0.02;
               admit_ping (attempts - 1))
            end
          in
          checkb "slot freed, admission recovers" true (admit_ping 50)))

(* A full descriptor table leaves the connection in the backlog and the
   listener ready; the daemon must answer it with the 503 conn-limit
   frame through its spare descriptor, not spin on the listener, and
   serve again once descriptors free up. The client shares the process,
   so filling this process's table fills the daemon's. *)
let test_descriptor_limit_503 () =
  let soft = soft_fd_limit () in
  if soft > 65536 then begin
    Printf.printf "skipped: the soft open-files limit %s is above 65536, too many to fill\n"
      (if soft = max_int then "(unlimited)" else string_of_int soft);
    Alcotest.skip ()
  end;
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let filler = ref [] in
      let release () =
        List.iter Unix.close !filler;
        filler := []
      in
      Fun.protect ~finally:release (fun () ->
          (try
             while true do
               filler := Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 :: !filler
             done
           with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
          (* One free slot, for the client's socket. *)
          (match !filler with
          | fd :: rest ->
              Unix.close fd;
              filler := rest
          | [] -> Alcotest.fail "could not fill the descriptor table");
          let c = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.close c with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.setsockopt_float c Unix.SO_RCVTIMEO 2.0;
              match W.read_frame c with
              | frame ->
                  let j = T.json_of_string frame in
                  checks "tagged conn-limit" "conn-limit" (error_tag j);
                  checkb "code 503" true (T.member "code" j = Some (T.Jint 503))
              | exception W.Closed -> Alcotest.fail "closed without a 503 frame"
              | exception Unix.Unix_error (e, _, _) ->
                  Alcotest.failf "no 503 frame within 2 s (%s)" (Unix.error_message e));
          release ();
          let reply =
            Server.Client.with_connection ~port (fun cl ->
                Server.Client.request cl "{\"op\":\"ping\"}")
          in
          checkb "serves a ping once descriptors are free" true (is_ok (T.json_of_string reply))))

(* ------------------------------------------------------------------ *)
(* FD_SETSIZE and EOF-driven cancellation                              *)

let test_beyond_fd_setsize () =
  (* 600 held connections put both sides' fd numbers past 1024 in this
     process (client + daemon share it). The old select(2)-based
     client_gone probe faulted on such fds and reported every client
     gone — computes came back 499 to a live, waiting client. The event
     loop's EOF flag has no such cliff: the compute must answer ok. *)
  with_daemon ~workers:1 ~capacity:4 (fun d port ->
      let herd = Array.init 600 (fun _ -> connect port) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) herd)
        (fun () ->
          (* Let the daemon accept the whole herd first, so its side of
             each connection holds a descriptor too and no lower number
             is left free for [high]. *)
          ignore (eventually (fun () -> open_conns d >= 600));
          let high = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.close high with Unix.Unix_error _ -> ())
            (fun () ->
              checkb "high fd number reached" true
                ((Obj.magic high : int) > 1024 (* Unix fds are ints *));
              send_all high
                (W.encode
                   (T.string_of_json
                      (T.Jobj
                         [
                           ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true);
                         ])));
              let j = T.json_of_string (W.read_frame high) in
              checkb "compute on fd>FD_SETSIZE answers ok (not 499)" true (is_ok j);
              (* The herd is still alive end to end. *)
              send_all herd.(599) (W.encode "{\"op\":\"ping\"}");
              checkb "herd tail still served" true
                (is_ok (T.json_of_string (W.read_frame herd.(599)))))))

let slow_simulate seed =
  Printf.sprintf
    "{\"op\":\"simulate\",\"protocol\":\"two-round-mm\",\"graph\":{\"kind\":\"gnp\",\"n\":2500,\"p\":0.5},\"seed\":%d}"
    seed

let test_eof_cancels_queued_compute () =
  (* One worker, so conn B's compute queues behind conn A's ~0.5 s run.
     B disconnects while queued; the event loop's EOF flag must reach the
     scheduler's cancellation probe and the job must be dropped, visible
     as queue.cancelled_drops in stats. (The old probe did this with a
     per-request MSG_PEEK; now it is one atomic read set at EOF.) *)
  with_daemon ~workers:1 ~capacity:8 (fun _ port ->
      let a = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          send_all a (W.encode (slow_simulate 1));
          Thread.delay 0.1;
          (* A's job is on the worker now; B's will queue. *)
          let b = connect port in
          send_all b (W.encode (slow_simulate 2));
          Thread.delay 0.1;
          Unix.close b;
          (* A's reply arrives after its compute; B's job is then picked
             up, sees the cancellation flag, and is dropped unrun. *)
          checkb "conn A answered ok" true (is_ok (T.json_of_string (W.read_frame a)));
          let cancelled_drops () =
            let stats =
              Server.Client.with_connection ~port (fun c ->
                  Server.Client.request c "{\"op\":\"stats\"}")
            in
            match T.member "queue" (T.json_of_string stats) with
            | Some q -> (
                match T.member "cancelled_drops" q with Some (T.Jint n) -> n | _ -> -1)
            | None -> -1
          in
          let rec poll attempts =
            if cancelled_drops () >= 1 then true
            else if attempts = 0 then false
            else begin
              Thread.delay 0.05;
              poll (attempts - 1)
            end
          in
          checkb "queued compute cancelled at EOF" true (poll 40)))

(* ------------------------------------------------------------------ *)
(* The cache RPC, end to end, pinned                                   *)

let test_cache_rpc_golden () =
  with_daemon ~workers:1 ~capacity:4 (fun d port ->
      let service = Server.Daemon.service d in
      (* Fixed entries straight into the cache: the RPC's responses are
         then a pure function of this state, safe to pin byte-exactly. *)
      let cache = Server.Service.cache service in
      Server.Cache.add cache "exp:alpha:1" "{\"rows\":1}";
      Server.Cache.add cache "exp:alpha:2" "{\"rows\":22}";
      Server.Cache.add cache "exp:beta:1" "{\"rows\":333}";
      let got =
        Server.Client.with_connection ~port (fun c ->
            String.concat "\n"
              (List.map
                 (Server.Client.request c)
                 [
                   "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"exp:alpha:\"}";
                   "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"exp:\",\"limit\":2}";
                   "{\"op\":\"cache\",\"action\":\"invalidate\",\"prefix\":\"exp:alpha:\"}";
                   "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"exp:\"}";
                   "{\"op\":\"cache\",\"action\":\"stats\"}";
                   "{\"op\":\"cache\",\"action\":\"invalidate\"}";
                   "{\"op\":\"cache\",\"action\":\"nope\"}";
                 ])
            ^ "\n")
      in
      let expected =
        In_channel.with_open_bin
          (Filename.concat "golden" "cache_rpc_schema.txt")
          In_channel.input_all
      in
      if got <> expected then
        Alcotest.failf "cache RPC schema drifted\n--- golden ---\n%s--- got ---\n%s" expected got)

let () =
  Alcotest.run "daemon-engine"
    [
      ( "decoder",
        [
          Alcotest.test_case "reassembly across chunk sizes" `Quick test_decoder_reassembly;
          Alcotest.test_case "header defenses" `Quick test_decoder_defenses;
        ] );
      ( "poll",
        [ Alcotest.test_case "registration follows interest" `Quick test_poll_registration ] );
      ( "descriptors",
        [
          Alcotest.test_case "descriptor table reserved at start" `Quick
            test_descriptor_table_reserved;
        ] );
      ( "connections",
        [
          Alcotest.test_case "slowloris byte-at-a-time" `Quick test_slowloris;
          Alcotest.test_case "pipelined requests answered in order" `Quick
            test_pipelining_in_order;
          Alcotest.test_case "stalled reader gets buffered writes" `Quick
            test_stalled_reader_buffered_writes;
          Alcotest.test_case "churn reuses descriptors, replies stay in order" `Quick
            test_churn_reuses_descriptors;
        ] );
      ( "limits",
        [
          Alcotest.test_case "idle timeout evicts with 408" `Quick test_idle_timeout_eviction;
          Alcotest.test_case "rate limit answers 429 and recovers" `Slow test_rate_limit_429;
          Alcotest.test_case "max conns sheds with 503" `Quick test_max_conns_shedding;
          Alcotest.test_case "descriptor limit answers 503" `Quick test_descriptor_limit_503;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "fds beyond FD_SETSIZE still serve" `Slow test_beyond_fd_setsize;
          Alcotest.test_case "EOF cancels queued compute" `Slow test_eof_cancels_queued_compute;
        ] );
      ( "cache-rpc",
        [ Alcotest.test_case "golden schema over TCP" `Quick test_cache_rpc_golden ] );
    ]
