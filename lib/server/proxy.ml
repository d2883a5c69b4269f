(* sketchproxy's brain: consistent-hash routing of compute requests across
   N sketchd backends, over the same wire protocol the backends speak.

   Why this is easy here: the determinism contract (PROTOCOL.md §5) makes
   every `run`/`simulate` response a pure function of its canonical cache
   key, so placement needs no coherence — the proxy hashes the request's
   cache key ([Service.request_key], exactly the derivation the backend
   cache uses) onto a ring of backends, and any failover target recomputes
   the byte-identical payload its dead peer would have served.

   Request flow per compute op:
     route   — derive the cache key, order backends by ring succession
               (healthy first);                       span "proxy.route"
     forward — relay the raw payload to a backend over a pooled
               connection, return its raw response;   span "proxy.forward"
     failover— on a transport failure (connect refused, mid-frame death,
               garbage framing) mark the backend down and try the next
               replica;                            instant "proxy.failover"
     shed    — a 429/503 response is not death: back off briefly and
               retry the next replica, relaying the last shed response
               if every backend sheds.

   `ping`, `cluster`, `stats` and `shutdown` are answered by the proxy
   itself; `stats` aggregates every backend's counters into one cluster
   view (schema pinned by a golden snapshot). Everything else — `list`,
   `run`, `simulate`, unknown ops — forwards, keeping the proxy
   transparent to whatever the backends grow next. *)

module T = Report.Tabular

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)

type pool = {
  pmutex : Mutex.t;
  mutable idle : Client.t list;
  mutable closed : bool;  (* draining: release closes instead of pooling *)
}

let max_idle = 4

type counters = {
  mutable forwarded : int;  (* responses relayed from a backend *)
  mutable failovers : int;  (* backends skipped for transport failure *)
  mutable retries : int;  (* backends retried past a shed response *)
  mutable shed_relayed : int;  (* requests where every backend shed *)
}

type t = {
  ring : Ring.t;
  health : Health.t;
  metrics : Metrics.t;
  pools : (string * pool) list;  (* one per configured backend *)
  addrs : (string * (string * int)) list;  (* parsed host/port per backend *)
  counters : counters;
  cmutex : Mutex.t;
  shed_backoff_ms : int;
  log : string -> unit;
  mutable draining : bool;
  mutable daemon : Daemon.t option;
  mutable pinger : Health.pinger option;
}

let parse_addr addr =
  match String.rindex_opt addr ':' with
  | Some i when i > 0 && i < String.length addr - 1 -> (
      let host = String.sub addr 0 i in
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> (host, p)
      | _ -> invalid_arg (Printf.sprintf "Proxy: bad backend port in %S" addr))
  | _ -> invalid_arg (Printf.sprintf "Proxy: backend %S is not HOST:PORT" addr)

let create ?(vnodes = 128) ?(shed_backoff_ms = 5) ?(log = fun _ -> ()) ~backends () =
  let addrs = List.map (fun a -> (a, parse_addr a)) backends in
  {
    ring = Ring.create ~vnodes backends;
    health = Health.create backends;
    metrics = Metrics.create ();
    pools =
      List.map (fun a -> (a, { pmutex = Mutex.create (); idle = []; closed = false })) backends;
    addrs;
    counters = { forwarded = 0; failovers = 0; retries = 0; shed_relayed = 0 };
    cmutex = Mutex.create ();
    shed_backoff_ms;
    log;
    draining = false;
    daemon = None;
    pinger = None;
  }

let ring t = t.ring
let health t = t.health

let bump t f =
  Mutex.lock t.cmutex;
  f t.counters;
  Mutex.unlock t.cmutex

let counters t =
  Mutex.lock t.cmutex;
  let c = t.counters in
  let copy = (c.forwarded, c.failovers, c.retries, c.shed_relayed) in
  Mutex.unlock t.cmutex;
  copy

(* ------------------------------------------------------------------ *)
(* Backend connections: a small per-backend pool of idle connections.  *)

let connect t addr =
  let host, port = List.assoc addr t.addrs in
  Client.connect ~host ~port ()

(* Returns the connection and whether it was reused from the pool (a
   reused connection may be stale — the backend restarted since — so the
   first transport error on one warrants a single fresh-connection
   retry). *)
let acquire t addr =
  let p = List.assoc addr t.pools in
  Mutex.lock p.pmutex;
  match p.idle with
  | c :: rest ->
      p.idle <- rest;
      Mutex.unlock p.pmutex;
      (c, true)
  | [] ->
      Mutex.unlock p.pmutex;
      (connect t addr, false)

let release t addr c =
  let p = List.assoc addr t.pools in
  Mutex.lock p.pmutex;
  if (not p.closed) && List.length p.idle < max_idle then begin
    p.idle <- c :: p.idle;
    Mutex.unlock p.pmutex
  end
  else begin
    Mutex.unlock p.pmutex;
    Client.close c
  end

let close_pools t =
  List.iter
    (fun (_, p) ->
      Mutex.lock p.pmutex;
      p.closed <- true;
      let conns = p.idle in
      p.idle <- [];
      Mutex.unlock p.pmutex;
      List.iter Client.close conns)
    t.pools

(* One request/response exchange with one backend. [Reply] is any
   well-framed response (including backend-reported errors — those relay);
   [Transport] is a connection-level failure (refused, mid-frame death,
   garbage framing, oversized header) — the backend is unusable. *)
type attempt = Reply of string | Transport of string

let rec attempt t addr payload ~fresh_retry =
  match acquire t addr with
  | exception Unix.Unix_error (e, _, _) -> Transport ("connect: " ^ Unix.error_message e)
  | exception e -> Transport (Printexc.to_string e)
  | c, reused -> (
      match Client.request c payload with
      | response ->
          release t addr c;
          Reply response
      | exception e ->
          Client.close c;
          let msg =
            match e with
            | Unix.Unix_error (ue, _, _) -> Unix.error_message ue
            | Wire.Closed -> "backend closed mid-request"
            | Wire.Malformed m -> "malformed backend frame: " ^ m
            | Wire.Oversized n -> Printf.sprintf "oversized backend frame: %d bytes" n
            | e -> Printexc.to_string e
          in
          if reused && fresh_retry then attempt t addr payload ~fresh_retry:false
          else Transport msg)

let attempt t addr payload = attempt t addr payload ~fresh_retry:true

(* ------------------------------------------------------------------ *)
(* Canonical JSON response text: the one renderer, [Service.Response]. *)

open Service.Response

let no_backend_response =
  error_response ~code:502 ~error:"no-backend" "no backend reachable; cluster is down"

let cancelled_response = error_response ~code:499 ~error:"cancelled" "client went away"

(* ------------------------------------------------------------------ *)
(* Forwarding with failover                                            *)

let is_shed response =
  match T.member "error" (T.json_of_string response) with
  | Some (T.Jstr ("overloaded" | "shutting-down")) -> true
  | _ -> false
  | exception T.Parse_error _ -> false

(* Backends to try, in ring-successor order from the request's cache key,
   known-healthy ones first. Unhealthy backends stay as a last resort —
   the mark may be stale (the backend restarted) and recovery must not
   wait for the next health sweep. *)
let route_candidates t key =
  Stdx.Trace.span "proxy.route"
    ~args:(fun () -> [ ("key", Stdx.Trace.Str key) ])
    (fun () ->
      let succ = Ring.successors t.ring key in
      let healthy, down = List.partition (Health.healthy t.health) succ in
      healthy @ down)

let forward t ~key payload ~cancelled =
  let rec go candidates last_shed =
    match candidates with
    | [] -> (
        match last_shed with
        | Some shed ->
            bump t (fun c -> c.shed_relayed <- c.shed_relayed + 1);
            shed
        | None -> no_backend_response)
    | addr :: rest ->
        if cancelled () then cancelled_response
        else begin
          let t0 = Unix.gettimeofday () in
          let outcome = attempt t addr payload in
          if Stdx.Trace.enabled () then
            Stdx.Trace.complete
              ~args:
                [
                  ("backend", Stdx.Trace.Str addr);
                  ("ok", Stdx.Trace.Bool (match outcome with Reply _ -> true | Transport _ -> false));
                ]
              ~t0 ~t1:(Unix.gettimeofday ()) "proxy.forward";
          match outcome with
          | Reply response when is_shed response ->
              (* Shedding is load, not death: the backend stays healthy,
                 the request moves on after a brief backoff so a burst
                 does not hammer every replica in a tight loop. *)
              bump t (fun c -> c.retries <- c.retries + 1);
              t.log (Printf.sprintf "backend %s shed; retrying next replica" addr);
              if rest <> [] && t.shed_backoff_ms > 0 then
                Thread.delay (float_of_int t.shed_backoff_ms /. 1000.);
              go rest (Some response)
          | Reply response ->
              Health.mark_up t.health addr;
              bump t (fun c -> c.forwarded <- c.forwarded + 1);
              response
          | Transport msg ->
              Health.mark_down t.health addr ~error:msg;
              bump t (fun c -> c.failovers <- c.failovers + 1);
              Stdx.Trace.instant "proxy.failover"
                ~args:[ ("backend", Stdx.Trace.Str addr) ];
              t.log (Printf.sprintf "backend %s failed (%s); failing over" addr msg);
              go rest last_shed
        end
  in
  go (route_candidates t key) None

(* ------------------------------------------------------------------ *)
(* Local endpoints                                                     *)

let handle_ping _t =
  ok_response
    [ ("op", jstr "ping"); ("version", jstr Stdx.Version.current); ("role", jstr "proxy") ]

let handle_cluster t =
  let backend_json (addr, (s : Health.status)) =
    obj
      (("addr", jstr addr)
      :: ("healthy", string_of_bool s.Health.healthy)
      :: ("failures", string_of_int s.Health.failures)
      ::
      (match s.Health.last_error with
      | Some e -> [ ("last_error", jstr e) ]
      | None -> []))
  in
  ok_response
    [
      ("op", jstr "cluster");
      ("version", jstr Stdx.Version.current);
      ("vnodes", string_of_int (Ring.vnodes t.ring));
      ("backends", arr (List.map backend_json (Health.snapshot t.health)));
    ]

(* Aggregated cluster stats, as a pure function of the per-backend stats
   responses — pinned by the golden snapshot in test_proxy.ml. Counters
   sum across backends; latency percentiles do not aggregate, so they
   stay per-backend (and the proxy's own end-to-end percentiles cover the
   cluster view). A backend with [None] was unreachable at snapshot time
   and contributes only its address and health flag. *)
let render_stats ~version ~uptime_s ~(m : Metrics.snapshot) ~forwarded ~failovers ~retries
    ~shed_relayed ~backends =
  let f = T.float_repr in
  let mem j path =
    List.fold_left
      (fun acc k -> match acc with Some j -> T.member k j | None -> None)
      (Some j) path
  in
  let int_at j path = match mem j path with Some (T.Jint i) -> i | _ -> 0 in
  let render_at j path =
    match mem j path with Some v -> T.string_of_json v | None -> "0"
  in
  let sum path =
    List.fold_left
      (fun acc (_, _, stats) -> match stats with Some j -> acc + int_at j path | None -> acc)
      0 backends
  in
  let by_op_merged =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (_, _, stats) ->
        match stats with
        | Some j -> (
            match mem j [ "requests"; "by_op" ] with
            | Some (T.Jobj fields) ->
                List.iter
                  (fun (op, v) ->
                    match v with
                    | T.Jint n ->
                        Hashtbl.replace tbl op
                          (n + Option.value ~default:0 (Hashtbl.find_opt tbl op))
                    | _ -> ())
                  fields
            | _ -> ())
        | None -> ())
      backends;
    Hashtbl.fold (fun k v acc -> (k, string_of_int v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let backend_json (addr, healthy, stats) =
    match stats with
    | None -> obj [ ("addr", jstr addr); ("healthy", string_of_bool healthy) ]
    | Some j ->
        obj
          [
            ("addr", jstr addr);
            ("healthy", string_of_bool healthy);
            ("uptime_s", render_at j [ "uptime_s" ]);
            ("requests_total", string_of_int (int_at j [ "requests"; "total" ]));
            ("errors", string_of_int (int_at j [ "requests"; "errors" ]));
            ("cache_hits", string_of_int (int_at j [ "cache"; "hits" ]));
            ("cache_misses", string_of_int (int_at j [ "cache"; "misses" ]));
            ("queue_depth", string_of_int (int_at j [ "queue"; "depth" ]));
            ("shed", string_of_int (int_at j [ "queue"; "shed" ]));
            ("p50_ms", render_at j [ "latency_ms"; "p50" ]);
            ("p99_ms", render_at j [ "latency_ms"; "p99" ]);
          ]
  in
  let healthy_count =
    List.fold_left (fun n (_, h, _) -> if h then n + 1 else n) 0 backends
  in
  ok_response
    [
      ("op", jstr "stats");
      ("version", jstr version);
      ("uptime_s", f uptime_s);
      ( "cluster",
        obj
          [
            ("backends", string_of_int (List.length backends));
            ("healthy", string_of_int healthy_count);
          ] );
      ( "proxy",
        obj
          [
            ("forwarded", string_of_int forwarded);
            ("failovers", string_of_int failovers);
            ("retries", string_of_int retries);
            ("shed_relayed", string_of_int shed_relayed);
            ( "requests",
              obj
                [
                  ("total", string_of_int m.Metrics.total);
                  ("errors", string_of_int m.Metrics.errors);
                  ( "by_op",
                    obj (List.map (fun (op, n) -> (op, string_of_int n)) m.Metrics.by_op) );
                ] );
            ( "latency_ms",
              obj
                [
                  ("count", string_of_int m.Metrics.latency_count);
                  ("p50", f m.Metrics.p50_ms);
                  ("p90", f m.Metrics.p90_ms);
                  ("p99", f m.Metrics.p99_ms);
                  ("max", f m.Metrics.max_ms);
                ] );
          ] );
      ( "requests",
        obj
          [
            ("total", string_of_int (sum [ "requests"; "total" ]));
            ("errors", string_of_int (sum [ "requests"; "errors" ]));
            ("by_op", obj by_op_merged);
          ] );
      ( "cache",
        obj
          [
            ("hits", string_of_int (sum [ "cache"; "hits" ]));
            ("misses", string_of_int (sum [ "cache"; "misses" ]));
            ("entries", string_of_int (sum [ "cache"; "entries" ]));
            ("bytes", string_of_int (sum [ "cache"; "bytes" ]));
            ("evictions", string_of_int (sum [ "cache"; "evictions" ]));
          ] );
      ( "queue",
        obj
          [
            ("depth", string_of_int (sum [ "queue"; "depth" ]));
            ("capacity", string_of_int (sum [ "queue"; "capacity" ]));
            ("workers", string_of_int (sum [ "queue"; "workers" ]));
            ("shed", string_of_int (sum [ "queue"; "shed" ]));
            ("deadline_drops", string_of_int (sum [ "queue"; "deadline_drops" ]));
            ("cancelled_drops", string_of_int (sum [ "queue"; "cancelled_drops" ]));
          ] );
      ("backends", arr (List.map backend_json backends));
    ]

(* Probe one backend with a `ping` — the health sweep's instrument. *)
let ping_backend t addr =
  match attempt t addr "{\"op\":\"ping\"}" with
  | Reply r -> (
      match T.member "ok" (T.json_of_string r) with
      | Some (T.Jbool true) -> Ok ()
      | _ -> Error "ping returned an error"
      | exception T.Parse_error _ -> Error "ping returned garbage JSON")
  | Transport msg -> Error msg

let check_health t = Health.sweep t.health ~ping:(ping_backend t)

(* Live `stats`: snapshot every backend, then aggregate. The probe itself
   updates health, so `stats` doubles as a sweep. *)
let handle_stats t =
  let backends =
    List.map
      (fun addr ->
        let stats =
          match attempt t addr "{\"op\":\"stats\"}" with
          | Reply r -> (
              match T.json_of_string r with
              | j when T.member "ok" j = Some (T.Jbool true) ->
                  Health.mark_up t.health addr;
                  Some j
              | _ ->
                  Health.mark_down t.health addr ~error:"stats returned an error";
                  None
              | exception T.Parse_error _ ->
                  Health.mark_down t.health addr ~error:"stats returned garbage JSON";
                  None)
          | Transport msg ->
              Health.mark_down t.health addr ~error:msg;
              None
        in
        (addr, Health.healthy t.health addr, stats))
      (Ring.backends t.ring)
  in
  let m = Metrics.snapshot t.metrics in
  let forwarded, failovers, retries, shed_relayed = counters t in
  render_stats ~version:Stdx.Version.current ~uptime_s:m.Metrics.uptime_s ~m ~forwarded
    ~failovers ~retries ~shed_relayed ~backends

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let bad_request msg = error_response ~code:400 ~error:"bad-request" msg

let handle t ?(cancelled = fun () -> false) payload =
  let t0 = Unix.gettimeofday () in
  let op, response, shutdown =
    match T.json_of_string payload with
    | exception T.Parse_error msg -> ("parse-error", bad_request ("invalid JSON: " ^ msg), false)
    | j -> (
        match T.member "op" j with
        | Some (T.Jstr "ping") -> ("ping", handle_ping t, false)
        | Some (T.Jstr "cluster") -> ("cluster", handle_cluster t, false)
        | Some (T.Jstr "stats") -> ("stats", handle_stats t, false)
        | Some (T.Jstr "shutdown") ->
            t.draining <- true;
            ( "shutdown",
              ok_response
                [ ("op", jstr "shutdown"); ("msg", jstr "proxy draining; no new requests") ],
              true )
        | Some (T.Jstr op) ->
            (* Compute requests route by their canonical cache key — the
               whole point: a request always lands on the backend whose
               cache holds (or will hold) its entry. Anything without a
               key (`list`, unknown ops, invalid compute requests) routes
               by the raw payload, still deterministic, and the backend
               answers with its own taxonomy. *)
            let key = Option.value ~default:payload (Service.request_key j) in
            (op, forward t ~key payload ~cancelled, false)
        | Some _ | None ->
            ("bad-op", bad_request "request needs a string field \"op\"", false))
  in
  let t1 = Unix.gettimeofday () in
  let ms = (t1 -. t0) *. 1000. in
  let ok = String.length response >= 11 && String.sub response 0 11 = "{\"ok\":true," in
  if Stdx.Trace.enabled () then
    Stdx.Trace.complete ~args:[ ("ok", Stdx.Trace.Bool ok) ] ~t0 ~t1 ("proxy." ^ op);
  Metrics.record t.metrics ~op ~ok ~ms;
  t.log (Printf.sprintf "op=%s status=%s ms=%.2f" op (if ok then "ok" else "error") ms);
  { Service.payload = response; shutdown }

let draining t = t.draining

let close t =
  (match t.pinger with
  | Some p ->
      Health.stop_pinger p;
      t.pinger <- None
  | None -> ());
  close_pools t

(* ------------------------------------------------------------------ *)
(* TCP front: the generic daemon around [handle]                       *)

let start ?host ?port ?vnodes ?(health_interval_s = 2.0) ?shed_backoff_ms ?max_conns
    ?idle_timeout_s ?rate_limit ?keepalive ?dispatch_threads ?log ~backends () =
  let t = create ?vnodes ?shed_backoff_ms ?log ~backends () in
  let daemon =
    Daemon.start_handler ?host ?port
      ~on_drain:(fun () -> close t)
      ~metrics:t.metrics ?max_conns ?idle_timeout_s ?rate_limit ?keepalive
      ?dispatch_threads
      ~handle:(fun ~cancelled payload -> handle t ~cancelled payload)
      ()
  in
  t.daemon <- Some daemon;
  (* After [start_handler]: it reserves the descriptor table before any
     thread exists, and this pinger would be one. *)
  t.pinger <-
    Some (Health.start_pinger t.health ~interval_s:health_interval_s ~ping:(ping_backend t));
  t

let daemon_exn t =
  match t.daemon with
  | Some d -> d
  | None -> invalid_arg "Proxy: not started with start"

let port t = Daemon.port (daemon_exn t)
let stop ?abort_connections t = Daemon.stop ?abort_connections (daemon_exn t)
let wait t = Daemon.wait (daemon_exn t)
