(* The serving workloads: sketchd and sketchproxy run as separate
   processes, driven by the open/closed-loop generator over two
   connections, with every reply checked.

   An untraced run reports the end-to-end metrics over several rounds of
   set-up, open loop at the workload's frozen rate, closed loop (8
   requests in flight per connection) and teardown. A traced run starts
   the servers with --trace, runs shorter phases so the default trace
   rings hold them, and reports per-layer numbers instead. *)

module T = Report.Tabular
module Client = Server.Client

type topology = Daemon of { herd : int } | Cluster

type workload = {
  name : string;
  rate : float;
      (** Open-loop rate in requests/s, frozen on the commit that added the
          benchmark (see CALIBRATION.md). Never derived at run time, so two
          commits always get the same load. *)
  topology : topology;
  warm : int;  (** Working-set keys warmed during set-up. *)
  mix : seed:int -> Mix.request array -> Mix.stream;
}

let workloads =
  [
    {
      name = "serve-compute";
      rate = 200.;
      topology = Daemon { herd = 0 };
      warm = 0;
      mix = (fun ~seed _ -> Mix.misses ~seed);
    };
    {
      name = "serve-herd";
      rate = 100.;
      topology = Daemon { herd = 5000 };
      warm = 64;
      mix = Mix.cached;
    };
    { name = "cluster-mixed"; rate = 650.; topology = Cluster; warm = 128; mix = Mix.mixed };
  ]

type env = { bin_dir : string; run_dir : string; smoke : bool }

let depth = 8
let connections = 2
let herd_of env = function Daemon { herd } -> if env.smoke then herd / 50 else herd | Cluster -> 0

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

(* Every ok reply to a key must be byte-identical to the first one; one
   request in [sample_every] is kept (once per key) to be compared after
   the timed window with an in-process [Service.handle] reply and, behind
   the proxy, with a direct request to the key's ring owner. *)
let sample_every = 50

type checks = {
  seen : (string, Digest.t) Hashtbl.t;
  sampled : (string, Mix.request * string) Hashtbl.t;
  mutable errors : string list;
  mutable replies : string list;  (** A few replies, for the wire-codec layer. *)
  mutable sent : Mix.request list;  (** Requests sent, newest first. *)
}

let new_checks () =
  { seen = Hashtbl.create 1024; sampled = Hashtbl.create 64; errors = []; replies = []; sent = [] }

let error c msg = if List.length c.errors < 20 then c.errors <- msg :: c.errors

let observe c ~index (r : Mix.request) reply =
  c.sent <- r :: c.sent;
  if List.length c.replies < 512 && index mod 8 = 0 then c.replies <- reply :: c.replies;
  match r.key with
  | Some k when Loadgen.is_ok reply ->
      let d = Digest.string reply in
      (match Hashtbl.find_opt c.seen k with
      | Some d' when d' <> d -> error c ("replies differ for key " ^ k)
      | Some _ -> ()
      | None -> Hashtbl.add c.seen k d);
      if r.compute && index mod sample_every = 0 && not (Hashtbl.mem c.sampled k) then
        Hashtbl.add c.sampled k (r, reply)
  | Some _ | None -> ()

let verify_in_process c =
  let svc = Server.Service.create ~workers:1 () in
  Hashtbl.iter
    (fun k ((r : Mix.request), reply) ->
      if (Server.Service.handle svc r.payload).Server.Service.payload <> reply then
        error c ("reply differs from in-process Service.handle for key " ^ k))
    c.sampled;
  Server.Service.shutdown svc

let verify_owners c backends =
  let ring = Server.Ring.create (List.map Servers.addr backends) in
  Hashtbl.iter
    (fun k ((r : Mix.request), reply) ->
      let owner = Server.Ring.route ring k in
      let b = List.find (fun b -> Servers.addr b = owner) backends in
      if Client.with_connection ~port:b.Servers.port (fun c -> Client.request c r.payload) <> reply then
        error c ("proxied reply differs from its ring owner's for key " ^ k))
    c.sampled

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = {
  front : Servers.proc;  (** The process clients talk to. *)
  backends : Servers.proc list;  (** The sketchd processes (front too, without a proxy). *)
  conns : Loadgen.conn list;
      (** The generator's connections, opened before the herd so their
          descriptors stay below select(2)'s limit of 1024. *)
  herd : Client.t array;
}

let procs s = if List.memq s.front s.backends then s.backends else s.front :: s.backends

let start env w ~trace ~checks ~working_set =
  let exe name = Filename.concat env.bin_dir name in
  let spawn = Servers.spawn ~run_dir:env.run_dir ~trace in
  let s =
    match w.topology with
    | Daemon _ ->
        let d = spawn ~exe:(exe "sketchd.exe") ~label:"sketchd" [] in
        { front = d; backends = [ d ]; conns = []; herd = [||] }
    | Cluster ->
        let backends =
          List.init 2 (fun i ->
              spawn ~exe:(exe "sketchd.exe")
                ~label:(Printf.sprintf "backend%d" i)
                [ "--workers"; "1" ])
        in
        let args = List.concat_map (fun b -> [ "--backend"; Servers.addr b ]) backends in
        let proxy = spawn ~exe:(exe "sketchproxy.exe") ~label:"sketchproxy" args in
        { front = proxy; backends; conns = []; herd = [||] }
  in
  let conns = List.init connections (fun _ -> Loadgen.connect s.front.port) in
  let herd = Servers.open_herd s.front.port (herd_of env w.topology) in
  Client.with_connection ~port:s.front.port (fun c ->
      Array.iteri
        (fun i (r : Mix.request) ->
          let reply = Client.request c r.payload in
          if not (Loadgen.is_ok reply) then failwith ("warming failed: " ^ reply);
          observe checks ~index:(i * sample_every) r reply)
        working_set);
  { s with conns; herd }

let stop s =
  List.iter Loadgen.close s.conns;
  Array.iter Client.close s.herd;
  Servers.stop (procs s)

let cpu_s s = List.fold_left (fun acc p -> acc +. Servers.cpu_s p) 0. (procs s)
let hwm_mb s = List.fold_left (fun acc p -> acc +. Servers.hwm_mb p) 0. (procs s)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

type phase_totals = { mutable attempted : int; mutable failed : int }

let phase s ~totals ~checks ~stream ~base ~mode ~duration =
  let o =
    Loadgen.run ~conns:s.conns ~mode ~duration
      ~payload:(fun i -> (stream.Mix.get (!base + i)).Mix.payload)
      ~on_reply:(fun i reply ->
        observe checks ~index:(!base + i) (stream.Mix.get (!base + i)) reply)
  in
  if o.Loadgen.lost > 0 then
    error checks (Printf.sprintf "%d requests lost: the server closed a connection" o.Loadgen.lost);
  if o.Loadgen.unanswered > 0 then
    error checks
      (Printf.sprintf "%d requests unanswered after the drain timeout" o.Loadgen.unanswered);
  base := !base + o.Loadgen.sent;
  totals.attempted <- totals.attempted + o.Loadgen.sent;
  totals.failed <- totals.failed + o.Loadgen.failed;
  o

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)

(* Each untraced run is [rounds] independent rounds: a fresh set-up, an
   open-loop phase, a closed-loop phase and a teardown. Set-up time and
   peak memory are medians over the rounds. Latency, throughput and CPU
   per request drift with the shared host by more than a 10% bound
   allows (CALIBRATION.md), so they are per-layer metrics of the traced
   run and only printed here. *)
let rounds env = if env.smoke then 1 else 8

type round = {
  setup_s : float;
  rss_mb : float;
  open_loop : Loadgen.outcome;
  closed_loop : Loadgen.outcome;
}

let run_untraced env w ~seed ~seconds =
  let checks = new_checks () in
  let working_set = Mix.working_set ~size:w.warm ~seed in
  let stream = w.mix ~seed working_set in
  let totals = { attempted = 0; failed = 0 } in
  let base = ref 0 in
  let n = rounds env in
  let round () =
    let s, setup_s =
      Stdx.Parallel.timed (fun () -> start env w ~trace:false ~checks ~working_set)
    in
    let open_loop =
      phase s ~totals ~checks ~stream ~base ~mode:(Loadgen.Open w.rate)
        ~duration:(0.6 *. seconds /. float_of_int n)
    in
    let closed_loop =
      phase s ~totals ~checks ~stream ~base ~mode:(Loadgen.Closed depth)
        ~duration:(0.4 *. seconds /. float_of_int n)
    in
    if w.topology = Cluster then verify_owners checks s.backends;
    let rss_mb = hwm_mb s in
    stop s;
    { setup_s; rss_mb; open_loop; closed_loop }
  in
  let rs = List.init n (fun _ -> round ()) in
  verify_in_process checks;
  let median f = Summary.median (Array.of_list (List.map f rs)) in
  let lat = Array.concat (List.map (fun r -> r.open_loop.Loadgen.latencies_ms) rs) in
  let late = Array.concat (List.map (fun r -> r.open_loop.Loadgen.late_ms) rs) in
  let tail = Summary.tail_percentile (Array.length lat) in
  let throughput (o : Loadgen.outcome) = float_of_int o.in_window /. o.window_s in
  let summary =
    [
      Printf.sprintf
        "%d rounds; open loop: %d requests at %.0f/s, p50 %.3f ms, p99 %.3f ms, %s %.3f ms" n
        (Array.length lat) w.rate (Summary.quantile lat 0.5) (Summary.quantile lat 0.99)
        (match tail with Some p -> Summary.percentile_label p | None -> "max")
        (Summary.quantile lat (Option.value ~default:1. tail));
      (let late_p99 = Summary.quantile late 0.99 in
       if late_p99 > Loadgen.max_late_ms then
         Printf.sprintf "INVALID: the generator ran %.1f ms late at p99 (limit %.0f ms)" late_p99
           Loadgen.max_late_ms
       else Printf.sprintf "generator lateness p99 %.3f ms" late_p99);
      Printf.sprintf "closed loop (depth %d x %d connections): %s req/s per round" depth connections
        (String.concat " "
           (List.map (fun r -> Printf.sprintf "%.0f" (throughput r.closed_loop)) rs));
      Printf.sprintf "checked %d keys for identity, %d sampled replies in-process"
        (Hashtbl.length checks.seen) (Hashtbl.length checks.sampled);
    ]
  in
  {
    Catalogue.metrics =
      [ ("setup_s", median (fun r -> r.setup_s)); ("peak_rss_mb", median (fun r -> r.rss_mb)) ];
    attempted = totals.attempted;
    failed = totals.failed;
    errors = List.rev checks.errors;
    summary;
  }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)

let stat_delta before after path =
  float_of_int (Servers.int_at after path - Servers.int_at before path)

(* Closed-loop ping latency on one connection as the idle herd grows. *)
let ping_sweep env =
  let d =
    Servers.spawn ~run_dir:env.run_dir ~exe:(Filename.concat env.bin_dir "sketchd.exe")
      ~label:"sweep" [ "--max-conns"; "16384" ]
  in
  let samples = if env.smoke then 50 else 2000 in
  let herd = ref [||] in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Array.iter Client.close !herd;
        Servers.stop [ d ])
      (fun () ->
        Client.with_connection ~port:d.port (fun c ->
            List.map
              (fun h ->
                let h = if env.smoke then h / 100 else h in
                herd := Array.append !herd (Servers.open_herd d.port (h - Array.length !herd));
                let t =
                  Array.init samples (fun _ ->
                      Layers.us_of (fun () -> ignore (Client.request c Servers.ping)))
                in
                Summary.median t)
              Catalogue.herd_sizes))
  in
  List.map2 (fun h v -> (Printf.sprintf "daemon.ping.p50_us.h%d" h, v)) Catalogue.herd_sizes result

(* Proxy hop: the same hits through the proxy and straight to their ring
   owner, one at a time; the difference of the medians. *)
let proxy_hop s working_set =
  let ring = Server.Ring.create (List.map Servers.addr s.backends) in
  let hits = Array.to_list working_set in
  let through =
    Client.with_connection ~port:s.front.Servers.port (fun c ->
        List.concat_map
          (fun (r : Mix.request) ->
            List.init 3 (fun _ -> Layers.us_of (fun () -> ignore (Client.request c r.payload))))
          hits)
  in
  let direct =
    List.concat_map
      (fun (r : Mix.request) ->
        let owner = Server.Ring.route ring (Option.get r.key) in
        let b = List.find (fun b -> Servers.addr b = owner) s.backends in
        Client.with_connection ~port:b.Servers.port (fun c ->
            List.init 3 (fun _ -> Layers.us_of (fun () -> ignore (Client.request c r.payload)))))
      hits
  in
  (Summary.median (Array.of_list through) -. Summary.median (Array.of_list direct)) /. 1000.

let ring_max_share s (sent : Mix.request list) =
  let ring = Server.Ring.create (List.map Servers.addr s.backends) in
  let keys =
    List.filter_map (fun (r : Mix.request) -> if r.compute then r.key else None) sent
  in
  let n = List.length keys in
  if n = 0 then 0.
  else
    List.fold_left
      (fun acc b ->
        let owned =
          List.length (List.filter (fun k -> Server.Ring.route ring k = Servers.addr b) keys)
        in
        Float.max acc (float_of_int owned /. float_of_int n))
      0. s.backends

let run_traced env w ~seed ~seconds =
  let checks = new_checks () in
  let working_set = Mix.working_set ~size:w.warm ~seed in
  let stream = w.mix ~seed working_set in
  let totals = { attempted = 0; failed = 0 } in
  let base = ref 0 in
  let s = start env w ~trace:true ~checks ~working_set in
  let front_before = Servers.stats s.front.port in
  (* Sized so the default 65536-event trace rings hold both phases: the
     proxy records about six events per request. *)
  let traced_open_s = Float.min (0.4 *. seconds) (6000. /. w.rate) in
  let traced_closed_s = 0.05 *. seconds in
  let cpu0 = cpu_s s in
  let o =
    phase s ~totals ~checks ~stream ~base ~mode:(Loadgen.Open w.rate) ~duration:traced_open_s
  in
  let cpu1 = cpu_s s in
  let c =
    phase s ~totals ~checks ~stream ~base ~mode:(Loadgen.Closed depth) ~duration:traced_closed_s
  in
  let front_after = Servers.stats s.front.port in
  let backend_after = List.map (fun b -> Servers.stats b.Servers.port) s.backends in
  let sum_backends path =
    List.fold_left (fun acc st -> acc +. float_of_int (Servers.int_at st path)) 0. backend_after
  in
  if w.topology = Cluster then verify_owners checks s.backends;
  let front = s.front in
  stop s;
  (* Trace dumps: drops would bias every span statistic. *)
  let traces =
    List.map
      (fun p ->
        let spans, dropped = Spans.of_trace_json (Procfs.read_file (Option.get p.Servers.trace)) in
        if dropped > 0 then
          error checks (Printf.sprintf "%s trace dropped %d events" p.label dropped);
        (p, spans))
      (procs s)
  in
  let span_p50_us ?(only = fun _ -> true) name =
    Layers.median_or_zero
      (Array.concat
         (List.filter_map
            (fun (p, sp) -> if only p then Some (Spans.durations name sp) else None)
            traces))
  in
  let request_p50_us = span_p50_us ~only:(fun p -> p == front) "daemon.request" in
  let client_p50_us = Summary.quantile o.latencies_ms 0.5 *. 1000. in
  (* Tracing overhead: the same closed-loop phase on untraced servers. *)
  let plain = start env w ~trace:false ~checks ~working_set in
  let hop, plain_c =
    Fun.protect
      ~finally:(fun () -> stop plain)
      (fun () ->
        let plain_c =
          phase plain ~totals ~checks ~stream ~base ~mode:(Loadgen.Closed depth)
            ~duration:traced_closed_s
        in
        let hop = if w.topology = Cluster then proxy_hop plain working_set else 0. in
        (hop, plain_c))
  in
  verify_in_process checks;
  let hits = stat_delta front_before front_after [ "cache"; "hits" ] in
  let misses = stat_delta front_before front_after [ "cache"; "misses" ] in
  let proxy_counter name =
    if w.topology = Cluster then stat_delta front_before front_after [ "proxy"; name ] else 0.
  in
  let sweep = match w.topology with Daemon { herd } when herd > 0 -> ping_sweep env | _ -> [] in
  let sent = List.rev checks.sent in
  let metrics =
    List.concat
      [
        Layers.compute ~per_class:(if env.smoke then 1 else 5) sent;
        Layers.service ~smoke:env.smoke sent checks.replies;
        sweep;
        List.map
          (fun name ->
            ( name ^ ".p50_us",
              if name = "daemon.request" then request_p50_us else span_p50_us name ))
          Catalogue.server_spans;
        [
          ("client.transport.p50_us", client_p50_us -. request_p50_us);
          ("cache.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
          ("cache.evictions", stat_delta front_before front_after [ "cache"; "evictions" ]);
          ("queue.shed", stat_delta front_before front_after [ "queue"; "shed" ]);
          ("daemon.accepted", sum_backends [ "connections"; "accepted" ]);
          ("daemon.open", sum_backends [ "connections"; "open" ]);
          ("proxy.hop.p50_ms", hop);
          ("proxy.route.p50_us", span_p50_us "proxy.route");
          ("proxy.forward.p50_us", span_p50_us "proxy.forward");
          ("proxy.forwarded", proxy_counter "forwarded");
          ("proxy.failovers", proxy_counter "failovers");
          ("proxy.retries", proxy_counter "retries");
          ("proxy.shed_relayed", proxy_counter "shed_relayed");
          ("ring.max_share", if w.topology = Cluster then ring_max_share s sent else 0.);
          ("loadgen.p50_ms", Summary.quantile o.latencies_ms 0.5);
          ("loadgen.p99_ms", Summary.quantile o.latencies_ms 0.99);
          ("loadgen.throughput_ops", float_of_int c.in_window /. c.window_s);
          ("server.cpu_ms_per_op", (cpu1 -. cpu0) *. 1000. /. float_of_int (max 1 o.answered));
          ("loadgen.late_p99_ms", Summary.quantile o.late_ms 0.99);
          ("loadgen.samples", float_of_int (Array.length o.latencies_ms));
          ( "trace.overhead_pct",
            ((float_of_int plain_c.in_window /. float_of_int c.in_window) -. 1.) *. 100. );
        ];
      ]
  in
  {
    Catalogue.metrics;
    attempted = totals.attempted;
    failed = totals.failed;
    errors = List.rev checks.errors;
    summary =
      [ Printf.sprintf "traced: %d open-loop, %d closed-loop replies" o.answered c.answered ];
  }
