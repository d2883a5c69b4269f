(* Bench harness: regenerates every table/figure of DESIGN.md §4 (the
   paper's quantitative statements) and then times the computational kernel
   behind each one with Bechamel.

   Usage: dune exec bench/main.exe            (every mode below, in order)
          dune exec bench/main.exe -- tables  (tables only)
          dune exec bench/main.exe -- bench   (micro-benches only)
          dune exec bench/main.exe -- serve   (sketchd end-to-end latency)
          dune exec bench/main.exe -- cluster (latency through sketchproxy)
          dune exec bench/main.exe -- streams (multipass per-round/per-pass accounting)

   The tables pass also writes BENCH_tables.json (JSON-lines: one object
   per table with id, wall-clock and rows); `--fast` shrinks the table
   and streams sizes. *)

open Bechamel
open Toolkit
module R = Core.Exp_registry
module T = Report.Tabular

(* Regenerate every registered table (text to stdout, as `run_all` always
   did) and seed BENCH_tables.json: one JSON line per table with its id,
   wall-clock seconds, rows through the JSON renderer, and a span-derived
   per-phase breakdown so perf PRs can point at the exact phase they
   moved. Tracing is always on for this pass; each table's events are
   selected from the shared rings by their timestamp window. *)
let tables ?(fast = false) ?jobs () =
  let jobs =
    match jobs with Some j when j > 0 -> j | Some _ | None -> Stdx.Parallel.default_jobs ()
  in
  (* Larger rings than the default: a full Monte-Carlo table freezes one
     graph per trial. Oldest events drop first, so the current table's
     window is the best-preserved slice either way. *)
  Stdx.Trace.enable ~capacity:(1 lsl 18) ();
  let oc = open_out "BENCH_tables.json" in
  let total = ref 0. in
  List.iter
    (fun e ->
      let overrides = R.overrides_for ~fast e @ [ ("jobs", R.Vint jobs) ] in
      (* GC cost comes from the registry, which snapshots counters around
         the experiment body only (rendering and harness work excluded).
         The counters are domain-local, so at jobs>1 the figures cover the
         main-domain share; at jobs=1 (the CI setting) they are the full
         cost of the table. *)
      let c0 = Stdx.Trace.now_us () in
      let (tbl, gc), wall = Stdx.Parallel.timed (fun () -> R.measured_table e overrides) in
      let c1 = Stdx.Trace.now_us () in
      print_string (T.to_text tbl);
      Printf.printf "    [%s: %.2f s wall, %.2f MB alloc, %d minor / %d major GC]\n%!"
        (R.title e) wall
        (gc.R.alloc_bytes /. 1048576.)
        gc.R.minor_collections gc.R.major_collections;
      total := !total +. wall;
      let phases =
        Report.Trace_export.phase_totals ~since:c0 ~until:c1 (Stdx.Trace.dump ())
      in
      let phases_json =
        "{"
        ^ String.concat ","
            (List.map (fun (name, s) -> Printf.sprintf "%S:%s" name (T.float_repr s)) phases)
        ^ "}"
      in
      let rows = List.map (T.json_of_row tbl.T.schema) tbl.T.rows in
      Printf.fprintf oc
        "{\"id\":%S,\"title\":%S,\"wall_s\":%s,\"alloc_bytes\":%.0f,\"minor_collections\":%d,\"major_collections\":%d,\"phases\":%s,\"rows\":[%s]}\n"
        (R.id e) (R.title e) (T.float_repr wall) gc.R.alloc_bytes gc.R.minor_collections
        gc.R.major_collections phases_json (String.concat "," rows))
    (Core.Exp_all.all ());
  Printf.printf
    "\nTotal wall-clock: %.2f s (jobs=%d; every table bit-identical at any job count)\n" !total
    jobs;
  (let tr = Stdx.Trace.stats () in
   if tr.Stdx.Trace.dropped > 0 then
     Printf.printf "bench: trace rings dropped %d events; phase breakdowns undercount\n"
       tr.Stdx.Trace.dropped);
  close_out oc;
  print_endline "bench: wrote BENCH_tables.json"

(* One Test.make per experiment: the kernel that generates that table.

   [rng] is consumed only by this one-off setup below. Staged closures must
   NOT share it: Bechamel calls each closure many times, and drawing from a
   shared mutable generator would give every iteration a different input
   (measuring a drifting workload instead of one kernel). Closures that
   need randomness split a fresh generator per call, so every iteration
   re-runs the identical instance. *)
let micro_tests () =
  let rng = Stdx.Prng.create 99 in
  let fresh key = Stdx.Prng.split (Stdx.Prng.create 99) key in
  let rs25 = Rsgraph.Rs_graph.bipartite 25 in
  let rs10 = Rsgraph.Rs_graph.bipartite 10 in
  let dmm25 = Core.Hard_dist.sample rs25 rng in
  let dmm10 = Core.Hard_dist.sample rs10 rng in
  let coins = Sketchmodel.Public_coins.create 4242 in
  let g128 = Dgraph.Gen.gnp rng 128 0.25 in
  let g256 = Dgraph.Gen.gnp rng 256 0.25 in
  let g1024 = Dgraph.Gen.gnp rng 1024 0.05 in
  let bridge_g, _ = Dgraph.Gen.bridge_of_clouds rng ~half:128 ~p:0.5 in
  [
    Test.make ~name:"T1:rs-construction(m=50)"
      (Staged.stage (fun () -> ignore (Rsgraph.Rs_graph.bipartite 50)));
    Test.make ~name:"T2:behrend-best(m=2000)"
      (Staged.stage (fun () -> ignore (Rsgraph.Behrend.best 2000)));
    Test.make ~name:"T3:dmm-sample+claim(m=25)"
      (Staged.stage (fun () ->
           let dmm = Core.Hard_dist.sample rs25 (fresh 303) in
           ignore (Core.Claims.check dmm ())));
    Test.make ~name:"F4:budget-protocol(m=25,b=64)"
      (Staged.stage (fun () ->
           ignore
             (Sketchmodel.Model.run
                (Protocols.Sampled_mm.protocol ~budget_bits:64
                   ~strategy:Protocols.Sampled_mm.Uniform)
                dmm25.Core.Hard_dist.graph coins)));
    Test.make ~name:"F5:info-accounting(micro,b=4)"
      (Staged.stage (fun () ->
           ignore
             (Core.Accounting.analyze
                {
                  Core.Accounting.rs = Core.Accounting.micro_rs ();
                  k = 2;
                  bits = 4;
                  strategy = Core.Accounting.Truncate;
                  sigma_mode = Core.Accounting.Fix_sigma;
                })));
    Test.make ~name:"T6:agm-forest(n=128)"
      (Staged.stage (fun () -> ignore (Agm.Spanning_forest.run g128 coins)));
    Test.make ~name:"T6b:coloring(n=256)"
      (Staged.stage (fun () -> ignore (Coloring.Palette.run g256 coins)));
    Test.make ~name:"T6:two-round-mm(n=1024)"
      (Staged.stage (fun () -> ignore (Protocols.Two_round_mm.run g1024 coins)));
    Test.make ~name:"T6:two-round-mis(n=1024)"
      (Staged.stage (fun () -> ignore (Protocols.Two_round_mis.run g1024 coins)));
    Test.make ~name:"T8:reduction-end-to-end(m=10)"
      (Staged.stage (fun () ->
           ignore (Core.Reduction.end_to_end_cost dmm10 Protocols.Trivial.mis coins)));
    Test.make ~name:"F9:bridge(half=128)"
      (Staged.stage (fun () -> ignore (Agm.Bridge_demo.run bridge_g ~samples_per_vertex:3 coins)));
    Test.make ~name:"F10:blossom-maximum(n=128)"
      (Staged.stage (fun () -> ignore (Dgraph.Blossom.maximum_matching g128)));
    Test.make ~name:"T10:stream-feed+decode(n=64)"
      (Staged.stage (fun () ->
           let rng = fresh 1010 in
           let g = Dgraph.Gen.gnp rng 64 0.1 in
           let stream = Streams.Stream.with_decoys rng g ~decoys:50 in
           let proc = Streams.Sketch_stream.create ~n:64 coins in
           Streams.Sketch_stream.feed_all proc stream;
           ignore (Streams.Sketch_stream.spanning_forest proc)));
    Test.make ~name:"T11:k-forests(n=48,k=3)"
      (Staged.stage (fun () ->
           let g = Dgraph.Gen.gnp (fresh 1111) 48 0.2 in
           ignore (Agm.Connectivity.k_forests g ~k:3 coins)));
    Test.make ~name:"T11:mincut-stoer-wagner(n=64)"
      (Staged.stage (fun () ->
           let g = Dgraph.Gen.gnp (fresh 1112) 64 0.3 in
           ignore (Dgraph.Mincut.min_cut g)));
    Test.make ~name:"T12:one-round-local-minima(n=1024)"
      (Staged.stage (fun () ->
           ignore (Protocols.One_round_mis.undominated_fraction g1024 coins)));
    Test.make ~name:"T13:yao-derandomize(m=5)"
      (Staged.stage (fun () ->
           let rs5 = Rsgraph.Rs_graph.bipartite 5 in
           let instances = Array.init 4 (fun i -> Core.Hard_dist.sample rs5 (Stdx.Prng.create i)) in
           ignore
             (Core.Yao.derandomize ~seeds:[ 1; 2 ] ~instances ~run:(fun c dmm ->
                  let p =
                    Protocols.Sampled_mm.protocol ~budget_bits:24
                      ~strategy:Protocols.Sampled_mm.Uniform
                  in
                  let out, _ = Sketchmodel.Model.run p dmm.Core.Hard_dist.graph c in
                  Dgraph.Matching.is_maximal dmm.Core.Hard_dist.graph out))));
    Test.make ~name:"T14:bcc-logn-mm(n=128)"
      (Staged.stage (fun () -> ignore (Protocols.Bcc_mm.run g128 coins)));
    Test.make ~name:"T15:hyper-iterated-mm(n=400,m=300,k=3)"
      (Staged.stage (fun () ->
           let h = Dgraph.Hgen.uniform_random (fresh 1515) ~n:400 ~m:300 ~k:3 in
           ignore (Protocols.Hyper_mm.run_iterated h coins)));
    Test.make ~name:"T2b:packed-rs(N=50,r=5)"
      (Staged.stage (fun () ->
           ignore (Rsgraph.Packed.achieved_t (Stdx.Prng.create 3) ~big_n:50 ~r:5 ~tries:500)));
    (* The freeze pipeline's sort kernel, head-to-head: the LSD radix sort
       Graph uses for packed edge keys against the stdlib comparison sort it
       replaced, on the same 200k-key workload (~ a 450-vertex gnp(0.5)
       freeze). The BENCH_tables.json `phases."graph.sort"` column shows
       the same win in situ. *)
    Test.make ~name:"graph:radix-sort(200k keys)"
      (Staged.stage
         (let keys = Array.init 200_000 (fun i -> (i * 2654435761) land 0x3FFFFFFF) in
          fun () -> Dgraph.Columnar.radix_sort_nonneg (Array.copy keys)));
    Test.make ~name:"graph:stdlib-sort(200k keys)"
      (Staged.stage
         (let keys = Array.init 200_000 (fun i -> (i * 2654435761) land 0x3FFFFFFF) in
          fun () ->
            let a = Array.copy keys in
            Array.sort compare a));
  ]

(* Requests per latency mix: enough that p99 is a real percentile (the
   tenth-largest sample), not the maximum of a few dozen. *)
let samples_per_mix = 1000

let jobj fields = T.string_of_json (T.Jobj fields)
let ping = jobj [ ("op", T.Jstr "ping") ]

(* The latency harness shared by `serve` and `cluster`: four request
   mixes over one persistent loopback connection [c] — ping (transport
   floor), uncached runs (distinct seeds, every request computes), cached
   runs (one seed repeated, every request after the warm-up is an LRU
   hit) and cached simulates. Prints percentiles and throughput per mix
   and writes one JSON line per mix to [oc]. *)
let latency_mixes c oc =
  let time_one payload =
    let response, s = Stdx.Parallel.timed (fun () -> Server.Client.request c payload) in
    (match T.member "ok" (T.json_of_string response) with
    | Some (T.Jbool true) -> ()
    | _ -> failwith ("bench: request failed: " ^ response));
    s *. 1000.
  in
  let mix name payload =
    let samples = Array.init samples_per_mix (fun i -> time_one (payload i)) in
    let q p = Stdx.Stats.quantile samples p in
    let total_s = Array.fold_left ( +. ) 0. samples /. 1000. in
    let rps = float_of_int samples_per_mix /. total_s in
    Printf.printf
      "%-18s n=%-4d p50=%8.3f ms  p90=%8.3f ms  p95=%8.3f ms  p99=%8.3f ms  %8.0f req/s\n%!"
      name samples_per_mix (q 0.5) (q 0.9) (q 0.95) (q 0.99) rps;
    Printf.fprintf oc
      "{\"mix\":%S,\"n\":%d,\"p50_ms\":%s,\"p90_ms\":%s,\"p95_ms\":%s,\"p99_ms\":%s,\"throughput_rps\":%s}\n"
      name samples_per_mix (T.float_repr (q 0.5)) (T.float_repr (q 0.9))
      (T.float_repr (q 0.95)) (T.float_repr (q 0.99)) (T.float_repr rps)
  in
  let run_payload seed =
    jobj
      [
        ("op", T.Jstr "run");
        ("id", T.Jstr "claim31");
        ("smoke", T.Jbool true);
        ("seed", T.Jint seed);
      ]
  in
  let simulate_payload =
    jobj
      [
        ("op", T.Jstr "simulate");
        ("protocol", T.Jstr "two-round-mm");
        ("graph", T.Jobj [ ("kind", T.Jstr "gnp"); ("n", T.Jint 64); ("p", T.Jfloat 0.1) ]);
        ("seed", T.Jint 7);
      ]
  in
  mix "ping" (fun _ -> ping);
  (* Distinct seeds: every request misses the cache and computes
     (behind the proxy, the ring spreads the seeds over the shards). *)
  mix "run-uncached" (fun i -> run_payload (1000 + i));
  (* One seed repeated: after the warm-up miss, every request hits
     (behind the proxy, on the one backend that owns the key). *)
  ignore (time_one (run_payload 1));
  mix "run-cached" (fun _ -> run_payload 1);
  ignore (time_one simulate_payload);
  mix "simulate-cached" (fun _ -> simulate_payload)

(* The daemon-only step after the mixes: conn-limit shedding and herd
   liveness. The daemon's cap is herd + 1, so with the herd and the
   mixes' connection [c] still open, every further connect must be
   answered with one 503 conn-limit frame and closed. *)
let herd_probe ~port ~herd c oc =
  let connections = Array.length herd in
  (* Raw sockets here — the frame arrives unprompted at accept time. *)
  let shed = ref 0 in
  for _ = 1 to 8 do
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
       match T.member "error" (T.json_of_string (Server.Wire.read_frame fd)) with
       | Some (T.Jstr "conn-limit") -> incr shed
       | _ -> ()
     with _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  done;
  (* A sample of the herd must still answer after the mixes: idle
     connections survive back-pressure and the shed probe. *)
  let step = max 1 (connections / 16) in
  let alive = ref 0 and sampled = ref 0 in
  let i = ref 0 in
  while !i < connections do
    incr sampled;
    (match T.member "ok" (T.json_of_string (Server.Client.request herd.(!i) ping)) with
    | Some (T.Jbool true) -> incr alive
    | _ -> ()
    | exception _ -> ());
    i := !i + step
  done;
  let conns =
    match
      T.member "connections"
        (T.json_of_string (Server.Client.request c (jobj [ ("op", T.Jstr "stats") ])))
    with
    | Some (T.Jobj fields) -> fields
    | _ -> []
  in
  let conn_field name = match List.assoc_opt name conns with Some (T.Jint n) -> n | _ -> -1 in
  let open_now = conn_field "open" in
  let accepted = conn_field "accepted" in
  let rejected = conn_field "rejected" in
  Printf.printf
    "%-18s target=%d open=%d accepted=%d shed=%d (saw %d/8 conn-limit frames) \
     herd-alive=%d/%d\n\
     %!"
    "connections" connections open_now accepted rejected !shed !alive !sampled;
  Printf.fprintf oc
    "{\"mix\":\"connections\",\"target\":%d,\"open\":%d,\"accepted\":%d,\"shed\":%d,\"shed_frames_seen\":%d,\"herd_sampled\":%d,\"herd_alive\":%d}\n"
    connections open_now accepted rejected !shed !sampled !alive

(* `serve`: end-to-end latency of one in-process sketchd over loopback
   TCP → BENCH_serve.json. With [connections] > 0 an idle herd of that
   many open-but-quiet clients is held for the whole bench: the event
   engine must carry every one (no FD_SETSIZE cliff, no per-connection
   thread) while the active connection runs the mixes, and the herd
   probe runs after them. *)
let serve_latency ~connections () =
  print_endline "=== sketchd end-to-end latency (loopback TCP, persistent connection) ===";
  let max_conns = if connections > 0 then connections + 1 else 8192 in
  let d = Server.Daemon.start ~workers:2 ~capacity:32 ~max_conns () in
  let port = Server.Daemon.port d in
  let oc = open_out "BENCH_serve.json" in
  let herd = Array.init connections (fun _ -> Server.Client.connect ~port ()) in
  Server.Client.with_connection ~port (fun c ->
      latency_mixes c oc;
      if connections > 0 then herd_probe ~port ~herd c oc);
  Array.iter Server.Client.close herd;
  Server.Daemon.stop d;
  Server.Daemon.wait d;
  close_out oc;
  print_endline "bench: wrote BENCH_serve.json"

(* `cluster`: the same mixes through the routing tier — one sketchproxy
   in front of four in-process sketchd backends, so every request pays
   client -> proxy -> backend framing twice → BENCH_cluster.json. *)
let cluster_latency () =
  print_endline "=== 1-proxy/4-backend cluster latency (loopback TCP, persistent connection) ===";
  let backends = List.init 4 (fun _ -> Server.Daemon.start ~workers:1 ~capacity:32 ()) in
  let addrs =
    List.map (fun d -> Printf.sprintf "127.0.0.1:%d" (Server.Daemon.port d)) backends
  in
  (* A long health interval keeps the background pinger out of the
     latency samples; every request here probes health on its own. *)
  let proxy = Server.Proxy.start ~health_interval_s:60. ~backends:addrs () in
  let oc = open_out "BENCH_cluster.json" in
  Server.Client.with_connection ~port:(Server.Proxy.port proxy) (fun c -> latency_mixes c oc);
  Server.Proxy.stop proxy;
  Server.Proxy.wait proxy;
  List.iter
    (fun d ->
      Server.Daemon.stop d;
      Server.Daemon.wait d)
    backends;
  close_out oc;
  print_endline "bench: wrote BENCH_cluster.json"

(* `streams`: the multipass wing's accounting, one JSON line per run in
   BENCH_streams.json. Two families: the r-round frontier protocols on a
   D_MM instance (per-round player bits and broadcast bits) and the
   multi-pass streaming matcher on gnp inputs (per-pass memory and
   matching growth). The `--fast` sizes are what CI's streams smoke
   validates with jsoncheck. *)
let streams_bench ?(fast = false) () =
  print_endline "=== multipass wing: per-round / per-pass accounting ===";
  let oc = open_out "BENCH_streams.json" in
  let jarr l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]" in
  let jarr_a a = jarr (Array.to_list a) in
  (* Round frontier on D_MM. *)
  let m = if fast then 5 else 25 in
  let rs = Rsgraph.Rs_graph.bipartite m in
  let dmm = Core.Hard_dist.sample rs (Stdx.Prng.create 77) in
  let g = dmm.Core.Hard_dist.graph in
  let coins = Sketchmodel.Public_coins.create 78 in
  let round_runs =
    List.map
      (fun r ->
        (Printf.sprintf "prefix-mis-r%d" r, fun () -> Protocols.Frontier.run ~rounds:r g coins))
      (if fast then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 6 ])
    @ List.map
        (fun kind ->
          ( "luby-mis-" ^ Protocols.Luby.priority_name kind,
            fun () -> Protocols.Luby.run kind g coins ))
        [ Protocols.Luby.Random; Protocols.Luby.Degree; Protocols.Luby.Index ]
  in
  List.iter
    (fun (name, run) ->
      let (mis, stats), wall = Stdx.Parallel.timed run in
      let s : Sketchmodel.Rounds.stats = stats in
      Printf.printf "%-18s rounds=%-3d max=%6d bits  total=%8d bits  bcast=%6d bits  %s\n%!"
        name s.Sketchmodel.Rounds.rounds s.Sketchmodel.Rounds.max_bits
        s.Sketchmodel.Rounds.total_bits s.Sketchmodel.Rounds.broadcast_bits
        (if Dgraph.Mis.is_maximal g mis then "maximal" else "NOT MAXIMAL");
      Printf.fprintf oc
        "{\"bench\":\"rounds\",\"protocol\":%S,\"m\":%d,\"n\":%d,\"rounds\":%d,\"max_bits\":%d,\"total_bits\":%d,\"broadcast_bits\":%d,\"round_max\":%s,\"round_total\":%s,\"round_broadcast\":%s,\"wall_s\":%s}\n"
        name m (Dgraph.Graph.n g) s.Sketchmodel.Rounds.rounds s.Sketchmodel.Rounds.max_bits
        s.Sketchmodel.Rounds.total_bits s.Sketchmodel.Rounds.broadcast_bits
        (jarr_a s.Sketchmodel.Rounds.round_max)
        (jarr_a s.Sketchmodel.Rounds.round_total)
        (jarr_a s.Sketchmodel.Rounds.round_broadcast)
        (T.float_repr wall))
    round_runs;
  (* Multi-pass streaming matching on gnp. *)
  let n = if fast then 48 else 192 in
  let rng = Stdx.Prng.create 79 in
  let sg = Dgraph.Gen.gnp rng n (8.0 /. float_of_int n) in
  let stream = Streams.Stream.shuffled rng sg in
  let optimum = Dgraph.Blossom.maximum_matching_size sg in
  List.iter
    (fun eps_pct ->
      let eps = float_of_int eps_pct /. 100.0 in
      let res, wall = Stdx.Parallel.timed (fun () -> Streams.Stream_matching.run ~eps stream) in
      let passes = res.Streams.Stream_matching.passes in
      let per f = List.map f passes in
      let size = Dgraph.Matching.size res.Streams.Stream_matching.matching in
      Printf.printf
        "stream-matching    eps=%-3d%% passes=%-3d peak=%6d bits  matching=%d/%d  %s\n%!"
        eps_pct (List.length passes) res.Streams.Stream_matching.peak_memory_bits size optimum
        (if res.Streams.Stream_matching.converged then "converged" else "budget");
      Printf.fprintf oc
        "{\"bench\":\"passes\",\"protocol\":\"stream-matching\",\"n\":%d,\"eps_pct\":%d,\"passes\":%d,\"peak_memory_bits\":%d,\"matching\":%d,\"optimum\":%d,\"converged\":%b,\"pass_memory_bits\":%s,\"pass_matching\":%s,\"pass_augmented\":%s,\"wall_s\":%s}\n"
        n eps_pct (List.length passes) res.Streams.Stream_matching.peak_memory_bits size
        optimum res.Streams.Stream_matching.converged
        (jarr (per (fun p -> p.Streams.Stream_matching.memory_bits)))
        (jarr (per (fun p -> p.Streams.Stream_matching.matching_size)))
        (jarr (per (fun p -> p.Streams.Stream_matching.augmented)))
        (T.float_repr wall))
    [ 50; 25; 10 ];
  close_out oc;
  print_endline "bench: wrote BENCH_streams.json"

let run_benchmarks () =
  print_endline "\n=== Bechamel micro-benchmarks (one kernel per table/figure) ===";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"sketchlb" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-50s %15s\n" "kernel" "time/run";
  List.iter
    (fun (name, ols_result) ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | Some [] | None -> nan
      in
      let pretty =
        if estimate >= 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
        else if estimate >= 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
        else if estimate >= 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
        else Printf.sprintf "%.0f ns" estimate
      in
      Printf.printf "%-50s %15s\n" name pretty)
    rows

let usage =
  "usage: main.exe [tables|bench|serve|cluster|streams|all] [-j N] [--fast] [--trace FILE] \
   [--connections N]"

let usage_error msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline usage;
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" flag v)

let nonneg_arg flag v =
  let n = int_arg flag v in
  if n < 0 then usage_error (Printf.sprintf "%s expects a non-negative integer, got %d" flag n);
  n

let () =
  (* [-j] shards the Monte-Carlo tables over N domains; the printed tables
     are identical at any N. [--trace] writes the whole run's span trace as
     a Perfetto-loadable Chrome trace_event file. An unknown argument or a
     malformed number prints the usage line and exits 2. *)
  let args = Array.to_list Sys.argv in
  let rec parse mode jobs fast trace connections = function
    | [] -> (mode, jobs, fast, trace, connections)
    | (("-j" | "--jobs") as f) :: v :: rest ->
        parse mode (Some (int_arg f v)) fast trace connections rest
    | "--fast" :: rest -> parse mode jobs true trace connections rest
    | "--trace" :: v :: rest -> parse mode jobs fast (Some v) connections rest
    | ("--connections" as f) :: v :: rest -> parse mode jobs fast trace (nonneg_arg f v) rest
    | ("tables" | "bench" | "serve" | "cluster" | "streams" | "all") as m :: rest ->
        parse m jobs fast trace connections rest
    | [ ("-j" | "--jobs" | "--trace" | "--connections") as f ] ->
        usage_error (f ^ " expects a value")
    | arg :: _ -> usage_error ("unknown argument " ^ arg)
  in
  let mode, jobs, fast, trace, connections = parse "all" None false None 0 (List.tl args) in
  let jobs = match jobs with Some j when j > 0 -> Some j | Some _ | None -> None in
  Report.Trace_export.with_file trace (fun () ->
      match mode with
      | "tables" -> tables ~fast ?jobs ()
      | "bench" -> run_benchmarks ()
      | "serve" -> serve_latency ~connections ()
      | "cluster" -> cluster_latency ()
      | "streams" -> streams_bench ~fast ()
      | _ ->
          tables ~fast ?jobs ();
          run_benchmarks ();
          serve_latency ~connections ();
          cluster_latency ();
          streams_bench ~fast ());
  print_endline "\nbench: done"
