(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   declares the same list with directions and bounds (the smoke pass
   checks the two agree); the README says which layer each belongs to and
   which end-to-end metric it should move. *)

type metric = { name : string; unit : string }

(* What one run reports. *)
type run = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  errors : string list;  (** Failed output checks; the run is incorrect if any. *)
  summary : string list;  (** Human-readable lines. *)
}

let m unit name = { name; unit }

let end_to_end = [ m "s" "setup_s"; m "MB" "peak_rss_mb" ]

let experiment_ids =
  [
    "rs-table"; "behrend"; "claim31"; "budget-sweep"; "info-accounting"; "upper-bounds";
    "coloring-contrast"; "bound-curve"; "reduction"; "bridge"; "approx-matching"; "k-sweep";
    "streams"; "connectivity"; "rounds"; "packing"; "estimate-info"; "yao"; "bcc";
    "hypergraph-mm"; "round-frontier"; "stream-matching"; "speedup";
  ]

let alloc_ids = [ "bridge"; "coloring-contrast"; "rounds"; "round-frontier"; "estimate-info" ]

let span_names =
  [
    "graph.freeze"; "graph.sort"; "graph.dedup"; "graph.csr-fill"; "hard_dist.sample";
    "parallel.chunk"; "protocol.round"; "stream.pass"; "claims.check"; "reduction.build_h";
  ]

let kernel_names =
  [
    "kernel.coloring.palette_ms"; "kernel.agm.bridge_ms"; "kernel.accounting.analyze_ms";
    "kernel.rs.behrend_ms"; "kernel.agm.spanning_forest_ms"; "kernel.graph.freeze_ms";
    "kernel.blossom_ms";
  ]

let herd_sizes = [ 0; 1000; 5000; 10000 ]

(* Server-side spans read from --trace dumps, reported as p50 durations. *)
let server_spans =
  [
    "daemon.request"; "wire.decode"; "wire.encode"; "rpc.run"; "rpc.simulate";
    "service.schedule"; "scheduler.compute";
  ]

let per_layer =
  List.concat
    [
      [ m "s" "tables.wall_s" ];
      List.map (fun id -> m "s" ("exp." ^ id ^ ".wall_s")) experiment_ids;
      List.map (fun id -> m "MB" ("exp." ^ id ^ ".alloc_mb")) alloc_ids;
      [ m "count" "gc.minor_collections"; m "count" "gc.major_collections" ];
      List.map (fun s -> m "s" ("span." ^ s ^ ".self_s")) span_names;
      [ m "ratio" "trace.attributed_share" ];
      List.map (m "ms") kernel_names;
      List.map (fun (p, _) -> m "ms" ("simulate." ^ p ^ ".p50_ms")) Server.Simulate.protocols;
      [
        m "ms" "registry.run.p50_ms";
        m "us" "service.miss.p50_us";
        m "us" "service.hit.p50_us";
        m "us" "scheduler.handoff.p50_us";
        m "us" "cache.find.p50_us";
        m "us" "wire.codec.p50_us";
      ];
      List.map (fun h -> m "us" (Printf.sprintf "daemon.ping.p50_us.h%d" h)) herd_sizes;
      List.map (fun s -> m "us" (s ^ ".p50_us")) server_spans;
      [
        m "us" "client.transport.p50_us";
        m "ratio" "cache.hit_ratio";
        m "count" "cache.evictions";
        m "count" "queue.shed";
        m "count" "daemon.accepted";
        m "count" "daemon.open";
        m "ms" "proxy.hop.p50_ms";
        m "us" "proxy.route.p50_us";
        m "us" "proxy.forward.p50_us";
        m "count" "proxy.forwarded";
        m "count" "proxy.failovers";
        m "count" "proxy.retries";
        m "count" "proxy.shed_relayed";
        m "ratio" "ring.max_share";
        m "ms" "loadgen.p50_ms";
        m "ms" "loadgen.p99_ms";
        m "1/s" "loadgen.throughput_ops";
        m "ms" "server.cpu_ms_per_op";
        m "ms" "loadgen.late_p99_ms";
        m "count" "loadgen.samples";
        m "%" "trace.overhead_pct";
      ];
    ]
