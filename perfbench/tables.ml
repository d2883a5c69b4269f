(* The tables-full workload: every registered experiment at its
   [full_overrides] sizes with jobs=1, run in this process through
   [Exp_registry.measured_table] — what a researcher runs to reproduce
   the paper. The tables run in registry order with their registered
   seeds, so their rows must match the digests recorded below. A
   seed-shuffled order was tried: it made peak RSS depend on the seed
   (17% spread over ten seeds), so the order is fixed. *)

module R = Core.Exp_registry
module T = Report.Tabular

type size = Full | Smoke

type result = {
  id : string;
  wall_s : float;
  gc : R.gc_cost;
  digest : string;
  spans : Spans.span list;  (** The table's spans, when traced. *)
}

(* The speedup table reports its own wall-clock time; that column is the
   only one that differs between runs of the same code. *)
let volatile_cols = [ "wall_s" ]

let rows_digest (tbl : T.table) =
  let keep = List.map (fun (c : T.col) -> not (List.mem c.T.name volatile_cols)) tbl.T.schema in
  let mask l = List.filteri (fun i _ -> List.nth keep i) l in
  let schema = mask tbl.T.schema in
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun row -> T.json_of_row schema (mask row)) tbl.T.rows)))

let overrides size e =
  (* [merge] keeps the first binding of a name, so jobs=1 beats the
     speedup table's smoke jobs=2. *)
  ("jobs", R.Vint 1) :: (match size with Full -> R.overrides_for ~fast:false e | Smoke -> R.smoke e)

let run_one ~size ~traced e =
  (* Each table starts from a compacted heap, so the garbage that earlier
     tables and the bench itself leave behind does not set its peak
     memory: without this, 0.24 MB of short-lived data allocated by the
     bench before the pass moved peak RSS from 332 to 315 MB. *)
  Gc.compact ();
  if traced then Stdx.Trace.reset ();
  let (tbl, gc), wall_s = Stdx.Parallel.timed (fun () -> R.measured_table e (overrides size e)) in
  let spans = if traced then Spans.of_events (Stdx.Trace.dump ()) else [] in
  { id = R.id e; wall_s; gc; digest = rows_digest tbl; spans }

(* Rows digests of every table at [full_overrides], jobs=1, in registry
   order. Regenerate with [main.exe --print-digests] only when a change
   to the tables' output is intended (the golden tests pin the same
   rows). *)
let expected_full =
  [
    ("rs-table", "acc2c43d0b35d596ed924fe9d60253e3");
    ("behrend", "59d06e493183b2146a0a52b07d1830b1");
    ("claim31", "472acee35b38efae602715a2e52624d1");
    ("budget-sweep", "f540d65bf8490b0f85aaa9248ba3116e");
    ("info-accounting", "245ddf8da0e7d561efc79854f6944ef7");
    ("upper-bounds", "66aa42cd77ccca28a98693ffcb089b76");
    ("coloring-contrast", "77171b179fd785ee10be16808065d6a8");
    ("bound-curve", "004c3e9b8f150568ed67d4720661dd20");
    ("reduction", "67c98f5174d07a7d8d9ef267d8bb07df");
    ("bridge", "fbb96eca98a2649a6d352cd8a88ec496");
    ("approx-matching", "bca251960d865624296d1c2c2e603457");
    ("k-sweep", "e71f51aa45d091394a07e9cbf1554802");
    ("streams", "dd6d15e7ae252f15f27d6d94c368bbe4");
    ("connectivity", "6dccad17fe8312ac9a8f317bd4623bf5");
    ("rounds", "1b8d88705664e4d8a6bbb05291da2f8c");
    ("packing", "2d17eedd0b3b32608345be10c5304733");
    ("estimate-info", "019ddca253433f6a555a6b74b37cab2e");
    ("yao", "38196d4594d18f47bd3c9fc6b9988808");
    ("bcc", "9f3afe2b62468fe37bec67a7e715bc13");
    ("hypergraph-mm", "7891b0be223f68db243d4890c6186dac");
    ("round-frontier", "b4732964da090ae8a4f7037376ae03e4");
    ("stream-matching", "2e917b32f9e48726948142209b53263a");
    ("speedup", "fadb619cd07f2579cbecebd3135df07a");
  ]

(* One digest over every table's rows at smoke sizes. *)
let expected_smoke = "1d776c88fbd84bc55fa2749271b37b41"

let combined results =
  let by_id = List.map (fun r -> (r.id, r.digest)) results in
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map (fun id -> List.assoc id by_id) (R.ids ()))))

(* The names of tables whose rows differ from the recorded digests. *)
let check ~size results =
  match size with
  | Full ->
      List.filter_map
        (fun r ->
          match List.assoc_opt r.id expected_full with
          | Some d when d = r.digest -> None
          | _ -> Some r.id)
        results
  | Smoke -> if combined results = expected_smoke then [] else [ "smoke-digest" ]

(* Kernels: each library's public entry point on a fixed input sized like
   its table's, timed outside any table. [k] calls, median reported. *)
let kernels () =
  let coins = Sketchmodel.Public_coins.create 4242 in
  let gnp seed n p = Dgraph.Gen.gnp (Stdx.Prng.create seed) n p in
  [
    (* coloring-contrast runs n = 256..2048; one call at 2048 takes
       ~12 s, so the kernel uses 512 (same G(n, 1/2) family). *)
    ( "kernel.coloring.palette_ms",
      3,
      let g = gnp 1 512 0.5 in
      fun () -> ignore (Coloring.Palette.run g coins) );
    ( "kernel.agm.bridge_ms",
      3,
      fun () ->
        ignore
          (Agm.Bridge_demo.success_probability ~half:512 ~samples_per_vertex:4 ~trials:2 ~seed:29)
    );
    ( "kernel.accounting.analyze_ms",
      5,
      fun () ->
        ignore
          (Core.Accounting.analyze
             {
               Core.Accounting.rs = Core.Accounting.tiny_rs ();
               k = 2;
               bits = 10;
               strategy = Core.Accounting.Truncate;
               sigma_mode = Core.Accounting.Enumerate_sigma;
             }) );
    ("kernel.rs.behrend_ms", 3, fun () -> ignore (Rsgraph.Behrend.best 10000));
    ( "kernel.agm.spanning_forest_ms",
      3,
      let g = gnp 3 128 0.25 in
      fun () -> ignore (Agm.Spanning_forest.run g coins) );
    ( "kernel.graph.freeze_ms",
      5,
      let edges = Dgraph.Graph.edges_array (gnp 4 1024 0.5) in
      fun () -> ignore (Dgraph.Graph.of_edge_array 1024 edges) );
    ( "kernel.blossom_ms",
      21,
      let g = gnp 5 160 (4. /. 160.) in
      fun () -> ignore (Dgraph.Blossom.maximum_matching g) );
  ]

let time_kernels ~smoke =
  List.map
    (fun (name, k, f) ->
      let k = if smoke then 1 else k in
      let samples = Array.init k (fun _ -> snd (Stdx.Parallel.timed f) *. 1000.) in
      (name, Summary.median samples))
    (kernels ())

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

(* Set-up time: process start until the registry is initialised, timed
   on a fresh process of this executable (main.exe exits right after
   initialising when given --probe-registry). *)
let registry_start_s () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe-registry" |] null null null
  in
  Unix.close null;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "registry probe failed");
  Unix.gettimeofday () -. t0

(* Start-up time drifts with the host from one second to the next, so
   the probes are spread over the run: a few after every table. *)
let probes_per_table = 3

let size_of ~smoke = if smoke then Smoke else Full

let run_untraced ~smoke ~seconds =
  let size = size_of ~smoke in
  let setup = ref [] in
  let table e =
    let r = run_one ~size ~traced:false e in
    for _ = 1 to probes_per_table do
      setup := registry_start_s () :: !setup
    done;
    r
  in
  let t0 = Unix.gettimeofday () in
  (* At least one pass; more while the run has time left, so a faster
     table pass measures more work instead of a shorter run. *)
  let rec passes acc =
    let acc = List.map table (Core.Exp_all.all ()) :: acc in
    if Unix.gettimeofday () -. t0 < seconds then passes acc else List.rev acc
  in
  let all = passes [] in
  let runs = List.concat all in
  let walls = Array.of_list (List.map (fun (r : result) -> r.wall_s *. 1000.) runs) in
  let total_s = Array.fold_left ( +. ) 0. walls /. 1000. in
  let bad = List.sort_uniq compare (List.concat_map (check ~size) all) in
  {
    Catalogue.metrics =
      [ ("setup_s", Summary.median (Array.of_list !setup)); ("peak_rss_mb", Procfs.hwm_mb 0) ];
    attempted = List.length runs;
    failed = 0;
    errors = List.map (fun id -> "rows differ from the recorded digest: " ^ id) bad;
    summary =
      [
        Printf.sprintf "%d pass(es), %d tables, %.2f s of table wall time, median %.1f ms, slowest %.2f s"
          (List.length all) (List.length runs) total_s (Summary.median walls)
          (Array.fold_left Float.max 0. walls /. 1000.);
        Printf.sprintf "registry start-up: median of %d probes" (List.length !setup);
      ];
  }

(* Traced tables-full: per-table wall, allocation, GC, span self time,
   kernels and the cost of tracing itself. *)
let run_traced ~smoke =
  let size = size_of ~smoke in
  Stdx.Trace.enable ~capacity:(1 lsl 20) ();
  let results =
    List.map
      (fun e ->
        let r = run_one ~size ~traced:true e in
        (r, (Stdx.Trace.stats ()).Stdx.Trace.dropped))
      (Core.Exp_all.all ())
  in
  Stdx.Trace.disable ();
  let dropped =
    List.filter_map (fun ((r : result), d) -> if d > 0 then Some r.id else None) results
  in
  let results = List.map fst results in
  let by_id id = List.find_opt (fun (r : result) -> r.id = id) results in
  let spans = List.concat_map (fun (r : result) -> r.spans) results in
  let self = Spans.self_totals spans in
  let exp_spans =
    List.filter (fun (s : Spans.span) -> String.starts_with ~prefix:"exp." s.name) spans
  in
  let exp_total = List.fold_left (fun acc (s : Spans.span) -> acc +. s.dur) 0. exp_spans /. 1e6 in
  let exp_names = List.sort_uniq compare (List.map (fun (s : Spans.span) -> s.name) exp_spans) in
  let exp_self = List.fold_left (fun acc name -> acc +. self name) 0. exp_names in
  let sum f = List.fold_left (fun acc (r : result) -> acc + f r.gc) 0 results in
  (* Tracing overhead on two span-heavy tables, alternating off and on. *)
  let overhead_ids = [ "claim31"; "budget-sweep" ] in
  let timed_pass traced =
    if traced then Stdx.Trace.enable () else Stdx.Trace.disable ();
    let t =
      List.fold_left
        (fun acc id ->
          match R.find id with
          | Some e -> acc +. (run_one ~size ~traced e).wall_s
          | None -> acc)
        0. overhead_ids
    in
    Stdx.Trace.disable ();
    t
  in
  let plain1 = timed_pass false in
  let traced1 = timed_pass true in
  let traced2 = timed_pass true in
  let plain2 = timed_pass false in
  let bad = check ~size results in
  let metrics =
    List.concat
      [
        [ ("tables.wall_s", List.fold_left (fun acc (r : result) -> acc +. r.wall_s) 0. results) ];
        List.map
          (fun id -> ("exp." ^ id ^ ".wall_s", match by_id id with Some r -> r.wall_s | None -> 0.))
          Catalogue.experiment_ids;
        List.map
          (fun id ->
            ( "exp." ^ id ^ ".alloc_mb",
              match by_id id with Some r -> r.gc.R.alloc_bytes /. 1048576. | None -> 0. ))
          Catalogue.alloc_ids;
        [
          ("gc.minor_collections", float_of_int (sum (fun g -> g.R.minor_collections)));
          ("gc.major_collections", float_of_int (sum (fun g -> g.R.major_collections)));
        ];
        List.map (fun s -> ("span." ^ s ^ ".self_s", self s)) Catalogue.span_names;
        [
          ( "trace.attributed_share",
            if exp_total > 0. then 1. -. (exp_self /. exp_total) else 0. );
        ];
        time_kernels ~smoke;
        [ ("trace.overhead_pct", (((traced1 +. traced2) /. (plain1 +. plain2)) -. 1.) *. 100.) ];
      ]
  in
  {
    Catalogue.metrics;
    attempted = List.length results;
    failed = 0;
    errors =
      List.map (fun id -> "rows differ from the recorded digest: " ^ id) bad
      @ List.map (fun id -> "trace ring dropped events during " ^ id) dropped;
    summary = [ Printf.sprintf "traced: %d tables" (List.length results) ];
  }
