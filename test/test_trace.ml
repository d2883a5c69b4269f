(* Stdx.Trace + Report.Trace_export: span pairing across domains, the
   zero-allocation disabled fast path, exporter round-trips through
   Tabular's JSON parser, a golden snapshot of the trace_event schema,
   the graph and hypergraph freeze spans, the [protocol.round] spans of
   multi-round runs, and the inertness
   regression — golden table output is byte-identical with tracing
   enabled. *)

module Tr = Stdx.Trace
module E = Report.Trace_export
module T = Report.Tabular
module R = Core.Exp_registry

(* Every test shares one process-wide tracer; start each from a clean,
   disabled state. *)
let fresh () =
  Tr.disable ();
  Tr.reset ()

let events_named name evs = List.filter (fun (e : Tr.event) -> e.Tr.name = name) evs

(* --------------------------------------------------------------- *)
(* Span pairing and nesting                                         *)

let test_begin_end_balance () =
  fresh ();
  Tr.enable ();
  Tr.begin_ "t.outer";
  Tr.begin_ "t.inner";
  Tr.end_ ();
  Tr.end_ ();
  Tr.disable ();
  let evs = Tr.dump () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  (* LIFO: the inner span closes first but starts later. *)
  let outer = List.hd (events_named "t.outer" evs) in
  let inner = List.hd (events_named "t.inner" evs) in
  Alcotest.(check bool) "inner starts after outer" true (inner.Tr.ts_us >= outer.Tr.ts_us);
  Alcotest.(check bool) "inner nests inside outer" true
    (inner.Tr.ts_us +. inner.Tr.dur_us <= outer.Tr.ts_us +. outer.Tr.dur_us +. 1e-6);
  Alcotest.(check string) "category is the dot-prefix" "t" outer.Tr.cat

let test_unbalanced_end_ignored () =
  fresh ();
  Tr.enable ();
  Tr.end_ ();
  (* An end_ with no open span must not record or raise. *)
  Tr.disable ();
  Alcotest.(check int) "no events" 0 (List.length (Tr.dump ()))

let test_open_span_not_dumped () =
  fresh ();
  Tr.enable ();
  Tr.begin_ "t.open";
  Alcotest.(check int) "open span invisible" 0 (List.length (Tr.dump ()));
  Tr.end_ ();
  Alcotest.(check int) "closed span visible" 1 (List.length (Tr.dump ()));
  Tr.disable ()

let test_per_domain_stacks () =
  fresh ();
  Tr.enable ();
  (* Two domains each record a balanced pair concurrently; the stacks are
     per-domain, so the four events pair up by tid. *)
  let worker () =
    Tr.begin_ "t.domain-outer";
    Tr.begin_ "t.domain-inner";
    Tr.end_ ();
    Tr.end_ ()
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  Tr.disable ();
  let evs = Tr.dump () in
  Alcotest.(check int) "four events" 4 (List.length evs);
  let tids = List.sort_uniq compare (List.map (fun (e : Tr.event) -> e.Tr.tid) evs) in
  Alcotest.(check int) "two distinct domains" 2 (List.length tids);
  List.iter
    (fun tid ->
      let mine = List.filter (fun (e : Tr.event) -> e.Tr.tid = tid) evs in
      let outer = List.hd (events_named "t.domain-outer" mine) in
      let inner = List.hd (events_named "t.domain-inner" mine) in
      Alcotest.(check bool)
        (Printf.sprintf "tid %d inner inside outer" tid)
        true
        (inner.Tr.ts_us >= outer.Tr.ts_us
        && inner.Tr.ts_us +. inner.Tr.dur_us <= outer.Tr.ts_us +. outer.Tr.dur_us +. 1e-6))
    tids

let test_ring_drops_oldest () =
  fresh ();
  (* Tiny ring: 10 slots, 25 instants -> 10 kept (the newest), 15 dropped.
     Buffers already created keep their capacity, so the writes must come
     from a fresh domain, whose buffer is created at the new size. *)
  Tr.enable ~capacity:10 ();
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 25 do
          Tr.instant (Printf.sprintf "t.i%d" i)
        done)
  in
  Domain.join d;
  Tr.disable ();
  let evs = Tr.dump () in
  let st = Tr.stats () in
  Alcotest.(check int) "ring keeps capacity" 10 (List.length evs);
  Alcotest.(check int) "drop counter" 15 st.Tr.dropped;
  Alcotest.(check bool) "newest survives" true
    (List.exists (fun (e : Tr.event) -> e.Tr.name = "t.i25") evs);
  Alcotest.(check bool) "oldest dropped" true
    (not (List.exists (fun (e : Tr.event) -> e.Tr.name = "t.i1") evs));
  (* Restore the default so later tests are not stuck with 10 slots. *)
  Tr.enable ();
  Tr.disable ();
  Tr.reset ()

let test_stats_and_counter () =
  fresh ();
  Tr.enable ();
  Tr.counter "t.depth" 3;
  Tr.instant "t.mark";
  Tr.disable ();
  let st = Tr.stats () in
  Alcotest.(check bool) "disabled after disable" false st.Tr.tracing;
  Alcotest.(check int) "two events" 2 st.Tr.events;
  Alcotest.(check int) "nothing dropped" 0 st.Tr.dropped;
  let c = List.hd (events_named "t.depth" (Tr.dump ())) in
  Alcotest.(check bool) "counter phase" true (c.Tr.ph = Tr.Counter);
  Alcotest.(check bool) "counter value in args" true
    (List.assoc "value" c.Tr.args = Tr.Int 3)

(* --------------------------------------------------------------- *)
(* Disabled fast path allocates nothing                             *)

let test_disabled_no_alloc () =
  fresh ();
  assert (not (Tr.enabled ()));
  let iters = 100_000 in
  (* Warm up so any one-time lazy setup (DLS buffer) is paid outside the
     measured window. *)
  for _ = 1 to 100 do
    Tr.begin_ "t.hot";
    Tr.end_ ();
    Tr.counter "t.c" 1;
    Tr.instant "t.i"
  done;
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    Tr.begin_ "t.hot";
    Tr.end_ ();
    Tr.counter "t.c" 1;
    Tr.instant "t.i"
  done;
  let a1 = Gc.allocated_bytes () in
  (* [Gc.allocated_bytes] itself allocates its boxed float result, so the
     budget is a small constant, not zero: anything per-call would cost
     >= one word * iters, orders of magnitude above this bound. *)
  let delta = a1 -. a0 in
  if delta > 512. then
    Alcotest.failf "disabled tracing allocated %.0f bytes over %d iterations" delta iters

(* --------------------------------------------------------------- *)
(* Exporter: JSON round-trip + schema                               *)

let arg_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Tr.Int i) small_signed_int;
      map (fun f -> Tr.Float f) (float_bound_inclusive 1e6);
      map (fun s -> Tr.Str s) (small_string ~gen:printable);
      map (fun b -> Tr.Bool b) bool;
    ]

let event_gen =
  let open QCheck.Gen in
  let name = oneofl [ "g.freeze"; "exp.claim31"; "rpc.run"; "pool.job"; "plain" ] in
  let ph = oneofl [ Tr.Complete; Tr.Instant; Tr.Counter ] in
  map
    (fun (name, ph, ts, dur, tid, args) ->
      {
        Tr.name;
        cat = (match String.index_opt name '.' with
              | Some i -> String.sub name 0 i
              | None -> name);
        ph;
        ts_us = ts;
        dur_us = (match ph with Tr.Complete -> dur | _ -> 0.);
        tid;
        args;
      })
    (tup6 name ph (float_bound_inclusive 1e9) (float_bound_inclusive 1e6) (int_bound 8)
       (list_size (int_bound 3) (pair (small_string ~gen:printable) arg_gen)))

let events_arb =
  QCheck.make
    ~print:(fun evs -> E.to_string evs)
    QCheck.Gen.(list_size (int_bound 20) event_gen)

(* Any exported trace re-parses through Tabular and keeps its shape. *)
let export_roundtrip evs =
  let j = T.json_of_string (E.to_string ~dropped:3 evs) in
  (match T.member "traceEvents" j with
  | Some (T.Jarr items) ->
      List.length items = List.length evs
      && List.for_all2
           (fun item (e : Tr.event) ->
             T.member "name" item = Some (T.Jstr e.Tr.name)
             && T.member "pid" item = Some (T.Jint 1)
             && T.member "tid" item = Some (T.Jint e.Tr.tid)
             &&
             match e.Tr.ph with
             | Tr.Complete ->
                 T.member "ph" item = Some (T.Jstr "X") && T.member "dur" item <> None
             | Tr.Instant ->
                 T.member "ph" item = Some (T.Jstr "i")
                 && T.member "s" item = Some (T.Jstr "t")
             | Tr.Counter -> T.member "ph" item = Some (T.Jstr "C"))
           items evs
  | _ -> false)
  && T.member "displayTimeUnit" j = Some (T.Jstr "ms")
  &&
  match T.member "otherData" j with
  | Some od -> T.member "droppedEvents" od = Some (T.Jint 3)
  | None -> false

(* Golden schema snapshot: fixed synthetic events (no live timestamps)
   rendered byte-for-byte. Guards the exporter's field set and order —
   what Perfetto and downstream tooling parse. *)
let test_golden_schema () =
  let evs =
    [
      {
        Tr.name = "graph.freeze";
        cat = "graph";
        ph = Tr.Complete;
        ts_us = 10.5;
        dur_us = 2.25;
        tid = 0;
        args = [ ("edges", Tr.Int 42) ];
      };
      {
        Tr.name = "cache.hit";
        cat = "cache";
        ph = Tr.Instant;
        ts_us = 20.;
        dur_us = 0.;
        tid = 1;
        args = [];
      };
      {
        Tr.name = "scheduler.depth";
        cat = "scheduler";
        ph = Tr.Counter;
        ts_us = 30.;
        dur_us = 0.;
        tid = 1;
        args = [ ("value", Tr.Int 7) ];
      };
    ]
  in
  (* The producer string embeds the version; pin the schema, not the
     version, by substituting it out. *)
  let replace_once ~sub ~by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let got =
    replace_once ~sub:Stdx.Version.current ~by:"VERSION" (E.to_string ~dropped:1 evs) ^ "\n"
  in
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" "trace_schema.txt") In_channel.input_all
  in
  if got <> expected then
    Alcotest.failf "trace schema drifted\n--- golden ---\n%s--- got ---\n%s" expected got

let test_phase_totals () =
  let mk name ts dur =
    { Tr.name; cat = "t"; ph = Tr.Complete; ts_us = ts; dur_us = dur; tid = 0; args = [] }
  in
  let evs =
    [ mk "t.a" 0. 1e6; mk "t.b" 5. 2e6; mk "t.a" 10. 3e6;
      { (mk "t.skip" 15. 9e6) with ph = Tr.Instant } ]
  in
  let totals = E.phase_totals evs in
  Alcotest.(check (list (pair string (float 1e-9))))
    "sums by name in first-seen order, seconds"
    [ ("t.a", 4.); ("t.b", 2.) ]
    totals;
  let windowed = E.phase_totals ~since:4. ~until:12. evs in
  Alcotest.(check (list (pair string (float 1e-9))))
    "window selects by start timestamp"
    [ ("t.b", 2.); ("t.a", 3.) ]
    windowed

(* --------------------------------------------------------------- *)
(* Freeze spans: perfbench's span.graph.* metrics read these names     *)

(* A freeze emits one [<prefix>.freeze] span holding its
   [<prefix>.sort], [<prefix>.dedup] and [<prefix>.csr-fill] phases, in
   that order. *)
let check_freeze_spans prefix freeze =
  fresh ();
  Tr.enable ();
  freeze ();
  Tr.disable ();
  let evs = Tr.dump () in
  Tr.reset ();
  let one name =
    match events_named name evs with
    | [ e ] -> e
    | l -> Alcotest.failf "%s: %d spans, want 1" name (List.length l)
  in
  let outer = one (prefix ^ ".freeze") in
  let phases = List.map (fun p -> one (prefix ^ "." ^ p)) [ "sort"; "dedup"; "csr-fill" ] in
  List.iter
    (fun (e : Tr.event) ->
      Alcotest.(check bool)
        (e.Tr.name ^ " inside " ^ outer.Tr.name)
        true
        (e.Tr.ts_us >= outer.Tr.ts_us
        && e.Tr.ts_us +. e.Tr.dur_us <= outer.Tr.ts_us +. outer.Tr.dur_us +. 1e-6))
    phases;
  Alcotest.(check bool)
    (prefix ^ ": sort, dedup, csr-fill in order")
    true
    (List.map (fun (e : Tr.event) -> e.Tr.ts_us) phases
    = List.sort compare (List.map (fun (e : Tr.event) -> e.Tr.ts_us) phases))

let test_freeze_spans () =
  check_freeze_spans "graph" (fun () ->
      ignore (Dgraph.Graph.of_edge_array 5 [| (3, 1); (0, 2); (1, 3); (2, 4) |]));
  check_freeze_spans "hypergraph" (fun () ->
      let b = Dgraph.Hypergraph.Builder.create 5 in
      Dgraph.Hypergraph.Builder.add_edge b [| 4; 0; 2 |];
      Dgraph.Hypergraph.Builder.add_edge b [| 1; 3 |];
      Dgraph.Hypergraph.Builder.add_edge b [| 2; 0; 4 |];
      ignore (Dgraph.Hypergraph.Builder.freeze b))

(* --------------------------------------------------------------- *)
(* Round spans: one per round, numbered from 1, on every engine run *)

(* A served run of each protocol family emits exactly [stats.rounds]
   [protocol.round] spans, numbered 1..rounds in order, each carrying the
   engine protocol's name. The one-round protocols run on the same engine,
   so each emits exactly one span. *)
let test_protocol_round_spans () =
  let gnp = Server.Simulate.Gnp { n = 40; p = 0.15 } in
  let hyperk = Server.Simulate.Hyperk { n = 30; m = 20; k = 3 } in
  List.iter
    (fun (protocol, name, graph, seed, one_round) ->
      fresh ();
      Tr.enable ();
      let body = Server.Simulate.run { Server.Simulate.protocol; graph; seed } in
      Tr.disable ();
      let rounds =
        match Option.bind (List.assoc_opt "stats" body) (T.member "rounds") with
        | Some (T.Jint r) -> r
        | _ -> Alcotest.failf "%s: stats carry no round count" protocol
      in
      if one_round then Alcotest.(check int) (protocol ^ ": one round") 1 rounds;
      let spans = events_named "protocol.round" (Tr.dump ()) in
      Tr.reset ();
      Alcotest.(check int) (protocol ^ ": one span per round") rounds (List.length spans);
      Alcotest.(check (list int))
        (protocol ^ ": rounds numbered from 1")
        (List.init rounds (fun r -> r + 1))
        (List.map
           (fun (e : Tr.event) ->
             match List.assoc_opt "round" e.Tr.args with Some (Tr.Int r) -> r | _ -> -1)
           spans);
      List.iter
        (fun (e : Tr.event) ->
          Alcotest.(check bool)
            (protocol ^ ": span names the protocol")
            true
            (List.assoc_opt "protocol" e.Tr.args = Some (Tr.Str name)))
        spans)
    [
      ("trivial-mm", "trivial-mm", gnp, 11, true);
      ("trivial-mis", "trivial-mis", gnp, 11, true);
      ("local-minima", "one-round-local-minima", gnp, 11, true);
      ("hyper-trivial-mm", "hyper-trivial-mm", hyperk, 5, true);
      ("hyper-local-minima-mis", "hyper-local-minima-mis", hyperk, 5, true);
      ("two-round-mis", "two-round-prefix-mis", gnp, 11, false);
      ("hyper-iterated-mm", "hyper-iterated-mm", hyperk, 5, false);
      ("hyper-luby-mis", "hyper-luby-mis", hyperk, 5, false);
      ("prefix-mis-r4", "frontier-prefix-mis-r4", gnp, 11, false);
      ("luby-mis-random", "luby-mis-random", gnp, 11, false);
    ]

(* --------------------------------------------------------------- *)
(* Inertness: tracing on does not change table bytes                *)

let golden_with_tracing_on id overrides () =
  let e =
    match Core.Exp_all.find id with
    | Some e -> e
    | None -> Alcotest.failf "experiment %S not registered" id
  in
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" (id ^ ".txt")) In_channel.input_all
  in
  fresh ();
  Tr.enable ();
  let got = T.to_text (R.table e overrides) in
  Tr.disable ();
  Alcotest.(check bool) "trace recorded events" true ((Tr.stats ()).Tr.events > 0);
  Tr.reset ();
  if got <> expected then
    Alcotest.failf "%s: output changed when tracing was enabled" id

let () =
  let vi i = R.Vint i and vl l = R.Vints l in
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "begin/end balance and nest" `Quick test_begin_end_balance;
          Alcotest.test_case "unbalanced end_ ignored" `Quick test_unbalanced_end_ignored;
          Alcotest.test_case "open span not dumped" `Quick test_open_span_not_dumped;
          Alcotest.test_case "stacks are per-domain" `Quick test_per_domain_stacks;
          Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
          Alcotest.test_case "stats and counter args" `Quick test_stats_and_counter;
        ] );
      ( "fast-path",
        [ Alcotest.test_case "disabled path allocates nothing" `Quick test_disabled_no_alloc ] );
      ( "export",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"exported trace re-parses via Tabular" ~count:200 events_arb
               export_roundtrip);
          Alcotest.test_case "golden trace_event schema" `Quick test_golden_schema;
          Alcotest.test_case "phase_totals sums and windows" `Quick test_phase_totals;
        ] );
      ( "freeze",
        [ Alcotest.test_case "graph and hypergraph freeze spans" `Quick test_freeze_spans ] );
      ( "rounds",
        [ Alcotest.test_case "protocol.round spans numbered 1..rounds" `Quick
            test_protocol_round_spans ] );
      ( "inertness",
        [
          Alcotest.test_case "claim31 golden unchanged with tracing on" `Quick
            (golden_with_tracing_on "claim31"
               [ ("m", vl [ 5; 10 ]); ("samples", vi 4); ("seed", vi 7); ("jobs", vi 1) ]);
          Alcotest.test_case "reduction golden unchanged with tracing on" `Quick
            (golden_with_tracing_on "reduction"
               [ ("m", vl [ 4 ]); ("samples", vi 2); ("seed", vi 23) ]);
        ] );
    ]
