(* Tests for the sketchd server stack, bottom-up: wire framing (including
   hostile headers), the LRU result cache, the bounded scheduler's drop
   paths, the socket-free [Service] endpoints (cache determinism, param
   validation, simulate-vs-library bit accounting), and a real [Daemon]
   over loopback TCP surviving misbehaving clients without leaking worker
   slots. *)

module T = Report.Tabular
module W = Server.Wire
module S = Server.Service

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let test_wire_roundtrip () =
  List.iter
    (fun payload ->
      let frame = W.encode payload in
      let decoded, off = W.decode frame ~off:0 in
      checks "payload" payload decoded;
      checki "offset" (String.length frame) off)
    [ ""; "x"; "{\"op\":\"ping\"}"; String.make 300 'a'; String.init 256 Char.chr ]

let test_wire_stream () =
  (* Back-to-back frames decode by chasing the returned offset. *)
  let frames = [ "one"; ""; "three" ] in
  let s = String.concat "" (List.map W.encode frames) in
  let rec take off acc =
    if off = String.length s then List.rev acc
    else
      let p, off = W.decode s ~off in
      take off (p :: acc)
  in
  checkb "stream decodes" true (take 0 [] = frames)

let test_wire_hostile () =
  let raises_closed s = match W.decode s ~off:0 with _ -> false | exception W.Closed -> true in
  let raises_malformed s =
    match W.decode s ~off:0 with _ -> false | exception W.Malformed _ -> true
  in
  let raises_oversized s =
    match W.decode s ~off:0 with _ -> false | exception W.Oversized _ -> true
  in
  checkb "EOF at boundary is Closed" true (raises_closed "");
  checkb "truncated payload" true (raises_malformed (String.sub (W.encode "hello") 0 3));
  checkb "truncated header" true (raises_malformed "\xff");
  (* 10 continuation groups: header longer than any length we accept. *)
  checkb "over-long header" true (raises_malformed (String.make 10 '\xff'));
  (* Declares max_frame + 1 bytes: rejected before any allocation. *)
  let declare n =
    let w = Stdx.Bitbuf.Writer.create () in
    Stdx.Bitbuf.Writer.uvarint w n;
    let bytes, _ = Stdx.Bitbuf.Writer.contents w in
    Bytes.to_string bytes
  in
  checkb "oversized declaration" true (raises_oversized (declare (W.max_frame + 1)));
  (* 9 groups of 0x7f payload bits = 2^63 - 1, which overflows OCaml's
     63-bit int to a negative length; must not bypass the bound check. *)
  checkb "int-overflow declaration" true (raises_oversized (String.make 8 '\xff' ^ "\x7f"))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_lru () =
  let c = Server.Cache.create ~max_entries:2 ~max_bytes:1000 () in
  Server.Cache.add c "a" "1";
  Server.Cache.add c "b" "2";
  checkb "a present" true (Server.Cache.find c "a" = Some "1");
  (* "a" was just used, so inserting "c" evicts "b" (the LRU). *)
  Server.Cache.add c "c" "3";
  checkb "b evicted" true (Server.Cache.find c "b" = None);
  checkb "a survives" true (Server.Cache.find c "a" = Some "1");
  let s = Server.Cache.stats c in
  checki "entries" 2 s.Server.Cache.entries;
  checki "evictions" 1 s.Server.Cache.evictions;
  checki "hits" 2 s.Server.Cache.hits;
  checki "misses" 1 s.Server.Cache.misses

let test_cache_bytes_bound () =
  let c = Server.Cache.create ~max_entries:100 ~max_bytes:10 () in
  Server.Cache.add c "a" "aaaaa";
  Server.Cache.add c "b" "bbbbb";
  Server.Cache.add c "c" "c";
  (* 5 + 5 + 1 > 10: "a" (least recent) must have been evicted. *)
  checkb "a evicted by byte bound" true (Server.Cache.find c "a" = None);
  checkb "c present" true (Server.Cache.find c "c" = Some "c");
  let s = Server.Cache.stats c in
  checkb "bytes within bound" true (s.Server.Cache.bytes <= 10);
  (* An entry alone bigger than the bound is not stored at all. *)
  Server.Cache.add c "huge" (String.make 64 'x');
  checkb "oversize entry skipped" true (Server.Cache.find c "huge" = None)

let test_cache_replace () =
  let c = Server.Cache.create ~max_entries:4 ~max_bytes:1000 () in
  Server.Cache.add c "k" "old";
  Server.Cache.add c "k" "new";
  checkb "replaced" true (Server.Cache.find c "k" = Some "new");
  checki "one entry" 1 (Server.Cache.stats c).Server.Cache.entries

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let test_scheduler_basic () =
  let s = Server.Scheduler.create ~workers:2 ~capacity:4 () in
  checkb "computes" true (Server.Scheduler.run s (fun () -> 6 * 7) = Ok 42);
  checkb "exception becomes Failed" true
    (match Server.Scheduler.run s (fun () -> failwith "boom") with
    | Error (Server.Scheduler.Failed msg) -> msg = "Failure(\"boom\")" || String.length msg > 0
    | _ -> false);
  (* The pool survives a failed job. *)
  checkb "still computes after failure" true (Server.Scheduler.run s (fun () -> 1) = Ok 1);
  checkb "past deadline dropped" true
    (Server.Scheduler.run s ~deadline:(Unix.gettimeofday () -. 1.) (fun () -> 1)
    = Error Server.Scheduler.Deadline_exceeded);
  checkb "cancelled dropped" true
    (Server.Scheduler.run s ~cancelled:(fun () -> true) (fun () -> 1)
    = Error Server.Scheduler.Cancelled);
  let st = Server.Scheduler.stats s in
  checki "deadline drops counted" 1 st.Server.Scheduler.deadline_drops;
  checki "cancel drops counted" 1 st.Server.Scheduler.cancelled_drops;
  checki "idle depth" 0 st.Server.Scheduler.depth;
  Server.Scheduler.shutdown s;
  checkb "after shutdown" true
    (Server.Scheduler.run s (fun () -> 1) = Error Server.Scheduler.Shutting_down)

let test_scheduler_load_shed () =
  let s = Server.Scheduler.create ~workers:1 ~capacity:1 () in
  let m = Mutex.create () in
  let cond = Condition.create () in
  let started = ref false in
  let release = ref false in
  let blocker () =
    Mutex.lock m;
    started := true;
    Condition.broadcast cond;
    while not !release do
      Condition.wait cond m
    done;
    Mutex.unlock m;
    "done"
  in
  let result = ref (Error Server.Scheduler.Overloaded) in
  let th = Thread.create (fun () -> result := Server.Scheduler.run s blocker) () in
  (* Wait until the blocker actually occupies the only slot. *)
  Mutex.lock m;
  while not !started do
    Condition.wait cond m
  done;
  Mutex.unlock m;
  (* Slot taken, capacity 1: the next request is shed immediately. *)
  checkb "overloaded" true
    (Server.Scheduler.run s (fun () -> "never") = Error Server.Scheduler.Overloaded);
  checki "shed counted" 1 (Server.Scheduler.stats s).Server.Scheduler.shed;
  Mutex.lock m;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock m;
  Thread.join th;
  checkb "blocked request completed" true (!result = Ok "done");
  checki "depth back to zero" 0 (Server.Scheduler.stats s).Server.Scheduler.depth;
  Server.Scheduler.shutdown s

(* ------------------------------------------------------------------ *)
(* Service: socket-free endpoint behaviour                             *)

let with_service ?(workers = 2) f =
  let t = S.create ~workers ~capacity:8 () in
  Fun.protect ~finally:(fun () -> S.shutdown t) (fun () -> f t)

let payload t req = (S.handle t (T.string_of_json (T.Jobj req))).S.payload

let json t req = T.json_of_string (payload t req)

let is_ok j = T.member "ok" j = Some (T.Jbool true)

let error_tag j = match T.member "error" j with Some (T.Jstr e) -> e | _ -> "?"
let code_of j = match T.member "code" j with Some (T.Jint c) -> c | _ -> -1

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

let test_service_ping_version () =
  with_service (fun t ->
      let j = json t [ ("op", T.Jstr "ping") ] in
      checkb "ok" true (is_ok j);
      checkb "version" true (T.member "version" j = Some (T.Jstr Stdx.Version.current)))

let test_service_list () =
  with_service (fun t ->
      let j = json t [ ("op", T.Jstr "list") ] in
      checkb "ok" true (is_ok j);
      let ids =
        match T.member "experiments" j with
        | Some (T.Jarr es) ->
            List.filter_map (fun e -> match T.member "id" e with Some (T.Jstr s) -> Some s | _ -> None) es
        | _ -> []
      in
      checkb "catalogue has claim31" true (List.mem "claim31" ids);
      checkb "catalogue matches registry" true
        (List.length ids = List.length (Core.Exp_all.all ()));
      (* The served protocol list is the catalogue: same ids and docs, in
         catalogue order. *)
      let served =
        match T.member "protocols" j with
        | Some (T.Jarr ps) ->
            List.map
              (fun p ->
                match (T.member "name" p, T.member "doc" p) with
                | Some (T.Jstr name), Some (T.Jstr doc) -> (name, doc)
                | _ -> Alcotest.fail "protocol entry without name and doc")
              ps
        | _ -> Alcotest.fail "no protocols field"
      in
      Alcotest.(check (list (pair string string)))
        "protocol catalogue"
        (List.map (fun (id, p) -> (id, p.Server.Simulate.doc)) Server.Simulate.protocols)
        served)

(* Every catalogue entry on a hyperk input: a 400 exactly when the entry's
   input is a graph, an ok reply when it is a hypergraph. *)
let test_service_catalogue_inputs () =
  with_service (fun t ->
      let hyperk = T.Jobj [ ("kind", T.Jstr "hyperk"); ("n", T.Jint 9); ("m", T.Jint 4); ("k", T.Jint 3) ] in
      List.iter
        (fun (id, p) ->
          let j = json t [ ("op", T.Jstr "simulate"); ("protocol", T.Jstr id); ("graph", hyperk) ] in
          match p.Server.Simulate.input with
          | Server.Simulate.Graph _ -> checki (id ^ " on hyperk") 400 (code_of j)
          | Server.Simulate.Hypergraph _ -> checkb (id ^ " on hyperk") true (is_ok j))
        Server.Simulate.protocols)

let test_service_errors () =
  with_service (fun t ->
      let expect name req error code =
        let j = json t req in
        checkb (name ^ " not ok") false (is_ok j);
        checks (name ^ " tag") error (error_tag j);
        checki (name ^ " code") code (code_of j)
      in
      expect "unknown op" [ ("op", T.Jstr "frobnicate") ] "not-found" 404;
      expect "missing op" [ ("x", T.Jint 1) ] "bad-request" 400;
      expect "unknown id" [ ("op", T.Jstr "run"); ("id", T.Jstr "nope") ] "not-found" 404;
      expect "unknown param"
        [ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("params", T.Jobj [ ("zap", T.Jint 1) ]) ]
        "bad-request" 400;
      expect "wrong param type"
        [ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("params", T.Jobj [ ("m", T.Jint 5) ]) ]
        "bad-request" 400;
      (* Unknown protocol: a client mistake, so 400, and the message must
         list every valid id so the client can self-correct. *)
      expect "unknown protocol" [ ("op", T.Jstr "simulate"); ("protocol", T.Jstr "psychic") ]
        "bad-request" 400;
      (let j = json t [ ("op", T.Jstr "simulate"); ("protocol", T.Jstr "psychic") ] in
       let msg = match T.member "msg" j with Some (T.Jstr m) -> m | _ -> "" in
       List.iter
         (fun (name, _) ->
           checkb ("unknown-protocol msg lists " ^ name) true (contains msg name))
         Server.Simulate.protocols);
      expect "bad graph"
        [ ("op", T.Jstr "simulate");
          ("protocol", T.Jstr "trivial-mm");
          ("graph", T.Jobj [ ("kind", T.Jstr "donut"); ("n", T.Jint 4) ]) ]
        "bad-request" 400;
      (* A graph protocol cannot run on a hypergraph input. *)
      expect "incompatible input"
        [ ("op", T.Jstr "simulate");
          ("protocol", T.Jstr "trivial-mm");
          ("graph",
           T.Jobj [ ("kind", T.Jstr "hyperk"); ("n", T.Jint 9); ("m", T.Jint 4); ("k", T.Jint 3) ]) ]
        "bad-request" 400;
      let j = T.json_of_string (S.handle t "this is not json").S.payload in
      checks "garbage payload" "bad-request" (error_tag j))

(* A graph spec below its generator's least [n] is the client's mistake:
   a 400 naming "n" and the bound, never a 500 from the generator. At the
   bound the same request is ok. *)
let test_simulate_graph_n_bounds () =
  with_service (fun t ->
      let req kind n =
        let extra = if kind = "gnp" then [ ("p", T.Jfloat 0.5) ] else [] in
        [
          ("op", T.Jstr "simulate");
          ("protocol", T.Jstr "trivial-mm");
          ("graph", T.Jobj ([ ("kind", T.Jstr kind); ("n", T.Jint n) ] @ extra));
        ]
      in
      List.iter
        (fun (kind, lo, bad) ->
          let name = Printf.sprintf "%s n=%d" kind bad in
          let j = json t (req kind bad) in
          checki (name ^ " code") 400 (code_of j);
          checks (name ^ " tag") "bad-request" (error_tag j);
          let msg = match T.member "msg" j with Some (T.Jstr m) -> m | _ -> "" in
          checks (name ^ " msg")
            (Printf.sprintf "graph kind %S needs \"n\" >= %d" kind lo)
            msg;
          checkb (Printf.sprintf "%s n=%d ok" kind lo) true (is_ok (json t (req kind lo))))
        [
          ("gnp", 0, -1);
          ("path", 0, -2);
          ("complete", 0, -1);
          ("cycle", 3, 2);
          ("cycle", 3, -5);
          ("star", 1, 0);
        ];
      (* The upper bounds: the bound itself parses (it is not run — a
         complete graph on 4096 vertices has ~8.4M edges), one past it is
         a 400 naming the field and the bound. *)
      let spec kind ~n ~m =
        let fields =
          match kind with
          | "gnp" -> [ ("p", T.Jfloat 0.5) ]
          | "hyperk" -> [ ("m", T.Jint m); ("k", T.Jint 3) ]
          | _ -> []
        in
        T.Jobj ([ ("kind", T.Jstr kind); ("n", T.Jint n) ] @ fields)
      in
      List.iter
        (fun (kind, field, (n, m), (bad_n, bad_m), bound) ->
          let name = Printf.sprintf "%s %s=%d" kind field (bound + 1) in
          checkb
            (Printf.sprintf "%s %s=%d parses" kind field bound)
            true
            (Result.is_ok (Server.Simulate.gspec_of_json (spec kind ~n ~m)));
          let protocol = if kind = "hyperk" then "hyper-trivial-mm" else "trivial-mm" in
          let j =
            json t
              [
                ("op", T.Jstr "simulate");
                ("protocol", T.Jstr protocol);
                ("graph", spec kind ~n:bad_n ~m:bad_m);
              ]
          in
          checki (name ^ " code") 400 (code_of j);
          checks (name ^ " tag") "bad-request" (error_tag j);
          let msg = match T.member "msg" j with Some (T.Jstr m) -> m | _ -> "" in
          checks (name ^ " msg") (Printf.sprintf "graph kind %S needs %S <= %d" kind field bound) msg)
        [
          ("gnp", "n", (4096, 0), (4097, 0), 4096);
          ("path", "n", (4096, 0), (4097, 0), 4096);
          ("cycle", "n", (4096, 0), (4097, 0), 4096);
          ("complete", "n", (4096, 0), (4097, 0), 4096);
          ("star", "n", (4096, 0), (4097, 0), 4096);
          ("hyperk", "n", (4096, 10), (4097, 10), 4096);
          ("hyperk", "m", (10, 65536), (10, 65537), 65536);
        ])

(* Admission by work: inside the n bounds a spec can still imply minutes
   of compute (complete n=4096 ran 120 s under hyper-trivial-mm), so the
   edge mass it implies is bounded too. Each probe is a 400 that names
   the bound, answered at once; a spec at the bound is admitted. *)
let test_simulate_work_bound () =
  let module Sim = Server.Simulate in
  let bound = Sim.max_edge_mass in
  checki "bound is 2^21" (1 lsl 21) bound;
  List.iter
    (fun (name, g, mass) -> checki (name ^ " edge mass") mass (Sim.edge_mass g))
    [
      ("complete 4096", Sim.Complete 4096, 4096 * 4095 / 2);
      ("gnp 2500 p=0.5", Sim.Gnp { n = 2500; p = 0.5 }, 1_561_875);
      ("gnp 3 p=0.1", Sim.Gnp { n = 3; p = 0.1 }, 1);
      ("path", Sim.Path 4096, 4096);
      ("cycle", Sim.Cycle 7, 7);
      ("star", Sim.Star 9, 9);
      ("hyperk", Sim.Hyperk { n = 4096; m = 65536; k = 4096 }, 65536 * 4096);
    ];
  (* The bound itself is admitted, one past it is not. *)
  let at_bound = Sim.Hyperk { n = 4096; m = 1024; k = 2048 } in
  checkb "mass at the bound admitted" true (Result.is_ok (Sim.within_work_bound at_bound));
  checkb "one hyperedge more refused" false
    (Result.is_ok (Sim.within_work_bound (Sim.Hyperk { n = 4096; m = 1025; k = 2048 })));
  checkb "test_daemon's slow simulate admitted" true
    (Result.is_ok (Sim.within_work_bound (Sim.Gnp { n = 2500; p = 0.5 })));
  let complete = T.Jobj [ ("kind", T.Jstr "complete"); ("n", T.Jint 4096) ] in
  let hyperk =
    T.Jobj
      [ ("kind", T.Jstr "hyperk"); ("n", T.Jint 4096); ("m", T.Jint 65536); ("k", T.Jint 4096) ]
  in
  with_service (fun t ->
      List.iter
        (fun (protocol, graph) ->
          let name = Printf.sprintf "%s on %s" protocol (T.string_of_json graph) in
          let t0 = Unix.gettimeofday () in
          let j =
            json t [ ("op", T.Jstr "simulate"); ("protocol", T.Jstr protocol); ("graph", graph) ]
          in
          let dt = Unix.gettimeofday () -. t0 in
          checki (name ^ " code") 400 (code_of j);
          checks (name ^ " tag") "bad-request" (error_tag j);
          let msg = match T.member "msg" j with Some (T.Jstr m) -> m | _ -> "" in
          checkb (name ^ " names the bound: " ^ msg) true
            (contains msg (Printf.sprintf "the work bound is %d" bound));
          checkb (Printf.sprintf "%s answered in %.3f s" name dt) true (dt < 1.0);
          checkb (name ^ " has no cache key") true
            (S.request_key
               (T.Jobj
                  [ ("op", T.Jstr "simulate"); ("protocol", T.Jstr protocol); ("graph", graph) ])
            = None))
        [
          ("hyper-trivial-mm", complete);
          ("hyper-iterated-mm", complete);
          ("trivial-mm", complete);
          ("hyper-trivial-mm", hyperk);
        ])

let smoke_run ?(extra = []) t =
  payload t ([ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true) ] @ extra)

let test_service_cache_determinism () =
  with_service (fun t ->
      let p1 = smoke_run t in
      let p2 = smoke_run t in
      checkb "first ok" true (is_ok (T.json_of_string p1));
      checks "byte-identical payloads" p1 p2;
      let c = Server.Cache.stats (S.cache t) in
      checki "one miss" 1 c.Server.Cache.misses;
      checki "one hit" 1 c.Server.Cache.hits;
      (* [jobs] only affects scheduling, never rows: it is excluded from
         the cache key, so a different job count is a third hit. *)
      let p3 = smoke_run ~extra:[ ("jobs", T.Jint 2) ] t in
      checks "jobs does not change the payload" p1 p3;
      checki "jobs shares the entry" 2 (Server.Cache.stats (S.cache t)).Server.Cache.hits)

let test_service_seed_precedence () =
  with_service (fun t ->
      let j = T.json_of_string (smoke_run ~extra:[ ("seed", T.Jint 3) ] t) in
      match T.member "params" j with
      | Some params -> checkb "explicit seed beats smoke" true (T.member "seed" params = Some (T.Jint 3))
      | None -> Alcotest.fail "no params echoed")

(* The acceptance pin: a served simulate response reports exactly the
   max_bits/total_bits an in-process run of the same (protocol, graph,
   coins) triple produces — the service adds caching and transport,
   never arithmetic. *)
let test_service_simulate_bits () =
  with_service (fun t ->
      let gspec = Server.Simulate.Gnp { n = 40; p = 0.15 } in
      let seed = 11 in
      List.iter
        (fun (protocol, _) ->
          let spec = { Server.Simulate.protocol; graph = gspec; seed } in
          let g = Server.Simulate.graph_of_spec spec in
          let coins = Server.Simulate.coins seed in
          let rounds_bits (s : Sketchmodel.Rounds.stats) =
            (s.Sketchmodel.Rounds.max_bits, s.Sketchmodel.Rounds.total_bits)
          in
          let one_round p =
            rounds_bits (snd (Sketchmodel.Rounds.run (Sketchmodel.Rounds.one_round p) g coins))
          in
          let expect_max, expect_total =
            match protocol with
            | "trivial-mm" -> one_round Protocols.Trivial.mm
            | "trivial-mis" -> one_round Protocols.Trivial.mis
            | "local-minima" -> one_round Protocols.One_round_mis.local_minima
            | "two-round-mm" ->
                let _, s = Protocols.Two_round_mm.run g coins in
                rounds_bits s
            | "two-round-mis" ->
                let _, s = Protocols.Two_round_mis.run g coins in
                rounds_bits s
            | "hyper-trivial-mm" ->
                let h = Server.Simulate.hypergraph_of_spec spec in
                let _, s = Protocols.Hyper_mm.run_trivial h coins in
                rounds_bits s
            | "hyper-iterated-mm" ->
                let h = Server.Simulate.hypergraph_of_spec spec in
                let _, s = Protocols.Hyper_mm.run_iterated h coins in
                rounds_bits s
            | "hyper-local-minima-mis" ->
                let h = Server.Simulate.hypergraph_of_spec spec in
                let _, s = Protocols.Hyper_mis.run_local_minima h coins in
                rounds_bits s
            | "hyper-luby-mis" ->
                let h = Server.Simulate.hypergraph_of_spec spec in
                let _, s = Protocols.Hyper_mis.run_luby h coins in
                rounds_bits s
            | "prefix-mis-r4" ->
                let _, s = Protocols.Frontier.run ~rounds:4 g coins in
                rounds_bits s
            | "luby-mis-random" ->
                let _, s = Protocols.Luby.run Protocols.Luby.Random g coins in
                rounds_bits s
            | "luby-mis-degree" ->
                let _, s = Protocols.Luby.run Protocols.Luby.Degree g coins in
                rounds_bits s
            | "luby-mis-index" ->
                let _, s = Protocols.Luby.run Protocols.Luby.Index g coins in
                rounds_bits s
            | "stream-matching" ->
                (* Pass accounting, not bit accounting: checked below
                   against peak_memory_bits/passes instead. *)
                (-1, -1)
            | p -> Alcotest.fail ("catalogue grew a protocol the test does not know: " ^ p)
          in
          let j =
            json t
              [
                ("op", T.Jstr "simulate");
                ("protocol", T.Jstr protocol);
                ("graph", Server.Simulate.json_of_gspec gspec);
                ("seed", T.Jint seed);
              ]
          in
          checkb (protocol ^ " ok") true (is_ok j);
          match T.member "stats" j with
          | Some stats when protocol = "stream-matching" ->
              let stream = Streams.Stream.shuffled (Server.Simulate.stream_rng seed) g in
              let res = Streams.Stream_matching.run ~eps:0.25 stream in
              checkb (protocol ^ " passes") true
                (T.member "passes" stats
                = Some (T.Jint (List.length res.Streams.Stream_matching.passes)));
              checkb (protocol ^ " peak_memory_bits") true
                (T.member "peak_memory_bits" stats
                = Some (T.Jint res.Streams.Stream_matching.peak_memory_bits))
          | Some stats ->
              checkb (protocol ^ " max_bits") true (T.member "max_bits" stats = Some (T.Jint expect_max));
              checkb (protocol ^ " total_bits") true
                (T.member "total_bits" stats = Some (T.Jint expect_total))
          | None -> Alcotest.fail (protocol ^ ": no stats field"))
        Server.Simulate.protocols)

(* The one-round responses derive [avg_bits] from [total_bits] over
   [players]; on an empty input that is 0, never NaN (which would encode
   as null). *)
let test_simulate_zero_players () =
  with_service (fun t ->
      List.iter
        (fun protocol ->
          let j =
            json t
              [
                ("op", T.Jstr "simulate");
                ("protocol", T.Jstr protocol);
                ("graph", T.Jobj [ ("kind", T.Jstr "path"); ("n", T.Jint 0) ]);
              ]
          in
          checkb (protocol ^ " ok") true (is_ok j);
          match T.member "stats" j with
          | Some stats ->
              checkb (protocol ^ " no players") true (T.member "players" stats = Some (T.Jint 0));
              checkb (protocol ^ " avg is zero, not NaN") true
                (match T.member "avg_bits" stats with
                | Some (T.Jfloat f) -> Float.is_finite f && f = 0.
                | _ -> false)
          | None -> Alcotest.fail (protocol ^ ": no stats field"))
        [ "trivial-mm"; "hyper-trivial-mm" ])

(* Cached replay of a hyperk simulate: the second request must be served
   from the LRU byte-for-byte, so the hypergraph pipeline (sampling,
   freeze, multi-round protocol) is fully deterministic under the
   service's seed discipline. *)
let test_service_simulate_hyperk_cached () =
  with_service (fun t ->
      let req =
        [
          ("op", T.Jstr "simulate");
          ("protocol", T.Jstr "hyper-iterated-mm");
          ("graph",
           T.Jobj [ ("kind", T.Jstr "hyperk"); ("n", T.Jint 30); ("m", T.Jint 20); ("k", T.Jint 3) ]);
          ("seed", T.Jint 5);
        ]
      in
      let c0 = Server.Cache.stats (S.cache t) in
      let p1 = payload t req in
      let p2 = payload t req in
      checkb "hyperk simulate ok" true (is_ok (T.json_of_string p1));
      checks "cached replay byte-identical" p1 p2;
      let c1 = Server.Cache.stats (S.cache t) in
      checki "one miss" (c0.Server.Cache.misses + 1) c1.Server.Cache.misses;
      checki "one hit" (c0.Server.Cache.hits + 1) c1.Server.Cache.hits;
      match T.member "stats" (T.json_of_string p1) with
      | Some stats ->
          checkb "multi-round stats" true (T.member "rounds" stats <> None);
          checkb "broadcast accounted" true (T.member "broadcast_bits" stats <> None)
      | None -> Alcotest.fail "hyperk simulate: no stats field")

(* Same discipline for the multipass wing: an r-round frontier run and a
   multi-pass streaming run must both replay from the LRU byte for byte,
   and their stats must carry the per-round / per-pass curves. *)
let test_service_simulate_multipass_cached () =
  with_service (fun t ->
      let gj = T.Jobj [ ("kind", T.Jstr "gnp"); ("n", T.Jint 32); ("p", T.Jfloat 0.2) ] in
      List.iter
        (fun (protocol, curve_field) ->
          let req =
            [
              ("op", T.Jstr "simulate");
              ("protocol", T.Jstr protocol);
              ("graph", gj);
              ("seed", T.Jint 9);
            ]
          in
          let c0 = Server.Cache.stats (S.cache t) in
          let p1 = payload t req in
          let p2 = payload t req in
          checkb (protocol ^ " ok") true (is_ok (T.json_of_string p1));
          checks (protocol ^ " cached replay byte-identical") p1 p2;
          let c1 = Server.Cache.stats (S.cache t) in
          checki (protocol ^ " one miss") (c0.Server.Cache.misses + 1) c1.Server.Cache.misses;
          checki (protocol ^ " one hit") (c0.Server.Cache.hits + 1) c1.Server.Cache.hits;
          match T.member "stats" (T.json_of_string p1) with
          | Some stats -> (
              match T.member curve_field stats with
              | Some (T.Jarr (_ :: _)) -> ()
              | _ -> Alcotest.fail (protocol ^ ": stats lack a non-empty " ^ curve_field))
          | None -> Alcotest.fail (protocol ^ ": no stats field"))
        [
          ("prefix-mis-r4", "round_max");
          ("luby-mis-degree", "round_broadcast");
          ("stream-matching", "pass_memory_bits");
        ])

(* Wire-level pin: the canonical payload of every simulate protocol on one
   graph input, and of the hypergraph protocols on one hyperk input, is
   byte-identical to golden/simulate_responses.txt (one payload per line).
   This covers every engine behind simulate at once: round counts,
   per-round curves, broadcast charges and outputs. On a mismatch the
   fresh payloads are left in simulate_responses.actual beside the test
   for diffing. *)
let simulate_golden_requests =
  let gnp = Server.Simulate.Gnp { n = 40; p = 0.15 } in
  let hyperk = Server.Simulate.Hyperk { n = 30; m = 20; k = 3 } in
  List.map (fun (protocol, _) -> (protocol, gnp, 11)) Server.Simulate.protocols
  @ List.filter_map
      (fun (protocol, p) ->
        match p.Server.Simulate.input with
        | Server.Simulate.Hypergraph _ -> Some (protocol, hyperk, 5)
        | Server.Simulate.Graph _ -> None)
      Server.Simulate.protocols

let test_service_simulate_golden () =
  with_service (fun t ->
      let got =
        String.concat ""
          (List.map
             (fun (protocol, gspec, seed) ->
               payload t
                 [
                   ("op", T.Jstr "simulate");
                   ("protocol", T.Jstr protocol);
                   ("graph", Server.Simulate.json_of_gspec gspec);
                   ("seed", T.Jint seed);
                 ]
               ^ "\n")
             simulate_golden_requests)
      in
      let expected =
        In_channel.with_open_bin (Filename.concat "golden" "simulate_responses.txt")
          In_channel.input_all
      in
      if got <> expected then begin
        Out_channel.with_open_bin "simulate_responses.actual" (fun oc ->
            Out_channel.output_string oc got);
        Alcotest.fail "simulate payloads drifted from golden/simulate_responses.txt"
      end)

let test_service_shutdown_op () =
  with_service (fun t ->
      let reply = S.handle t "{\"op\":\"shutdown\"}" in
      checkb "shutdown flagged" true reply.S.shutdown;
      checkb "shutdown acked ok" true (is_ok (T.json_of_string reply.S.payload));
      checkb "draining" true (S.draining t))

(* ------------------------------------------------------------------ *)
(* Daemon: real sockets, hostile clients                               *)

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

let test_daemon_survives_abuse () =
  let d = Server.Daemon.start ~workers:1 ~capacity:4 () in
  let port = Server.Daemon.port d in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop ~abort_connections:true d;
      Server.Daemon.wait d)
    (fun () ->
      (* 1. Garbage framing: nine 0xff bytes exhaust the header budget
         with nothing left unread, so the server's one error frame and
         FIN arrive cleanly (unread bytes would turn the close into an
         RST that may discard the reply — that path is best-effort). *)
      let fd = connect port in
      send_all fd (String.make 9 '\xff');
      (match W.read_frame fd with
      | frame ->
          checks "malformed tagged" "malformed-frame"
            (error_tag (T.json_of_string frame))
      | exception W.Closed -> Alcotest.fail "no error frame for garbage");
      checkb "connection closed after garbage" true
        (match W.read_frame fd with _ -> false | exception W.Closed -> true);
      Unix.close fd;
      (* 2. Oversized declaration: rejected before any payload is read. *)
      let fd = connect port in
      let w = Stdx.Bitbuf.Writer.create () in
      Stdx.Bitbuf.Writer.uvarint w (W.max_frame + 1);
      let bytes, _ = Stdx.Bitbuf.Writer.contents w in
      send_all fd (Bytes.to_string bytes);
      (match W.read_frame fd with
      | frame -> checks "oversized tagged" "oversized-frame" (error_tag (T.json_of_string frame))
      | exception W.Closed -> Alcotest.fail "no error frame for oversized");
      Unix.close fd;
      (* 3. Mid-request disconnect: half a frame, then vanish. *)
      let fd = connect port in
      let frame = W.encode "{\"op\":\"ping\"}" in
      send_all fd (String.sub frame 0 (String.length frame - 3));
      Unix.close fd;
      (* 4. The daemon still serves, and no worker slot leaked. *)
      let response =
        Server.Client.with_connection ~port (fun c -> Server.Client.request c "{\"op\":\"stats\"}")
      in
      let j = T.json_of_string response in
      checkb "still serving" true (is_ok j);
      (match T.member "queue" j with
      | Some q -> checkb "no leaked slots" true (T.member "depth" q = Some (T.Jint 0))
      | None -> Alcotest.fail "no queue stats");
      (* 5. A full well-formed cycle still round-trips byte-exactly. *)
      let run () =
        Server.Client.with_connection ~port (fun c ->
            Server.Client.request c
              (T.string_of_json
                 (T.Jobj
                    [ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true) ])))
      in
      let p1 = run () and p2 = run () in
      checks "served payloads byte-identical" p1 p2)

let test_daemon_shutdown_rpc () =
  let d = Server.Daemon.start ~workers:1 ~capacity:4 () in
  let port = Server.Daemon.port d in
  let reply =
    Server.Client.with_connection ~port (fun c -> Server.Client.request c "{\"op\":\"shutdown\"}")
  in
  checkb "shutdown acked" true (is_ok (T.json_of_string reply));
  (* wait must return: the accept loop wakes via the self-pipe even though
     nothing ever connects again. *)
  Server.Daemon.wait d;
  checkb "port closed after shutdown" true
    (match connect port with
    | fd ->
        (* A connect may still succeed in the accept backlog race; a read
           must then see an immediate close. *)
        let closed = match W.read_frame fd with _ -> false | exception _ -> true in
        Unix.close fd;
        closed
    | exception Unix.Unix_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Proxy vs. hostile backends                                          *)

(* A scriptable fake backend: a raw listener handing each connection's fd
   to [serve] on its own thread — for replies no honest sketchd would
   send. The accept thread is not joined (closing a listening fd does not
   reliably wake accept(2)); it idles harmlessly for the test process's
   lifetime. *)
let start_fake serve =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 16;
  let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let rec accept_loop () =
    match Unix.accept fd with
    | c, _ ->
        ignore
          (Thread.create
             (fun () ->
               (try serve c with _ -> ());
               try Unix.close c with Unix.Unix_error _ -> ())
             ());
        accept_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  ignore (Thread.create accept_loop ());
  (Printf.sprintf "127.0.0.1:%d" port, fun () -> try Unix.close fd with Unix.Unix_error _ -> ())

let sim_payload seed =
  Printf.sprintf
    "{\"op\":\"simulate\",\"protocol\":\"trivial-mm\",\"graph\":{\"kind\":\"path\",\"n\":8},\"seed\":%d}"
    seed

(* A seed whose ring successor order visits both fakes before the real
   backend, so the failover chain is actually exercised. *)
let seed_with_order ring order =
  let rec go s =
    if s > 20_000 then Alcotest.fail "no seed with the wanted successor order"
    else
      match Server.Service.request_key (T.json_of_string (sim_payload s)) with
      | Some k when Server.Ring.successors ring k = order -> s
      | _ -> go (s + 1)
  in
  go 0

let test_proxy_truncated_backend () =
  (* Both fakes read the request, then die mid-frame: a header declaring
     100 bytes followed by 10 and a close. The proxy must fail over down
     the chain and relay the real backend's response. *)
  let truncate c =
    match W.read_frame c with
    | _ ->
        let w = Stdx.Bitbuf.Writer.create () in
        Stdx.Bitbuf.Writer.uvarint w 100;
        let bytes, _ = Stdx.Bitbuf.Writer.contents w in
        send_all c (Bytes.to_string bytes ^ String.make 10 'x')
    | exception _ -> ()
  in
  let f1, stop1 = start_fake truncate in
  let f2, stop2 = start_fake truncate in
  let d = Server.Daemon.start ~workers:1 ~capacity:8 () in
  let real = Printf.sprintf "127.0.0.1:%d" (Server.Daemon.port d) in
  let p = Server.Proxy.create ~backends:[ f1; f2; real ] () in
  Fun.protect
    ~finally:(fun () ->
      Server.Proxy.close p;
      stop1 ();
      stop2 ();
      Server.Daemon.stop ~abort_connections:true d;
      Server.Daemon.wait d)
  @@ fun () ->
  let seed = seed_with_order (Server.Proxy.ring p) [ f1; f2; real ] in
  let r = (Server.Proxy.handle p (sim_payload seed)).S.payload in
  checkb "relayed past two truncating backends" true (is_ok (T.json_of_string r));
  checkb "first fake marked down" false (Server.Health.healthy (Server.Proxy.health p) f1);
  checkb "second fake marked down" false (Server.Health.healthy (Server.Proxy.health p) f2);
  checkb "real backend healthy" true (Server.Health.healthy (Server.Proxy.health p) real);
  (* The survivor's answer is the canonical one. *)
  let direct =
    Server.Client.with_connection ~port:(Server.Daemon.port d) (fun c ->
        Server.Client.request c (sim_payload seed))
  in
  checks "failover response is the canonical payload" direct r

let test_proxy_oversized_backend_header () =
  (* Ten 0xff continuation bytes exceed the frame header budget: the
     proxy's client read must reject it as malformed, not stall or
     over-allocate, and fail over. *)
  let oversized c =
    match W.read_frame c with
    | _ -> send_all c (String.make 10 '\xff')
    | exception _ -> ()
  in
  let f1, stop1 = start_fake oversized in
  let d = Server.Daemon.start ~workers:1 ~capacity:8 () in
  let real = Printf.sprintf "127.0.0.1:%d" (Server.Daemon.port d) in
  let p = Server.Proxy.create ~backends:[ f1; real ] () in
  Fun.protect
    ~finally:(fun () ->
      Server.Proxy.close p;
      stop1 ();
      Server.Daemon.stop ~abort_connections:true d;
      Server.Daemon.wait d)
  @@ fun () ->
  let seed = seed_with_order (Server.Proxy.ring p) [ f1; real ] in
  let r = (Server.Proxy.handle p (sim_payload seed)).S.payload in
  checkb "served despite hostile header" true (is_ok (T.json_of_string r));
  checkb "hostile backend marked down" false
    (Server.Health.healthy (Server.Proxy.health p) f1);
  (match List.assoc_opt f1 (Server.Health.snapshot (Server.Proxy.health p)) with
  | Some s -> (
      match s.Server.Health.last_error with
      | Some e ->
          checkb "failure reason mentions framing" true
            (String.length e > 0
            && (let lower = String.lowercase_ascii e in
                let contains sub =
                  let n = String.length lower and m = String.length sub in
                  let rec at i = i + m <= n && (String.sub lower i m = sub || at (i + 1)) in
                  at 0
                in
                contains "malformed" || contains "frame"))
      | None -> Alcotest.fail "downed backend must keep its last error")
  | None -> Alcotest.fail "backend missing from health snapshot")

let test_proxy_429_storm_backoff () =
  (* Every backend sheds on every request. The proxy must back off between
     replicas (not hammer them in a tight loop), stay convinced they are
     alive (shedding is load, not death), and relay the final 429. *)
  let shed_response =
    "{\"ok\":false,\"error\":\"overloaded\",\"code\":429,\"msg\":\"queue full; retry later\"}"
  in
  let shedding c =
    let rec serve () =
      match W.read_frame c with
      | _ ->
          W.write_frame c shed_response;
          serve ()
      | exception _ -> ()
    in
    serve ()
  in
  let f1, stop1 = start_fake shedding in
  let f2, stop2 = start_fake shedding in
  let backoff_ms = 40 in
  let p = Server.Proxy.create ~shed_backoff_ms:backoff_ms ~backends:[ f1; f2 ] () in
  Fun.protect
    ~finally:(fun () ->
      Server.Proxy.close p;
      stop1 ();
      stop2 ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let r = (Server.Proxy.handle p (sim_payload 1)).S.payload in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let j = T.json_of_string r in
  checks "storm relays the shed response" "overloaded" (error_tag j);
  checki "storm relays 429" 429 (code_of j);
  (* One backoff pause between the two replicas. *)
  checkb "proxy backed off between replicas" true
    (elapsed_ms >= float_of_int backoff_ms *. 0.9);
  checkb "shedding backends stay healthy" true
    (Server.Health.healthy (Server.Proxy.health p) f1
    && Server.Health.healthy (Server.Proxy.health p) f2)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "stream" `Quick test_wire_stream;
          Alcotest.test_case "hostile input" `Quick test_wire_hostile;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "byte bound" `Quick test_cache_bytes_bound;
          Alcotest.test_case "replace" `Quick test_cache_replace;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "drop paths" `Quick test_scheduler_basic;
          Alcotest.test_case "load shedding" `Quick test_scheduler_load_shed;
        ] );
      ( "service",
        [
          Alcotest.test_case "ping version" `Quick test_service_ping_version;
          Alcotest.test_case "list catalogue" `Quick test_service_list;
          Alcotest.test_case "catalogue inputs on hyperk" `Quick test_service_catalogue_inputs;
          Alcotest.test_case "error taxonomy" `Quick test_service_errors;
          Alcotest.test_case "graph n bounds" `Quick test_simulate_graph_n_bounds;
          Alcotest.test_case "simulate work bound" `Quick test_simulate_work_bound;
          Alcotest.test_case "cache determinism" `Quick test_service_cache_determinism;
          Alcotest.test_case "seed precedence" `Quick test_service_seed_precedence;
          Alcotest.test_case "simulate = library bits" `Quick test_service_simulate_bits;
          Alcotest.test_case "simulate zero players" `Quick test_simulate_zero_players;
          Alcotest.test_case "hyperk simulate cached replay" `Quick
            test_service_simulate_hyperk_cached;
          Alcotest.test_case "multipass simulate cached replay" `Quick
            test_service_simulate_multipass_cached;
          Alcotest.test_case "simulate responses golden" `Quick test_service_simulate_golden;
          Alcotest.test_case "shutdown op" `Quick test_service_shutdown_op;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "survives hostile clients" `Quick test_daemon_survives_abuse;
          Alcotest.test_case "shutdown rpc stops accept loop" `Quick test_daemon_shutdown_rpc;
        ] );
      ( "proxy-hostile",
        [
          Alcotest.test_case "truncated backend frames mid-failover" `Quick
            test_proxy_truncated_backend;
          Alcotest.test_case "oversized backend header" `Quick
            test_proxy_oversized_backend_header;
          Alcotest.test_case "429 storm backs off and relays" `Quick
            test_proxy_429_storm_backoff;
        ] );
    ]
