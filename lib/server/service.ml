(* The daemon's brain, socket-free: parse a request payload, dispatch, and
   produce a response payload. Keeping this layer free of file descriptors
   makes every endpoint unit-testable in-process; [Daemon] only adds TCP
   framing, threads and signals around [handle].

   Request/response bodies are JSON objects through [Report.Tabular]'s
   bundled codec. Responses are built as canonical strings (object fields
   in fixed order, no whitespace) so that a cached payload is byte-
   identical to a recomputed one — the end-to-end determinism the CI smoke
   job asserts with `diff`.

   Cheap endpoints (`ping`, `list`, `stats`, `shutdown`) are answered on
   the calling (connection) thread; compute endpoints (`run`, `simulate`)
   first consult the result cache and only then go through the bounded
   [Scheduler] onto a worker domain. *)

module T = Report.Tabular
module R = Core.Exp_registry

type t = {
  cache : Cache.t;
  scheduler : Scheduler.t;
  metrics : Metrics.t;
  log : string -> unit;
  mutable draining : bool;  (* set once `shutdown` has been accepted *)
}

let create ?(workers = 2) ?(capacity = 16) ?cache_entries ?cache_bytes
    ?(log = fun _ -> ()) () =
  {
    cache = Cache.create ?max_entries:cache_entries ?max_bytes:cache_bytes ();
    scheduler = Scheduler.create ~workers ~capacity ();
    metrics = Metrics.create ();
    log;
    draining = false;
  }

let scheduler t = t.scheduler
let cache t = t.cache
let metrics t = t.metrics

(* ------------------------------------------------------------------ *)
(* Response building: canonical JSON text                              *)

module Response = struct
  let jstr s = "\"" ^ T.json_escape s ^ "\""

  (* Fields are pre-rendered JSON text; order is the order given. *)
  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

  let arr items = "[" ^ String.concat "," items ^ "]"
  let ok_response fields = obj (("ok", "true") :: fields)

  (* Machine-readable [error] tag, HTTP-flavoured [code], human [msg]. *)
  let error_response ~code ~error msg =
    obj
      [
        ("ok", "false");
        ("error", jstr error);
        ("code", string_of_int code);
        ("msg", jstr msg);
      ]
end

open Response

let bad_request msg = error_response ~code:400 ~error:"bad-request" msg
let not_found msg = error_response ~code:404 ~error:"not-found" msg

let of_scheduler_error = function
  | Scheduler.Overloaded -> error_response ~code:429 ~error:"overloaded" "queue full; retry later"
  | Scheduler.Deadline_exceeded ->
      error_response ~code:504 ~error:"deadline-exceeded" "request waited past its deadline"
  | Scheduler.Cancelled -> error_response ~code:499 ~error:"cancelled" "client went away"
  | Scheduler.Shutting_down ->
      error_response ~code:503 ~error:"shutting-down" "server is draining"
  | Scheduler.Failed msg -> error_response ~code:500 ~error:"failed" msg

(* ------------------------------------------------------------------ *)
(* Request-field accessors                                             *)

let str_field j k = match T.member k j with Some (T.Jstr s) -> Some s | _ -> None
let int_field j k = match T.member k j with Some (T.Jint i) -> Some i | _ -> None
let bool_field j k = match T.member k j with Some (T.Jbool b) -> Some b | _ -> None

(* An absolute deadline from a relative "deadline_ms" request field. *)
let deadline_of j =
  match int_field j "deadline_ms" with
  | Some ms when ms > 0 -> Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Experiment parameters                                               *)

let render_pvalue = function
  | R.Vint i -> string_of_int i
  | R.Vints l -> arr (List.map string_of_int l)

(* Canonical cache key: id plus every merged param in spec order — except
   [jobs], which only affects scheduling; the trial engine guarantees rows
   bit-identical at any job count, so two requests differing only in [jobs]
   share one cache entry. *)
let canonical_key id merged =
  let render (name, v) =
    name ^ "="
    ^ (match v with R.Vint i -> string_of_int i | R.Vints l -> String.concat "," (List.map string_of_int l))
  in
  id ^ "?" ^ String.concat "&" (List.map render (List.remove_assoc "jobs" merged))

let params_json merged =
  obj (List.map (fun (n, v) -> (n, render_pvalue v)) (List.remove_assoc "jobs" merged))

(* JSON request params -> registry overrides. *)
let overrides_of_json j =
  match T.member "params" j with
  | None -> Ok []
  | Some (T.Jobj fields) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | (name, T.Jint i) :: rest -> conv ((name, R.Vint i) :: acc) rest
        | (name, T.Jarr items) :: rest -> (
            let ints =
              List.fold_right
                (fun item acc ->
                  match (item, acc) with T.Jint i, Some l -> Some (i :: l) | _ -> None)
                items (Some [])
            in
            match ints with
            | Some l -> conv ((name, R.Vints l) :: acc) rest
            | None -> Error (Printf.sprintf "param %S: expected an integer array" name))
        | (name, _) :: _ ->
            Error (Printf.sprintf "param %S: expected an integer or integer array" name)
      in
      conv [] fields
  | Some _ -> Error "\"params\" must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)

let handle_ping _t = ok_response [ ("op", jstr "ping"); ("version", jstr Stdx.Version.current) ]

let handle_list _t =
  let param_json (p : R.param) =
    obj
      [
        ("name", jstr p.R.name);
        ("doc", jstr p.R.doc);
        ("default", render_pvalue p.R.default);
      ]
  in
  let exp_json e =
    obj
      [
        ("id", jstr (R.id e));
        ("title", jstr (R.title e));
        ("doc", jstr (R.doc e));
        ("params", arr (List.map param_json (R.params e)));
      ]
  in
  let protocol_json (name, { Simulate.doc; _ }) = obj [ ("name", jstr name); ("doc", jstr doc) ] in
  ok_response
    [
      ("op", jstr "list");
      ("version", jstr Stdx.Version.current);
      ("experiments", arr (List.map exp_json (Core.Exp_all.all ())));
      ("protocols", arr (List.map protocol_json Simulate.protocols));
    ]

let handle_stats t =
  let m = Metrics.snapshot t.metrics in
  let c = Cache.stats t.cache in
  let s = Scheduler.stats t.scheduler in
  let f = T.float_repr in
  ok_response
    [
      ("op", jstr "stats");
      ("version", jstr Stdx.Version.current);
      ("uptime_s", f m.Metrics.uptime_s);
      ( "requests",
        obj
          [
            ("total", string_of_int m.Metrics.total);
            ("errors", string_of_int m.Metrics.errors);
            ("by_op", obj (List.map (fun (op, n) -> (op, string_of_int n)) m.Metrics.by_op));
          ] );
      ( "cache",
        obj
          [
            ("hits", string_of_int c.Cache.hits);
            ("misses", string_of_int c.Cache.misses);
            ("entries", string_of_int c.Cache.entries);
            ("bytes", string_of_int c.Cache.bytes);
            ("evictions", string_of_int c.Cache.evictions);
            ("invalidations", string_of_int c.Cache.invalidations);
          ] );
      ( "queue",
        obj
          [
            ("depth", string_of_int s.Scheduler.depth);
            ("capacity", string_of_int s.Scheduler.capacity);
            ("workers", string_of_int s.Scheduler.workers);
            ("shed", string_of_int s.Scheduler.shed);
            ("deadline_drops", string_of_int s.Scheduler.deadline_drops);
            ("cancelled_drops", string_of_int s.Scheduler.cancelled_drops);
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
      ( "trace",
        let tr = Stdx.Trace.stats () in
        obj
          [
            ("enabled", string_of_bool tr.Stdx.Trace.tracing);
            ("events", string_of_int tr.Stdx.Trace.events);
            ("dropped", string_of_int tr.Stdx.Trace.dropped);
          ] );
      (* Appended per PROTOCOL.md §6: new fields go after existing ones. *)
      ( "connections",
        obj
          [
            ("open", string_of_int m.Metrics.conns_open);
            ("accepted", string_of_int m.Metrics.conns_accepted);
            ("rejected", string_of_int m.Metrics.conns_rejected);
            ("idle_timeouts", string_of_int m.Metrics.idle_timeouts);
            ("rate_limited", string_of_int m.Metrics.rate_limited);
          ] );
    ]

(* The `cache` RPC: introspection and prefix invalidation of the result
   cache. Sound to expose because invalidation can never change what a
   client observes — any future recomputation is byte-identical to the
   dropped entry (the determinism contract). Cheap: answered on the
   calling thread, never scheduled. *)
let handle_cache t j =
  let prefix = str_field j "prefix" in
  match str_field j "action" with
  | Some "stats" ->
      let c = Cache.stats t.cache in
      ok_response
        [
          ("op", jstr "cache");
          ("action", jstr "stats");
          ("entries", string_of_int c.Cache.entries);
          ("bytes", string_of_int c.Cache.bytes);
          ("hits", string_of_int c.Cache.hits);
          ("misses", string_of_int c.Cache.misses);
          ("evictions", string_of_int c.Cache.evictions);
          ("invalidations", string_of_int c.Cache.invalidations);
        ]
  | Some "keys" ->
      let limit =
        match int_field j "limit" with Some l when l > 0 -> l | Some _ | None -> 100
      in
      let matched, listed = Cache.keys ?prefix ~limit t.cache in
      ok_response
        [
          ("op", jstr "cache");
          ("action", jstr "keys");
          ("prefix", jstr (Option.value ~default:"" prefix));
          ("matched", string_of_int matched);
          ( "keys",
            arr
              (List.map
                 (fun (key, bytes) ->
                   obj [ ("key", jstr key); ("bytes", string_of_int bytes) ])
                 listed) );
        ]
  | Some "invalidate" -> (
      match prefix with
      | None ->
          bad_request
            "cache invalidate needs a string field \"prefix\" (\"\" clears everything)"
      | Some prefix ->
          let n = Cache.invalidate_prefix t.cache ~prefix in
          ok_response
            [
              ("op", jstr "cache");
              ("action", jstr "invalidate");
              ("prefix", jstr prefix);
              ("invalidated", string_of_int n);
            ])
  | Some a ->
      bad_request (Printf.sprintf "unknown cache action %S (stats, keys or invalidate)" a)
  | None -> bad_request "cache needs a string field \"action\" (stats, keys or invalidate)"

(* Consult the cache under [key]; on a miss compute the payload on a worker
   domain through the bounded scheduler. [k] receives the response and
   whether it was served from cache — synchronously on the caller for a
   hit or a shed, from the worker domain after a computed miss. *)
let cached_compute t ~key ~deadline ~cancelled compute ~k =
  match Cache.find t.cache key with
  | Some payload -> k (payload, true)
  | None ->
      (* The "service.schedule" span covers queueing + compute on the
         worker; the nested "scheduler.compute" span isolates the compute
         part, so the gap between the two is time spent waiting for a
         worker slot. Recorded with [complete] because connection threads
         share domains and may interleave. *)
      let t0 = Unix.gettimeofday () in
      Scheduler.submit t.scheduler ?deadline ~cancelled compute ~k:(fun outcome ->
          Stdx.Trace.complete ~t0 ~t1:(Unix.gettimeofday ()) "service.schedule";
          match outcome with
          | Ok payload ->
              Cache.add t.cache key payload;
              k (payload, false)
          | Error e -> k (of_scheduler_error e, false))

(* Assemble and validate a [run] request's merged parameter list against
   experiment [e]'s spec — shared by [handle_run] and [request_key] so the
   proxy's routing key derivation is exactly the cache key derivation.
   [Error] carries a ready-to-send error response. *)
let merged_of_run_request e j =
  match overrides_of_json j with
  | Error msg -> Error (bad_request msg)
  | Ok param_overrides -> (
      (* [merge] keeps the first binding per name, so explicit request
         fields come first and beat the --smoke defaults (same precedence
         as the CLI's `run` subcommand). *)
      let overrides =
        param_overrides
        @ (match int_field j "seed" with Some s -> [ ("seed", R.Vint s) ] | None -> [])
        @ [ ("jobs", R.Vint (Option.value ~default:1 (int_field j "jobs"))) ]
        @ (if bool_field j "smoke" = Some true then R.smoke e else [])
      in
      (* Server-side validation against the experiment's spec, before any
         scheduling. *)
      match R.merge (R.params e) overrides with
      | exception R.Unknown_param p ->
          Error (bad_request (Printf.sprintf "experiment %S has no parameter %S" (R.id e) p))
      | exception R.Wrong_param_type p ->
          Error (bad_request (Printf.sprintf "parameter %S has the wrong type" p))
      | merged -> (
          (* [merge] validates names only; shape mismatches would
             otherwise surface mid-compute as a 500. Catch them here. *)
          match
            List.find_opt
              (fun (p : R.param) ->
                match (List.assoc p.R.name merged, p.R.default) with
                | R.Vint _, R.Vint _ | R.Vints _, R.Vints _ -> false
                | _ -> true)
              (R.params e)
          with
          | Some bad ->
              Error
                (bad_request
                   (Printf.sprintf "parameter %S has the wrong type (expected %s)" bad.R.name
                      (match bad.R.default with
                      | R.Vint _ -> "an integer"
                      | R.Vints _ -> "an integer array")))
          | None -> Ok merged))

let simulate_key ~protocol ~graph ~seed =
  Printf.sprintf "simulate?protocol=%s&graph=%s&seed=%d" protocol
    (T.string_of_json (Simulate.json_of_gspec graph))
    seed

(* The canonical cache key a compute request will be stored under — what
   the proxy consistent-hashes on, so every replica of a request lands on
   the backend already holding (or about to hold) its cache entry.
   [None] when the request is not a valid [run]/[simulate]: those never
   reach a cache and may be routed anywhere. *)
let request_key j =
  match str_field j "op" with
  | Some "run" -> (
      match str_field j "id" with
      | None -> None
      | Some id -> (
          match Core.Exp_all.find id with
          | None -> None
          | Some e -> (
              match merged_of_run_request e j with
              | Ok merged -> Some (canonical_key id merged)
              | Error _ -> None)))
  | Some "simulate" -> (
      match (str_field j "protocol", T.member "graph" j) with
      | Some name, Some gj -> (
          match (List.assoc_opt name Simulate.protocols, Simulate.gspec_of_json gj) with
          | Some protocol, Ok graph when Simulate.compatible protocol graph ->
              let seed = Option.value ~default:7 (int_field j "seed") in
              Some (simulate_key ~protocol:name ~graph ~seed)
          | _ -> None)
      | _ -> None)
  | _ -> None

let handle_run t ~cancelled j ~k =
  match str_field j "id" with
  | None -> k (bad_request "run needs a string field \"id\"")
  | Some id -> (
      match Core.Exp_all.find id with
      | None -> k (not_found (Printf.sprintf "unknown experiment %S; see `list`" id))
      | Some e -> (
          match merged_of_run_request e j with
          | Error response -> k response
          | Ok merged ->
              let key = canonical_key id merged in
              let compute () =
                let tbl = R.table e merged in
                let rows = List.map (T.json_of_row tbl.T.schema) tbl.T.rows in
                ok_response
                  [
                    ("op", jstr "run");
                    ("id", jstr id);
                    ("title", jstr (R.title e));
                    ("params", params_json merged);
                    ("rows", arr rows);
                  ]
              in
              cached_compute t ~key ~deadline:(deadline_of j) ~cancelled compute
                ~k:(fun (payload, hit) ->
                  t.log
                    (Printf.sprintf "op=run id=%s cache=%s key=%S" id
                       (if hit then "hit" else "miss")
                       key);
                  k payload)))

let handle_simulate t ~cancelled j ~k =
  match str_field j "protocol" with
  | None -> k (bad_request "simulate needs a string field \"protocol\"")
  | Some name -> (
      match (List.assoc_opt name Simulate.protocols, T.member "graph" j) with
      | None, _ ->
          k
            (bad_request
               (Printf.sprintf "unknown protocol %S; valid protocols: %s" name
                  (String.concat ", " (List.map fst Simulate.protocols))))
      | Some _, None -> k (bad_request "simulate needs an object field \"graph\"")
      | Some protocol, Some gj -> (
          match Simulate.gspec_of_json gj with
          | Error msg -> k (bad_request msg)
          | Ok graph when not (Simulate.compatible protocol graph) ->
              k
                (bad_request
                   (Printf.sprintf "protocol %S cannot run on a %s input" name
                      (T.string_of_json (Simulate.json_of_gspec graph))))
          | Ok graph ->
              let seed = Option.value ~default:7 (int_field j "seed") in
              let spec = { Simulate.protocol = name; graph; seed } in
              let key = simulate_key ~protocol:name ~graph ~seed in
              let compute () =
                let fields = Simulate.run spec in
                ok_response
                  (("op", jstr "simulate")
                  :: List.map (fun (k, v) -> (k, T.string_of_json v)) fields)
              in
              cached_compute t ~key ~deadline:(deadline_of j) ~cancelled compute
                ~k:(fun (payload, hit) ->
                  t.log
                    (Printf.sprintf "op=simulate protocol=%s cache=%s" name
                       (if hit then "hit" else "miss"));
                  k payload)))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

type reply = { payload : string; shutdown : bool }

(* Close out one request: trace span, metrics, log line, then deliver.
   Runs on whichever thread produced the response — the caller for cheap
   ops and cache hits, a worker domain for computed misses — so the
   "rpc.<op>" span and the recorded latency cover queueing + compute, the
   same envelope the blocking dispatch used to measure. *)
let finish t ~t0 ~op ~shutdown ~k response =
  let t1 = Unix.gettimeofday () in
  let ms = (t1 -. t0) *. 1000. in
  let ok = String.length response >= 11 && String.sub response 0 11 = "{\"ok\":true," in
  (* One span per request, named by op. [complete] (not begin_/end_):
     requests from many connections share a domain, so a stack would
     mis-pair. The args guard avoids building the list when tracing is
     off. *)
  if Stdx.Trace.enabled () then
    Stdx.Trace.complete ~args:[ ("ok", Stdx.Trace.Bool ok) ] ~t0 ~t1 ("rpc." ^ op);
  Metrics.record t.metrics ~op ~ok ~ms;
  t.log (Printf.sprintf "op=%s status=%s ms=%.2f" op (if ok then "ok" else "error") ms);
  k { payload = response; shutdown }

let handle_async t ?(cancelled = fun () -> false) payload ~k =
  let t0 = Unix.gettimeofday () in
  let sync op response = finish t ~t0 ~op ~shutdown:false ~k response in
  match T.json_of_string payload with
  | exception T.Parse_error msg -> sync "parse-error" (bad_request ("invalid JSON: " ^ msg))
  | j -> (
      match str_field j "op" with
      | None -> sync "bad-op" (bad_request "request needs a string field \"op\"")
      | Some "ping" -> sync "ping" (handle_ping t)
      | Some "list" -> sync "list" (handle_list t)
      | Some "stats" -> sync "stats" (handle_stats t)
      | Some "cache" -> sync "cache" (handle_cache t j)
      | Some "run" -> handle_run t ~cancelled j ~k:(finish t ~t0 ~op:"run" ~shutdown:false ~k)
      | Some "simulate" ->
          handle_simulate t ~cancelled j ~k:(finish t ~t0 ~op:"simulate" ~shutdown:false ~k)
      | Some "shutdown" ->
          t.draining <- true;
          finish t ~t0 ~op:"shutdown" ~shutdown:true ~k
            (ok_response [ ("op", jstr "shutdown"); ("msg", jstr "draining; no new requests") ])
      | Some op -> sync "bad-op" (not_found (Printf.sprintf "unknown op %S" op)))

(* Blocking convenience over [handle_async] — a result cell the calling
   thread parks on. Used by in-process tests and anything with a thread
   to spare; the event engine calls [handle_async] directly. *)
let handle t ?cancelled payload =
  let cmutex = Mutex.create () in
  let cond = Condition.create () in
  let result = ref None in
  handle_async t ?cancelled payload ~k:(fun reply ->
      Mutex.lock cmutex;
      result := Some reply;
      Condition.signal cond;
      Mutex.unlock cmutex);
  Mutex.lock cmutex;
  while !result = None do
    Condition.wait cond cmutex
  done;
  let reply = match !result with Some r -> r | None -> assert false in
  Mutex.unlock cmutex;
  reply

let draining t = t.draining

(* Stop accepting compute work and wait for in-flight jobs. *)
let shutdown t =
  t.draining <- true;
  Scheduler.shutdown t.scheduler
