(* Per-layer timings taken in this process by calling each serving layer's
   public functions on the workload's own requests: the simulate and
   registry compute paths, the service's miss and hit paths, the
   scheduler handoff, the result cache and the wire codec. Calls cheaper
   than the clock's resolution are timed in batches. *)

module T = Report.Tabular
module R = Core.Exp_registry

let us_of f = snd (Stdx.Parallel.timed f) *. 1e6
let ms_of f = snd (Stdx.Parallel.timed f) *. 1e3

(* p50 over batches of [batch] calls, per call, in microseconds. *)
let batched_p50_us ~batch items f =
  let n = Array.length items in
  if n = 0 then 0.
  else
    let batches = max 1 (n / batch) in
    Summary.median
      (Array.init batches (fun b ->
           let lo = b * batch and hi = min n ((b + 1) * batch) in
           us_of (fun () ->
               for i = lo to hi - 1 do
                 f items.(i)
               done)
           /. float_of_int (hi - lo)))

let median_or_zero a = if Array.length a = 0 then 0. else Summary.median a

(* Simulate and registry-run compute, by protocol, on at most [per_class]
   of the workload's requests each. *)
let compute ~per_class (requests : Mix.request list) =
  let sims = Hashtbl.create 16 and runs = ref [] in
  List.iter
    (fun (r : Mix.request) ->
      let j = T.json_of_string r.payload in
      match (T.member "op" j, T.member "protocol" j, T.member "graph" j, T.member "seed" j) with
      | Some (T.Jstr "simulate"), Some (T.Jstr protocol), Some g, Some (T.Jint seed) -> (
          match Server.Simulate.gspec_of_json g with
          | Ok graph ->
              let have = Option.value ~default:[] (Hashtbl.find_opt sims protocol) in
              if List.length have < per_class then
                Hashtbl.replace sims protocol ({ Server.Simulate.protocol; graph; seed } :: have)
          | Error _ -> ())
      | Some (T.Jstr "run"), _, _, Some (T.Jint seed) -> (
          match T.member "id" j with
          | Some (T.Jstr id) when List.length !runs < per_class * 2 -> runs := (id, seed) :: !runs
          | _ -> ())
      | _ -> ())
    requests;
  let sim_metrics =
    List.map
      (fun (protocol, _) ->
        let specs = Option.value ~default:[] (Hashtbl.find_opt sims protocol) in
        ( "simulate." ^ protocol ^ ".p50_ms",
          median_or_zero
            (Array.of_list
               (List.map (fun s -> ms_of (fun () -> ignore (Server.Simulate.run s))) specs))
        ))
      Server.Simulate.protocols
  in
  let run_ms =
    List.filter_map
      (fun (id, seed) ->
        Option.map
          (fun e ->
            (* The service's merge order: request fields, then smoke sizes. *)
            let overrides = ("seed", R.Vint seed) :: ("jobs", R.Vint 1) :: R.smoke e in
            ms_of (fun () -> ignore (R.table e overrides)))
          (R.find id))
      !runs
  in
  sim_metrics @ [ ("registry.run.p50_ms", median_or_zero (Array.of_list run_ms)) ]

(* Service miss then hit on a fresh in-process service, the scheduler's
   no-op handoff, cache lookups over the key stream, and the wire codec
   over the recorded frames. *)
let service ~smoke (requests : Mix.request list) (replies : string list) =
  let compute = List.filter (fun (r : Mix.request) -> r.compute) requests in
  let compute = List.filteri (fun i _ -> i < if smoke then 8 else 60) compute in
  let svc = Server.Service.create ~workers:1 () in
  let miss, hit =
    List.split
      (List.map
         (fun (r : Mix.request) ->
           let miss = us_of (fun () -> ignore (Server.Service.handle svc r.payload)) in
           let hit = us_of (fun () -> ignore (Server.Service.handle svc r.payload)) in
           (miss, hit))
         compute)
  in
  Server.Service.shutdown svc;
  let sched = Server.Scheduler.create ~workers:1 () in
  let handoff =
    Array.init (if smoke then 50 else 2000) (fun _ ->
        us_of (fun () -> ignore (Server.Scheduler.run sched (fun () -> ()))))
  in
  Server.Scheduler.shutdown sched;
  let keys = Array.of_list (List.filter_map (fun (r : Mix.request) -> r.key) requests) in
  let cache = Server.Cache.create () in
  let find_p50 =
    batched_p50_us ~batch:100 keys (fun k ->
        match Server.Cache.find cache k with None -> Server.Cache.add cache k k | Some _ -> ())
  in
  let frames =
    Array.of_list (List.map (fun (r : Mix.request) -> r.payload) requests @ replies)
  in
  let decoder = Server.Wire.Decoder.create () in
  let codec_p50 =
    batched_p50_us ~batch:50 frames (fun p ->
        let b = Bytes.unsafe_of_string (Server.Wire.encode p) in
        Server.Wire.Decoder.feed decoder b ~off:0 ~len:(Bytes.length b);
        ignore (Server.Wire.Decoder.next decoder))
  in
  [
    ("service.miss.p50_us", median_or_zero (Array.of_list miss));
    ("service.hit.p50_us", median_or_zero (Array.of_list hit));
    ("scheduler.handoff.p50_us", Summary.median handoff);
    ("cache.find.p50_us", find_p50);
    ("wire.codec.p50_us", codec_p50);
  ]
