(* Request streams for the serving workloads, made from the run's seed.

   Mixes are dealt from shuffled decks rather than drawn independently:
   each deck holds every request class in its exact proportion, so any
   window of a few hundred requests has the same composition on every
   seed. The seed changes which instances are asked for (graph seeds and
   deal order), not how much work the stream holds, which keeps run-to-run
   spread down to what the system itself contributes. *)

module T = Report.Tabular
module Simulate = Server.Simulate

type request = {
  payload : string;
  key : string option;  (** Identity key: equal keys must get byte-identical replies. *)
  compute : bool;  (** A run/simulate request (checked against in-process replies). *)
}

type cls =
  | Sim of string * int  (** protocol, n *)
  | Run of string  (** registry id *)
  | Ping
  | Stats

let run_ids = [| "claim31"; "budget-sweep"; "yao"; "bcc"; "round-frontier"; "stream-matching" |]
let protocols = Array.of_list (List.map fst Simulate.protocols)
let graph_of ~protocol n =
  if String.starts_with ~prefix:"hyper-" protocol then Simulate.Hyperk { n; m = n; k = 3 }
  else Simulate.Gnp { n; p = 8.0 /. float_of_int n }

let request_of cls ~seed =
  let payload =
    match cls with
    | Sim (protocol, n) ->
        T.string_of_json
          (T.Jobj
             [
               ("op", T.Jstr "simulate");
               ("protocol", T.Jstr protocol);
               ("graph", Simulate.json_of_gspec (graph_of ~protocol n));
               ("seed", T.Jint seed);
             ])
    | Run id ->
        T.string_of_json
          (T.Jobj
             [
               ("op", T.Jstr "run");
               ("id", T.Jstr id);
               ("smoke", T.Jbool true);
               ("seed", T.Jint seed);
             ])
    | Ping -> {|{"op":"ping"}|}
    | Stats -> {|{"op":"stats"}|}
  in
  match cls with
  | Sim _ | Run _ ->
      { payload; key = Server.Service.request_key (T.json_of_string payload); compute = true }
  | Ping -> { payload; key = Some "ping"; compute = false }
  | Stats -> { payload; key = None; compute = false }

(* Fresh-seed compute classes: 80% simulate, spread evenly over every
   protocol, with n in [ns] weighted [weights]; 20% smoke-size runs of
   [run_ids]. 14 protocols x 10 weight units = 140 simulates against 36
   runs (20.5%) per deck when all four sizes are in. *)
let compute_deck ~ns ~weights =
  let sims =
    Array.to_list protocols
    |> List.concat_map (fun p ->
           List.concat (List.map2 (fun n w -> List.init w (fun _ -> Sim (p, n))) ns weights))
  in
  let runs_each = (List.length sims / 4) / Array.length run_ids + 1 in
  let runs =
    List.concat_map (fun id -> List.init runs_each (fun _ -> Run id)) (Array.to_list run_ids)
  in
  Array.of_list (sims @ runs)

(* The warmed working set of [size] keys: every fourth a smoke-size run,
   the rest small simulates over all protocols. Seeds come from the run
   seed, so the set differs between runs but not its composition. *)
let working_set ~size ~seed =
  Array.init size (fun r ->
      let cls =
        if r mod 4 = 0 then Run run_ids.(r / 4 mod Array.length run_ids)
        else Sim (protocols.(r mod Array.length protocols), if r mod 2 = 0 then 64 else 128)
      in
      request_of cls ~seed:((seed * 1009) + r))

(* A request stream: request i of the run, generated on first use and
   kept, so a reply can be matched back to its request by index. *)
type stream = { get : int -> request }

let memo next =
  let made = ref [||] and count = ref 0 in
  let rec get i =
    if i < !count then !made.(i)
    else begin
      let r = next () in
      if !count = Array.length !made then
        made := Array.append !made (Array.make (max 256 !count) r);
      !made.(!count) <- r;
      incr count;
      get i
    end
  in
  { get }

(* Deal [deck] forever, reshuffling it each time it runs out. *)
let deal rng deck =
  let hand = Array.copy deck and pos = ref (Array.length deck) in
  fun () ->
    if !pos = Array.length hand then begin
      Stdx.Prng.shuffle rng hand;
      pos := 0
    end;
    incr pos;
    hand.(!pos - 1)

(* Zipf(1.0) over ranks [0, n), by inverse CDF. *)
let zipf rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun () ->
    let u = Stdx.Prng.float rng *. !acc in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then find lo mid else find (mid + 1) hi
    in
    find 0 (n - 1)

(* Fresh seeds never repeat within a run and never collide with the
   working set's. *)
let fresh rng ~seed ~ns ~weights =
  let next = deal rng (compute_deck ~ns ~weights) and i = ref 0 in
  fun () ->
    incr i;
    request_of (next ()) ~seed:(1_000_000_000 + (seed * 10_000_000) + !i)

(* serve-compute: every request a fresh-seed compute over all four sizes. *)
let misses ~seed =
  memo (fresh (Stdx.Prng.create seed) ~seed ~ns:[ 64; 128; 256; 512 ] ~weights:[ 4; 3; 2; 1 ])

(* serve-herd: 94% working-set hits drawn Zipf(1.0), 5% ping, 1% stats. *)
let cached ~seed working_set =
  let rng = Stdx.Prng.create seed in
  let rank = zipf (Stdx.Prng.split rng 1) (Array.length working_set) in
  let next =
    deal (Stdx.Prng.split rng 2)
      (Array.concat [ Array.make 94 None; Array.make 5 (Some Ping); [| Some Stats |] ])
  in
  memo (fun () ->
      match next () with None -> working_set.(rank ()) | Some cls -> request_of cls ~seed:0)

(* cluster-mixed: 70% uniform working-set hits, 30% fresh misses with
   n <= 256. *)
let mixed ~seed working_set =
  let rng = Stdx.Prng.create seed in
  let miss = fresh (Stdx.Prng.split rng 1) ~seed ~ns:[ 64; 128; 256 ] ~weights:[ 4; 3; 2 ] in
  let pick = Stdx.Prng.split rng 2 in
  let next = deal (Stdx.Prng.split rng 3) (Array.append (Array.make 7 true) (Array.make 3 false)) in
  memo (fun () ->
      if next () then working_set.(Stdx.Prng.int pick (Array.length working_set)) else miss ())
