module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module L0 = Linear_sketch.L0_sampler

type config = { sparsity : int; reps : int }

let default_config = { sparsity = 4; reps = 3 }

let rounds n =
  let rec bits v acc = if v <= 1 then acc else bits ((v + 1) / 2) (acc + 1) in
  max 1 (bits n 0) + 1

(* Sampler params are a pure function of (config, n, coin seed) —
   [Public_coins.keyed] builds a fresh stream per call — but players
   re-derive them once per vertex, which at n vertices per trial was the
   dominant setup churn (prime search plus reps hash samples per round,
   per vertex). Memoize per domain: the cache is domain-local (no locks,
   no cross-domain sharing, so [Parallel] determinism is untouched) and
   bounded — trials use fresh seeds, so old entries are dead weight. *)
let params_cache :
    (int * int * int * int, L0.params array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let sampler_params config ~n coins =
  let cache = Domain.DLS.get params_cache in
  let key = (config.sparsity, config.reps, n, Public_coins.seed coins) in
  match Hashtbl.find_opt cache key with
  | Some ps -> ps
  | None ->
      let universe = Edge_encoding.universe n in
      let ps =
        Array.init (rounds n) (fun round ->
            let rng = Public_coins.keyed coins "agm-sampler" round in
            L0.make_params rng ~universe ~sparsity:config.sparsity ~reps:config.reps ())
      in
      if Hashtbl.length cache >= 64 then Hashtbl.reset cache;
      Hashtbl.add cache key ps;
      ps

let stack_words params = Array.fold_left (fun acc p -> acc + L0.size_words p) 0 params

let scratch_stack arena key params =
  let buf = Stdx.Scratch.ints arena key (stack_words params) in
  let off = ref 0 in
  Array.map
    (fun p ->
      let s = L0.of_buffer p buf !off in
      off := !off + L0.size_words p;
      s)
    params

let empty_stack config ~n coins = Array.map L0.create (sampler_params config ~n coins)

let stack_update ~n stack v u ~weight =
  if u = v then invalid_arg "Spanning_forest.stack_update: self-loop";
  let idx = Edge_encoding.index ~n v u in
  let w = (if v < u then 1 else -1) * weight in
  Array.iter (fun s -> L0.update s idx w) stack

let player_sketches config ~n coins (view : Model.view) =
  (* The stack only lives until [write_stack]; borrow it from the arena
     (zeroed per borrow, reallocated only when n changes). *)
  let stack = scratch_stack (Stdx.Scratch.domain ()) "sf.player" (sampler_params config ~n coins) in
  Array.iter (fun u -> stack_update ~n stack view.Model.vertex u ~weight:1) view.Model.neighbors;
  stack

let write_stack sketches =
  let w = Stdx.Bitbuf.Writer.create () in
  Array.iter (fun s -> L0.write s w) sketches;
  w

let read_stack_into params buf off r =
  let off = ref off in
  Array.map
    (fun p ->
      let s = L0.read_into p buf !off r in
      off := !off + L0.size_words p;
      s)
    params

(* Borůvka: in round [j] every component sums its members' round-[j]
   samplers ([round_samplers j], asked for once per round and only while
   the forest grows) and decodes one outgoing edge; internal edges
   cancel by construction, so any decoded coordinate crosses the cut. *)
let decode_rounds ~n ~rounds round_samplers =
  let arena = Stdx.Scratch.domain () in
  let uf = Dgraph.Unionfind.create n in
  let forest = ref [] in
  let continue = ref true in
  let round = ref 0 in
  while !continue && !round < rounds do
    let samplers = round_samplers !round in
    let members = Dgraph.Unionfind.class_members uf in
    let merged = ref false in
    let candidates = ref [] in
    Array.iteri
      (fun root vs ->
        match vs with
        | [] -> ()
        | first :: rest ->
            ignore root;
            (* Accumulate the component's samplers into one arena borrow
               instead of a fresh buffer per [combine] — re-borrowed (and
               so invalidated) at the next component, after decoding. *)
            let combined = L0.scratch_copy arena "sf.decode-acc" samplers.(first) in
            List.iter (fun v -> L0.add_into ~dst:combined samplers.(v)) rest;
            (match L0.decode combined with
            | Some (idx, _) -> candidates := idx :: !candidates
            | None -> ()))
      members;
    List.iter
      (fun idx ->
        let u, v = Edge_encoding.endpoints ~n idx in
        if u >= 0 && u < n && v >= 0 && v < n && u <> v then
          if Dgraph.Unionfind.union uf u v then begin
            forest := Dgraph.Graph.normalize_edge u v :: !forest;
            merged := true
          end)
      !candidates;
    if not !merged then continue := false;
    incr round
  done;
  List.rev !forest

let decode_forest ~n ~per_vertex =
  let rounds = if Array.length per_vertex = 0 then 0 else Array.length per_vertex.(0) in
  decode_rounds ~n ~rounds (fun j -> Array.map (fun stack -> stack.(j)) per_vertex)

let referee config ~n ~sketches coins =
  let params = sampler_params config ~n coins in
  (* A stack is serialised round by round, so each reader yields round
     j's sampler just before Borůvka round j needs it. Every round is
     parsed into the same arena borrow (round j-1's samplers are dead by
     then), so the referee holds n samplers, not n stacks, and rounds
     after the forest stops growing are never parsed. The decode itself
     uses the distinct keys "sf.decode-acc" / "sparse_recovery.decode". *)
  let arena = Stdx.Scratch.domain () in
  let words = Array.fold_left (fun acc p -> max acc (L0.size_words p)) 0 params in
  decode_rounds ~n ~rounds:(Array.length params) (fun j ->
      let buf = Stdx.Scratch.dirty_ints arena "sf.referee" (Array.length sketches * words) in
      Array.mapi (fun v r -> L0.read_into params.(j) buf (v * words) r) sketches)

let protocol ?(config = default_config) ~n () =
  {
    Model.name = "agm-spanning-forest";
    player = (fun view coins -> write_stack (player_sketches config ~n coins view));
    referee = (fun ~n ~sketches coins -> referee config ~n ~sketches coins);
  }

let run ?(config = default_config) g coins =
  Rounds.run (Rounds.one_round (protocol ~config ~n:(Dgraph.Graph.n g) ())) g coins

let connected_components ?(config = default_config) g coins =
  let forest, stats = run ~config g coins in
  (Dgraph.Graph.n g - List.length forest, stats)
