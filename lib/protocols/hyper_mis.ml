module Public_coins = Sketchmodel.Public_coins
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module H = Dgraph.Hypergraph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

let priority coins ~label u = Stdx.Prng.int (Public_coins.keyed coins label u) (1 lsl 40)

(* u strictly dominates v in priority order (ties by id). *)
let beats coins ~label u v =
  let pu = priority coins ~label u and pv = priority coins ~label v in
  pu > pv || (pu = pv && u > v)

(* Weak independence only needs the top-priority pin of every hyperedge
   to stay out: a vertex joins iff it is not the maximum of any incident
   edge. On 2-uniform hypergraphs this is the graph local-minima rule
   (not-max in every pair = min among neighbours), under its own coin
   label, so the two protocols' outputs differ on the same coins. *)
let local_minima =
  {
    Model.name = "hyper-local-minima-mis";
    player =
      (fun view coins ->
        let w = Writer.create () in
        let v = view.Hyper_views.vertex in
        let is_max pins =
          Array.for_all (fun u -> u = v || beats coins ~label:"hmis-priority" v u) pins
        in
        Writer.bit w (not (Array.exists is_max view.Hyper_views.edges));
        w);
    referee =
      (fun ~n ~sketches _coins ->
        ignore n;
        let out = ref [] in
        Array.iteri (fun v r -> if Reader.bit r then out := v :: !out) sketches;
        List.rev !out);
  }

type state = { chosen : bool array; blocked : bool array }

(* Luby-style rounds. Per round, fresh public-coin priorities; an active
   vertex v looks at each incident edge e that is still [live] (no
   blocked pin — an edge with a blocked pin can never be completed):

   - if every other pin of some incident edge is chosen, v is blocked
     (joining would complete that edge) and says so;
   - otherwise v joins iff it is not the top-priority active pin of any
     live incident edge.

   Each live edge keeps its top active pin out for the round, so no edge
   is ever completed — even with simultaneous joins. The globally
   minimum-priority active vertex always either joins or blocks, so the
   active set shrinks every round and termination (all vertices chosen
   or blocked = maximality) needs at most n rounds. *)
let luby ~n =
  (* Coin labels number rounds from 0 ([hmis-luby-r0] is round 1's), so
     the draws stay those the hypergraph-mm table and served responses
     pin. *)
  let round_label round = Printf.sprintf "hmis-luby-r%d" (round - 1) in
  {
    Rounds.name = "hyper-luby-mis";
    max_rounds = 4 * (n + 2);
    init = (fun ~n _coins -> { chosen = Array.make n false; blocked = Array.make n false });
    player =
      (fun ~round view state coins ->
        let w = Writer.create () in
        let v = view.Hyper_views.vertex in
        if not (state.chosen.(v) || state.blocked.(v)) then begin
          let label = round_label round in
          let blocked_now =
            Array.exists
              (fun pins -> Array.for_all (fun u -> u = v || state.chosen.(u)) pins)
              view.Hyper_views.edges
          in
          let joins =
            (not blocked_now)
            && not
                 (Array.exists
                    (fun pins ->
                      let live = Array.for_all (fun u -> not state.blocked.(u)) pins in
                      live
                      && Array.for_all
                           (fun u ->
                             u = v || state.chosen.(u) || beats coins ~label v u)
                           pins)
                    view.Hyper_views.edges)
          in
          Writer.bit w joins;
          Writer.bit w blocked_now
        end;
        w);
    referee =
      (fun ~round:_ ~n ~state ~sketches _coins ->
        let chosen = Array.copy state.chosen and blocked = Array.copy state.blocked in
        Array.iteri
          (fun v r ->
            if Reader.remaining_bits r >= 2 then begin
              let joins = Reader.bit r in
              let blocked_now = Reader.bit r in
              if joins then chosen.(v) <- true
              else if blocked_now then blocked.(v) <- true
            end)
          sketches;
        let active = ref false in
        for v = 0 to n - 1 do
          if not (chosen.(v) || blocked.(v)) then active := true
        done;
        let state = { chosen; blocked } in
        if !active then Rounds.Continue state else Rounds.Finish state);
    encode_broadcast =
      (fun state ->
        let w = Writer.create () in
        Array.iter (fun c -> Writer.bit w c) state.chosen;
        Array.iter (fun b -> Writer.bit w b) state.blocked;
        w);
  }

let run_local_minima h coins =
  Rounds.run_views (Rounds.one_round local_minima) ~n:(H.n h) (Hyper_views.views h) coins

let run_luby h coins =
  let n = H.n h in
  let state, stats = Hyper_views.iterate (luby ~n) h coins in
  let out = ref [] in
  for v = n - 1 downto 0 do
    if state.chosen.(v) then out := v :: !out
  done;
  (!out, stats)
