module Public_coins = Sketchmodel.Public_coins
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module H = Dgraph.Hypergraph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

(* An edge on the wire is its arity followed by its sorted pins, all
   uvarint. Players only ever ship edges they are a pin of, so the
   referee reconstructs true subhypergraphs. *)
let write_edge w pins =
  Writer.uvarint w (Array.length pins);
  Array.iter (fun v -> Writer.uvarint w v) pins

let read_edge r = Array.init (Reader.uvarint r) (fun _ -> Reader.uvarint r)

(* A public-coin priority of an edge, derived from its pin set — players
   and referee compute it identically without naming global edge ids
   (ids are frozen-order artefacts no player can see). *)
let edge_priority coins pins =
  let key =
    Array.fold_left (fun acc v -> Stdx.Hashing.mix64 (acc lxor ((v * 2) + 1))) 0 pins
  in
  Stdx.Prng.int (Public_coins.keyed coins "hmm-priority" key) (1 lsl 40)

let compare_pin_arrays (a : int array) b =
  let la = Array.length a and lb = Array.length b in
  let rec go j =
    if j >= la || j >= lb then compare la lb
    else if a.(j) <> b.(j) then compare a.(j) b.(j)
    else go (j + 1)
  in
  go 0

let trivial =
  {
    Model.name = "hyper-trivial-mm";
    player =
      (fun view _coins ->
        let w = Writer.create () in
        Array.iter (fun pins -> write_edge w pins) view.Hyper_views.edges;
        w);
    referee =
      (fun ~n ~sketches _coins ->
        let b = H.Builder.create ~capacity:(max n 1) n in
        Array.iter
          (fun r ->
            while Reader.remaining_bits r >= 8 do
              H.Builder.add_edge b (read_edge r)
            done)
          sketches;
        let h = H.Builder.freeze b in
        List.map (fun e -> H.pins h e) (Dgraph.Hmatching.greedy h ()));
  }

type state = { covered : bool array; chosen : int array list }

(* One proposal round: every uncovered vertex nominates its best
   (lowest-priority, then lex-smallest) incident hyperedge whose pins
   are all uncovered; the referee greedily commits disjoint proposals in
   that same order and broadcasts the grown covered set. No proposals
   means every hyperedge already meets a covered vertex — the chosen set
   is a maximal matching. *)
let iterated ~n =
  {
    Rounds.name = "hyper-iterated-mm";
    max_rounds = n + 2;
    init = (fun ~n _coins -> { covered = Array.make n false; chosen = [] });
    player =
      (fun ~round:_ view state coins ->
        let w = Writer.create () in
        let v = view.Hyper_views.vertex in
        if not state.covered.(v) then begin
          let best = ref None in
          Array.iter
            (fun pins ->
              if Array.for_all (fun u -> not state.covered.(u)) pins then begin
                let p = edge_priority coins pins in
                match !best with
                | Some (bp, bpins)
                  when bp < p || (bp = p && compare_pin_arrays bpins pins <= 0) ->
                    ()
                | _ -> best := Some (p, pins)
              end)
            view.Hyper_views.edges;
          match !best with None -> () | Some (_, pins) -> write_edge w pins
        end;
        w);
    referee =
      (fun ~round:_ ~n:_ ~state ~sketches coins ->
        let proposals = ref [] in
        Array.iter
          (fun r ->
            if Reader.remaining_bits r >= 8 then begin
              let pins = read_edge r in
              proposals := (edge_priority coins pins, pins) :: !proposals
            end)
          sketches;
        match !proposals with
        | [] -> Rounds.Finish state
        | ps ->
            let ps =
              List.sort
                (fun (pa, a) (pb, b) ->
                  if pa <> pb then compare pa pb else compare_pin_arrays a b)
                ps
            in
            let covered = Array.copy state.covered in
            let chosen = ref state.chosen in
            List.iter
              (fun (_, pins) ->
                if Array.for_all (fun u -> not covered.(u)) pins then begin
                  Array.iter (fun u -> covered.(u) <- true) pins;
                  chosen := pins :: !chosen
                end)
              ps;
            Rounds.Continue { covered; chosen = !chosen });
    encode_broadcast =
      (fun state ->
        let w = Writer.create () in
        Array.iter (fun c -> Writer.bit w c) state.covered;
        w);
  }

let run_trivial h coins =
  Rounds.run_views (Rounds.one_round trivial) ~n:(H.n h) (Hyper_views.views h) coins

let run_iterated h coins =
  let state, stats = Hyper_views.iterate (iterated ~n:(H.n h)) h coins in
  (List.rev state.chosen, stats)
