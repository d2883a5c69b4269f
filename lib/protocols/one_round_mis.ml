module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

let priority coins v = Stdx.Prng.int (Public_coins.keyed coins "mis-priority" v) (1 lsl 40)

let local_minima =
  {
    Model.name = "one-round-local-minima";
    player =
      (fun view coins ->
        let w = Writer.create () in
        let mine = priority coins view.Model.vertex in
        let beaten =
          Array.exists
            (fun u ->
              let p = priority coins u in
              p < mine || (p = mine && u < view.Model.vertex))
            view.Model.neighbors
        in
        Writer.bit w (not beaten);
        w);
    referee =
      (fun ~n ~sketches _coins ->
        ignore n;
        let out = ref [] in
        Array.iteri (fun v r -> if Reader.bit r then out := v :: !out) sketches;
        List.rev !out);
  }

let undominated_fraction g coins =
  let set, stats = Rounds.run (Rounds.one_round local_minima) g coins in
  let n = Graph.n g in
  let covered = Stdx.Bitset.create n in
  List.iter
    (fun v ->
      Stdx.Bitset.add covered v;
      Graph.iter_neighbors (Stdx.Bitset.add covered) g v)
    set;
  (float_of_int (n - Stdx.Bitset.cardinal covered) /. float_of_int n, stats)

let varint_bits v =
  let rec go v acc = if v < 128 then acc + 8 else go (v lsr 7) (acc + 8) in
  go (max 0 v) 0

let budgeted ~budget_bits =
  {
    Model.name = Printf.sprintf "one-round-mis-b%d" budget_bits;
    player =
      (fun view _coins ->
        let w = Writer.create () in
        (try
           Array.iter
             (fun u ->
               if Writer.length_bits w + varint_bits u > budget_bits then raise Exit;
               Writer.uvarint w u)
             view.Model.neighbors
         with Exit -> ());
        w);
    referee =
      (fun ~n ~sketches _coins ->
        let known = Array.make n [] in
        Array.iteri
          (fun v r ->
            while Reader.remaining_bits r >= 8 do
              let u = Reader.uvarint r in
              if u <> v && u >= 0 && u < n then begin
                known.(v) <- u :: known.(v);
                known.(u) <- v :: known.(u)
              end
            done)
          sketches;
        (* Greedy over the reported graph. *)
        let chosen = Stdx.Bitset.create n in
        let out = ref [] in
        for v = 0 to n - 1 do
          if not (List.exists (Stdx.Bitset.mem chosen) known.(v)) then begin
            Stdx.Bitset.add chosen v;
            out := v :: !out
          end
        done;
        List.rev !out);
  }
