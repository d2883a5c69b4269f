module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Graph = Dgraph.Graph
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type outcome = { coloring : int array option; conflict_edges : int }

(* L(v) is a deterministic function of the public coins and v, so every
   player (and the referee) can recompute anyone's list for free. Lists
   are sorted int arrays: short (O(log n)), so the distinct test is a
   scan of the colours drawn so far. *)
let list_of coins ~delta ~list_size v =
  let rng = Public_coins.keyed coins "palette" v in
  (* Distinct colors; list_size is far below delta + 1 in the interesting
     regime, but cap defensively. *)
  let target = min list_size (delta + 1) in
  let out = Array.make target 0 in
  let len = ref 0 in
  while !len < target do
    let c = Stdx.Prng.int rng (delta + 1) in
    let fresh = ref true in
    for i = 0 to !len - 1 do
      if out.(i) = c then fresh := false
    done;
    if !fresh then begin
      out.(!len) <- c;
      incr len
    end
  done;
  Array.sort compare out;
  out

(* Merge test on two ascending arrays. Top-level and closure-free, so it
   allocates nothing: it runs once per (player, neighbour) pair. *)
let rec intersect_from a b i j =
  i < Array.length a
  && j < Array.length b
  && (a.(i) = b.(j)
     || if a.(i) < b.(j) then intersect_from a b (i + 1) j else intersect_from a b i (j + 1))

let lists_intersect a b = intersect_from a b 0 0

let player ~list_fn (view : Model.view) =
  let w = Writer.create () in
  let own = list_fn view.Model.vertex in
  let nbrs = view.Model.neighbors in
  let conflicts = Array.make (Array.length nbrs) 0 in
  let k = ref 0 in
  Array.iter
    (fun u ->
      if lists_intersect own (list_fn u) then begin
        conflicts.(!k) <- u;
        incr k
      end)
    nbrs;
  Writer.int_array w (Array.sub conflicts 0 !k);
  w

(* Greedy list colouring in [order]: each vertex takes the smallest
   colour of its list that no coloured conflict neighbour holds. [seen]
   marks the neighbours' colours with a stamp unique to this (attempt,
   vertex), so it is never reset. *)
let try_color ~n ~list_fn ~seen ~stamp conflict_adj order =
  let colors = Array.make n (-1) in
  let ok = ref true in
  Array.iter
    (fun v ->
      if !ok then begin
        incr stamp;
        Array.iter (fun u -> if colors.(u) >= 0 then seen.(colors.(u)) <- !stamp) conflict_adj.(v);
        let lv = list_fn v in
        let rec first i =
          if i = Array.length lv then ok := false
          else if seen.(lv.(i)) = !stamp then first (i + 1)
          else colors.(v) <- lv.(i)
        in
        first 0
      end)
    order;
  if !ok then Some colors else None

let referee ~list_fn ~delta ~restarts ~n ~sketches coins =
  let edge_count = ref 0 in
  let conflict_adj =
    Array.init n (fun v ->
        let reported = Reader.int_array sketches.(v) in
        let ok u = u >= 0 && u < n && u <> v in
        let valid =
          if Array.for_all ok reported then reported
          else Array.of_seq (Seq.filter ok (Array.to_seq reported))
        in
        (* Count each conflict edge once (it is reported by both
           endpoints). *)
        Array.iter (fun u -> if v < u then incr edge_count) valid;
        valid)
  in
  let seen = Array.make (delta + 1) 0 and stamp = ref 0 in
  let rec attempt i =
    if i >= restarts then None
    else begin
      let rng = Public_coins.keyed coins "palette-order" i in
      let order = Stdx.Prng.permutation rng n in
      match try_color ~n ~list_fn ~seen ~stamp conflict_adj order with
      | Some colors -> Some colors
      | None -> attempt (i + 1)
    end
  in
  { coloring = attempt 0; conflict_edges = !edge_count }

let protocol ~n ~delta ~list_size ~restarts =
  (* One list table per protocol instantiation and coin seed, indexed by
     vertex (an empty slot is not drawn yet); a fresh protocol value is
     made per run, so this is one table in practice. *)
  let tables : (int * int array array) list ref = ref [] in
  let list_fn coins =
    let key = Public_coins.seed coins in
    let table =
      match List.assoc_opt key !tables with
      | Some t -> t
      | None ->
          let t = Array.make n [||] in
          tables := (key, t) :: !tables;
          t
    in
    fun v ->
      if v < 0 || v >= n then list_of coins ~delta ~list_size v
      else begin
        if Array.length table.(v) = 0 then table.(v) <- list_of coins ~delta ~list_size v;
        table.(v)
      end
  in
  {
    Model.name = "palette-sparsification";
    player = (fun view coins -> player ~list_fn:(list_fn coins) view);
    referee =
      (fun ~n ~sketches coins ->
        referee ~list_fn:(list_fn coins) ~delta ~restarts ~n ~sketches coins);
  }

let run g ?list_size ?(restarts = 10) coins =
  let n = Graph.n g in
  let delta = max 1 (Graph.max_degree g) in
  let list_size =
    match list_size with
    | Some s -> s
    | None -> int_of_float (ceil (4. *. log (float_of_int (n + 1)))) + 4
  in
  Rounds.run (Rounds.one_round (protocol ~n ~delta ~list_size ~restarts)) g coins

let is_proper g colors =
  Array.length colors = Graph.n g
  && Array.for_all (fun c -> c >= 0) colors
  && Graph.fold_edges (fun u v acc -> acc && colors.(u) <> colors.(v)) g true

let max_color colors = Array.fold_left max 0 colors
