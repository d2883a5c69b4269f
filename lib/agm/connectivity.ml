module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module SF = Spanning_forest
module L0 = Linear_sketch.L0_sampler
module Graph = Dgraph.Graph

type certificate = { forests : Graph.edge list array; union : Graph.t }

let forest_coins coins j = Public_coins.derive coins "agm-kforest" j

let forests_player config ~n ~k (view : Model.view) coins =
  let w = Stdx.Bitbuf.Writer.create () in
  let arena = Stdx.Scratch.domain () in
  for j = 0 to k - 1 do
    (* One arena key for all k stacks: stack j is serialised before the
       borrow for stack j+1 invalidates it. *)
    let params = SF.sampler_params config ~n (forest_coins coins j) in
    let stack = SF.scratch_stack arena "conn.forests-player" params in
    Array.iter
      (fun u -> SF.stack_update ~n stack view.Model.vertex u ~weight:1)
      view.Model.neighbors;
    Array.iter (fun s -> L0.write s w) stack
  done;
  w

let forests_referee config ~n ~k ~sketches coins =
  let arena = Stdx.Scratch.domain () in
  let forests = Array.make k [] in
  for j = 0 to k - 1 do
    (* Stacks are serialised j = 0 .. k-1, so forest j's stack is next
       on every reader: parse it only now, into one borrow that all k
       forests share (forest j-1's stacks are dead once it is decoded). *)
    let params = SF.sampler_params config ~n (forest_coins coins j) in
    let sw = SF.stack_words params in
    let buf = Stdx.Scratch.dirty_ints arena "conn.forests-referee" (Array.length sketches * sw) in
    let stacks_j = Array.mapi (fun v r -> SF.read_stack_into params buf (v * sw) r) sketches in
    (* Peel: subtract forests 0..j-1 from stack j before decoding it —
       pure referee-side linear algebra, no player involvement. *)
    for prior = 0 to j - 1 do
      List.iter
        (fun (u, v) ->
          SF.stack_update ~n stacks_j.(u) u v ~weight:(-1);
          SF.stack_update ~n stacks_j.(v) v u ~weight:(-1))
        forests.(prior)
    done;
    forests.(j) <- SF.decode_forest ~n ~per_vertex:stacks_j
  done;
  let union =
    let b = Graph.Builder.create ~capacity:(max 1 (k * n)) n in
    Array.iter (List.iter (fun (u, v) -> Graph.Builder.add_edge b u v)) forests;
    Graph.Builder.freeze b
  in
  { forests; union }

let forests_protocol ?(config = SF.default_config) ~n ~k () =
  if k < 1 then invalid_arg "Connectivity.forests_protocol: k";
  {
    Model.name = Printf.sprintf "agm-%d-forests" k;
    player = (fun view coins -> forests_player config ~n ~k view coins);
    referee = (fun ~n ~sketches coins -> forests_referee config ~n ~k ~sketches coins);
  }

let k_forests ?(config = SF.default_config) g ~k coins =
  Rounds.run (Rounds.one_round (forests_protocol ~config ~n:(Graph.n g) ~k ())) g coins

let certificate_valid g ~k cert =
  Array.length cert.forests = k
  &&
  let seen = Hashtbl.create 256 in
  let disjoint =
    Array.for_all
      (fun forest ->
        List.for_all
          (fun e ->
            if Hashtbl.mem seen e then false
            else begin
              Hashtbl.replace seen e ();
              true
            end)
          forest)
      cert.forests
  in
  disjoint
  &&
  (* F_j must be a spanning forest of G minus the earlier forests. *)
  let removed = Hashtbl.create 256 in
  let ok = ref true in
  Array.iter
    (fun forest ->
      let residual =
        let b = Graph.Builder.create ~capacity:(max 1 (Graph.m g)) (Graph.n g) in
        Graph.iter_edges
          (fun u v -> if not (Hashtbl.mem removed (u, v)) then Graph.Builder.add_edge b u v)
          g;
        Graph.Builder.freeze b
      in
      if not (Dgraph.Components.is_spanning_forest residual forest) then ok := false;
      List.iter (fun e -> Hashtbl.replace removed e ()) forest)
    cert.forests;
  !ok

let edge_connectivity_estimate cert ~k =
  let label, count = Dgraph.Components.components cert.union in
  ignore label;
  if count > 1 then 0 else min k (Dgraph.Mincut.min_cut cert.union)

(* --- bipartiteness via the double cover --- *)

(* Vertex v holds both cover copies v and n+v; edge (v, u) becomes
   (v, n+u) and (n+v, u), applied directly below — no intermediate
   pair lists. *)

let bipartiteness_player config ~n (view : Model.view) coins =
  let w = Stdx.Bitbuf.Writer.create () in
  let arena = Stdx.Scratch.domain () in
  let v = view.Model.vertex in
  (* Stack on G itself (for the component count of G)... *)
  let g_params = SF.sampler_params config ~n (Public_coins.derive coins "agm-bip-g" 0) in
  let g_stack = SF.scratch_stack arena "conn.bip-g" g_params in
  Array.iter (fun u -> SF.stack_update ~n g_stack v u ~weight:1) view.Model.neighbors;
  Array.iter (fun s -> L0.write s w) g_stack;
  (* ...and the two double-cover copies this vertex simulates (the same
     arena key twice: the first copy is serialised before the second
     borrow resets it). *)
  let cover_params =
    SF.sampler_params config ~n:(2 * n) (Public_coins.derive coins "agm-bip-cover" 0)
  in
  let low = SF.scratch_stack arena "conn.bip-cover" cover_params in
  Array.iter (fun u -> SF.stack_update ~n:(2 * n) low v (n + u) ~weight:1) view.Model.neighbors;
  Array.iter (fun s -> L0.write s w) low;
  let high = SF.scratch_stack arena "conn.bip-cover" cover_params in
  Array.iter (fun u -> SF.stack_update ~n:(2 * n) high (n + v) u ~weight:1) view.Model.neighbors;
  Array.iter (fun s -> L0.write s w) high;
  w

let bipartiteness_referee config ~n ~sketches coins =
  let g_params = SF.sampler_params config ~n (Public_coins.derive coins "agm-bip-g" 0) in
  let cover_params =
    SF.sampler_params config ~n:(2 * n) (Public_coins.derive coins "agm-bip-cover" 0)
  in
  let gw = SF.stack_words g_params and cw = SF.stack_words cover_params in
  (* Each message is its G stack, then its two cover stacks. Parse and
     decode the G stacks first; only then parse the 2n cover stacks, into
     the same borrow (the G stacks are dead by then). *)
  let buf =
    Stdx.Scratch.dirty_ints (Stdx.Scratch.domain ()) "conn.bip-referee" (n * max gw (2 * cw))
  in
  let g_stacks = Array.mapi (fun v r -> SF.read_stack_into g_params buf (v * gw) r) sketches in
  let g_components = n - List.length (SF.decode_forest ~n ~per_vertex:g_stacks) in
  let cover_stacks = Array.make (2 * n) [||] in
  Array.iteri
    (fun v r ->
      cover_stacks.(v) <- SF.read_stack_into cover_params buf (v * cw) r;
      cover_stacks.(n + v) <- SF.read_stack_into cover_params buf ((n + v) * cw) r)
    sketches;
  let cover_components =
    (2 * n) - List.length (SF.decode_forest ~n:(2 * n) ~per_vertex:cover_stacks)
  in
  cover_components = 2 * g_components

let bipartiteness_protocol ?(config = SF.default_config) ~n () =
  {
    Model.name = "agm-bipartiteness";
    player = (fun view coins -> bipartiteness_player config ~n view coins);
    referee = (fun ~n ~sketches coins -> bipartiteness_referee config ~n ~sketches coins);
  }

let is_bipartite_via_sketches ?(config = SF.default_config) g coins =
  Rounds.run (Rounds.one_round (bipartiteness_protocol ~config ~n:(Graph.n g) ())) g coins

let is_bipartite_exact g =
  let n = Graph.n g in
  let color = Array.make n (-1) in
  let queue = Queue.create () in
  let ok = ref true in
  for start = 0 to n - 1 do
    if color.(start) = -1 then begin
      color.(start) <- 0;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Graph.iter_neighbors
          (fun u ->
            if color.(u) = -1 then begin
              color.(u) <- 1 - color.(v);
              Queue.add u queue
            end
            else if color.(u) = color.(v) then ok := false)
          g v
      done
    end
  done;
  !ok
