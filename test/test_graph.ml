(* Tests for Dgraph.Graph, Dgraph.Gen and the Dgraph.Columnar freeze
   primitives. *)

module G = Dgraph.Graph
module C = Dgraph.Columnar

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_create_dedup () =
  let g = G.create 4 [ (0, 1); (1, 0); (2, 3); (0, 1) ] in
  checki "n" 4 (G.n g);
  checki "m dedups" 2 (G.m g);
  checkb "edge" true (G.mem_edge g 0 1);
  checkb "reverse" true (G.mem_edge g 1 0);
  checkb "absent" false (G.mem_edge g 0 2)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.normalize_edge: self-loop")
    (fun () -> ignore (G.create 3 [ (1, 1) ]))

let test_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.create: vertex out of range") (fun () ->
      ignore (G.create 3 [ (0, 3) ]))

let test_neighbors_sorted () =
  let g = G.create 5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (G.neighbors g 2);
  checki "degree" 4 (G.degree g 2);
  checki "max degree" 4 (G.max_degree g)

let test_edges_normalized () =
  let g = G.create 4 [ (3, 1); (2, 0) ] in
  Alcotest.(check (array (pair int int)))
    "normalized sorted" [| (0, 2); (1, 3) |] (G.edges_array g)

let test_union () =
  let a = G.create 4 [ (0, 1) ] and b = G.create 4 [ (1, 2); (0, 1) ] in
  let u = G.union a b in
  checki "union size" 2 (G.m u);
  checkb "has both" true (G.mem_edge u 0 1 && G.mem_edge u 1 2)

let test_union_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Graph.union: vertex count mismatch")
    (fun () -> ignore (G.union (G.empty 3) (G.empty 4)))

let test_relabel () =
  let g = G.create 3 [ (0, 1); (1, 2) ] in
  let g' = G.relabel g [| 2; 0; 1 |] in
  checkb "edge (2,0)" true (G.mem_edge g' 2 0);
  checkb "edge (0,1)" true (G.mem_edge g' 0 1);
  checkb "edge (1,2) gone" false (G.mem_edge g' 1 2)

let test_relabel_invalid () =
  let g = G.create 3 [ (0, 1) ] in
  Alcotest.check_raises "not permutation" (Invalid_argument "Graph.relabel: not a permutation")
    (fun () -> ignore (G.relabel g [| 0; 0; 1 |]))

let test_induced () =
  let g = G.create 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let sub, back = G.induced g [ 1; 2; 3 ] in
  checki "sub n" 3 (G.n sub);
  checki "sub m" 2 (G.m sub);
  Alcotest.(check (array int)) "back map" [| 1; 2; 3 |] back

let test_disjoint_union () =
  let a = G.create 2 [ (0, 1) ] and b = G.create 3 [ (0, 2) ] in
  let u = G.disjoint_union a b in
  checki "n" 5 (G.n u);
  checkb "first copy" true (G.mem_edge u 0 1);
  checkb "second copy shifted" true (G.mem_edge u 2 4)

let test_fold_iter_consistency () =
  let g = G.create 6 [ (0, 5); (2, 3); (1, 4) ] in
  let count = G.fold_edges (fun _ _ acc -> acc + 1) g 0 in
  checki "fold counts edges" (G.m g) count;
  let seen = ref [] in
  G.iter_edges (fun u v -> seen := (u, v) :: !seen) g;
  checki "iter counts edges" (G.m g) (List.length !seen);
  List.iter (fun (u, v) -> checkb "normalized" true (u < v)) !seen

(* Generators *)

let test_gen_path_cycle () =
  let p = Dgraph.Gen.path 5 in
  checki "path edges" 4 (G.m p);
  let c = Dgraph.Gen.cycle 5 in
  checki "cycle edges" 5 (G.m c);
  for v = 0 to 4 do
    checki "cycle degree" 2 (G.degree c v)
  done

let test_gen_complete () =
  let g = Dgraph.Gen.complete 6 in
  checki "K6 edges" 15 (G.m g);
  let kb = Dgraph.Gen.complete_bipartite 3 4 in
  checki "K34 edges" 12 (G.m kb);
  let s = Dgraph.Gen.star 5 in
  checki "star edges" 4 (G.m s);
  checki "centre degree" 4 (G.degree s 0)

let test_gen_matchings () =
  let pm = Dgraph.Gen.perfect_matching 4 in
  checki "pm edges" 4 (G.m pm);
  checki "pm n" 8 (G.n pm);
  let dm = Dgraph.Gen.disjoint_matchings ~sizes:[ 2; 3 ] in
  checki "dm n" 10 (G.n dm);
  checki "dm edges" 5 (G.m dm);
  checki "max degree 1" 1 (G.max_degree dm)

let test_gen_gnp_extremes () =
  let rng = Stdx.Prng.create 1 in
  checki "p=0 empty" 0 (G.m (Dgraph.Gen.gnp rng 10 0.));
  checki "p=1 complete" 45 (G.m (Dgraph.Gen.gnp rng 10 1.))

(* G(n, p) draws one Bernoulli per vertex pair, 130,816 at n = 512; with
   allocation-free draws the graph's own arrays are what it allocates
   (about 100 KB), where a boxed generator allocated 24 MB. The minor
   collections make both readings exact. *)
let test_gen_gnp_allocation () =
  let rng = Stdx.Prng.create 8 in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let g = Dgraph.Gen.gnp rng 512 (8. /. 512.) in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  checkb "edges drawn" true (G.m g > 1000);
  checkb (Printf.sprintf "gnp 512 allocated %.0f B, under 256 KB" bytes) true (bytes < 262144.)

(* G(n, 1/2) at n = 1024 adds its ~262k edge keys in ascending order,
   so the freeze skips the radix sort: no copy of the keys, no swap
   buffer, no arena borrow. What remains is the builder's key array and
   the CSR (about 8.4 MB); sorting added the radix buffer and the
   arena's two borrows (12.5 MB in all). *)
let test_ascending_freeze_allocation () =
  let rng = Stdx.Prng.create 8 in
  let arena = Stdx.Scratch.domain () in
  let borrows = (Stdx.Scratch.stats arena).borrows in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let g = Dgraph.Gen.gnp rng 1024 0.5 in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  checkb "edges drawn" true (G.m g > 250_000);
  checki "no arena borrow" 0 ((Stdx.Scratch.stats arena).borrows - borrows);
  checkb (Printf.sprintf "gnp 1024 allocated %.0f B, under 10 MB" bytes) true (bytes < 10485760.)

let test_gen_bipartite () =
  let rng = Stdx.Prng.create 2 in
  let g = Dgraph.Gen.random_bipartite rng ~left:5 ~right:7 ~p:1.0 in
  checki "complete bipartite" 35 (G.m g);
  G.iter_edges (fun u v -> checkb "crosses" true (u < 5 && v >= 5)) g

let test_gen_grid () =
  let g = Dgraph.Gen.grid 3 4 in
  checki "n" 12 (G.n g);
  (* edges: 3*3 horizontal + 2*4 vertical = 17 *)
  checki "m" 17 (G.m g);
  checki "corner degree" 2 (G.degree g 0);
  checki "interior degree" 4 (G.degree g 5);
  let _, comps = Dgraph.Components.components g in
  checki "connected" 1 comps

let test_gen_configuration_model () =
  let rng = Stdx.Prng.create 4 in
  let degrees = [| 3; 3; 2; 2; 1; 1 |] in
  let g = Dgraph.Gen.configuration_model rng ~degrees in
  checki "n" 6 (G.n g);
  (* Self-loops/multi-edges are dropped, so realised <= requested. *)
  Array.iteri (fun v d -> checkb "degree bounded" true (G.degree g v <= d)) degrees;
  Alcotest.check_raises "odd sum rejected"
    (Invalid_argument "Gen.configuration_model: odd degree sum") (fun () ->
      ignore (Dgraph.Gen.configuration_model rng ~degrees:[| 1; 1; 1 |]))

let test_gen_power_law () =
  let rng = Stdx.Prng.create 5 in
  let degrees = Dgraph.Gen.power_law_degrees rng ~n:200 ~exponent:2.5 ~dmax:20 in
  checki "length" 200 (Array.length degrees);
  checkb "even sum" true (Array.fold_left ( + ) 0 degrees mod 2 = 0);
  Array.iter (fun d -> checkb "in range" true (d >= 1 && d <= 20)) degrees;
  (* Heavy tail: degree-1 vertices should dominate degree-10+ ones. *)
  let count p = Array.fold_left (fun acc d -> if p d then acc + 1 else acc) 0 degrees in
  checkb "tail shape" true (count (fun d -> d = 1) > count (fun d -> d >= 10));
  (* And the whole pipeline builds a graph. *)
  let g = Dgraph.Gen.configuration_model rng ~degrees in
  checki "graph size" 200 (G.n g)

let test_gen_bridge () =
  let rng = Stdx.Prng.create 3 in
  let g, (u, v) = Dgraph.Gen.bridge_of_clouds rng ~half:20 ~p:0.4 in
  checki "n" 40 (G.n g);
  checkb "bridge exists" true (G.mem_edge g u v);
  checkb "bridge crosses" true (u < 20 && v >= 20)

let small_graph_gen =
  QCheck.make
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d edges=%d" n (List.length edges))
    QCheck.Gen.(
      int_range 1 20 >>= fun n ->
      list_size (int_range 0 40)
        (pair (int_range 0 (max 0 (n - 1))) (int_range 0 (max 0 (n - 1))))
      >>= fun pairs ->
      let edges = List.filter (fun (u, v) -> u <> v) pairs in
      return (n, edges))

(* Same shape with at most 4 vertices and 4 edges. *)
let tiny_graph_gen =
  QCheck.make
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d edges=%d" n (List.length edges))
    QCheck.Gen.(
      int_range 1 4 >>= fun n ->
      list_size (int_range 0 4) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun pairs -> return (n, List.filter (fun (u, v) -> u <> v) pairs))

(* The list model of a frozen edge set: normalised, unique, sorted. *)
let list_model edges = List.sort_uniq compare (List.map (fun (u, v) -> (min u v, max u v)) edges)

(* Builder / columnar-core unit tests *)

let test_builder_basic () =
  let b = G.Builder.create ~capacity:2 5 in
  checki "n" 5 (G.Builder.n b);
  G.Builder.add_edge b 3 1;
  G.Builder.add_edge b 1 3;
  G.Builder.add_edge b 0 4;
  G.Builder.add_edge b 2 0;
  checki "length pre-dedup" 4 (G.Builder.length b);
  let g = G.Builder.freeze b in
  checki "m dedups" 3 (G.m g);
  checkb "equal to create" true (G.equal g (G.create 5 [ (3, 1); (1, 3); (0, 4); (2, 0) ]))

let test_builder_rejects () =
  let b = G.Builder.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.Builder.add_edge: self-loop")
    (fun () -> G.Builder.add_edge b 1 1);
  Alcotest.check_raises "range" (Invalid_argument "Graph.Builder.add_edge: vertex out of range")
    (fun () -> G.Builder.add_edge b 0 3)

let test_of_edge_array () =
  let g = G.of_edge_array 4 [| (2, 3); (0, 1); (1, 2); (0, 1) |] in
  checkb "equal to create" true (G.equal g (G.create 4 [ (2, 3); (0, 1); (1, 2) ]))

let test_of_sorted_csr_roundtrip () =
  let g = G.create 5 [ (0, 1); (1, 2); (2, 4); (0, 4) ] in
  let row_start = Array.make 6 0 in
  for v = 0 to 4 do
    row_start.(v + 1) <- row_start.(v) + G.degree g v
  done;
  let col = Array.concat (List.init 5 (fun v -> G.neighbors g v)) in
  let g' = G.of_sorted_csr ~n:5 ~row_start ~col in
  checkb "round-trips" true (G.equal g g')

let test_neighbors_owned_copy () =
  let g = G.create 4 [ (0, 1); (0, 2); (0, 3) ] in
  let nbrs = G.neighbors g 0 in
  nbrs.(0) <- 99;
  (* The graph must be unaffected by mutating the returned row copy. *)
  Alcotest.(check (array int)) "fresh copy" [| 1; 2; 3 |] (G.neighbors g 0);
  checkb "edge intact" true (G.mem_edge g 0 1)

let test_neighbor_iterators () =
  let g = G.create 6 [ (2, 0); (2, 5); (2, 3) ] in
  let via_iter = ref [] in
  G.iter_neighbors (fun u -> via_iter := u :: !via_iter) g 2;
  Alcotest.(check (list int)) "iter order" [ 0; 3; 5 ] (List.rev !via_iter);
  checki "fold counts" 3 (G.fold_neighbors (fun _ acc -> acc + 1) g 2 0);
  checki "indexed access" 3 (G.neighbor g 2 1);
  checkb "exists hit" true (G.exists_neighbor (fun u -> u = 5) g 2);
  checkb "exists miss" false (G.exists_neighbor (fun u -> u = 4) g 2);
  checkb "exists empty row" false (G.exists_neighbor (fun _ -> true) g 1)

(* --- Columnar primitives --- *)

let test_sort_keys_small_and_large () =
  let rng = Stdx.Prng.create 17 in
  List.iter
    (fun len ->
      let a = Array.init len (fun _ -> Stdx.Prng.int rng 1_000_000) in
      let b = Array.copy a in
      C.sort_keys a;
      Array.sort compare b;
      Alcotest.(check (array int)) (Printf.sprintf "len %d" len) b a)
    [ 0; 1; 7; 511; 512; 513; 5000 ]

let test_radix_matches_array_sort () =
  let rng = Stdx.Prng.create 19 in
  for _ = 1 to 10 do
    (* Mixed magnitudes force differing radix pass counts. *)
    let len = 512 + Stdx.Prng.int rng 2000 in
    let bits = 1 + Stdx.Prng.int rng 50 in
    let a = Array.init len (fun _ -> Stdx.Prng.int rng (1 lsl bits)) in
    let b = Array.copy a in
    C.radix_sort_nonneg a;
    Array.sort compare b;
    Alcotest.(check (array int)) "radix == Array.sort" b a
  done

let test_csr_of_sorted_keys () =
  let csr ~n keys len =
    let row, col = C.csr_of_sorted_keys ~n keys len in
    (Array.to_list row, Array.to_list col)
  in
  let same = Alcotest.(check (pair (list int) (list int))) in
  (* A 5-path plus a chord, every key repeated, and one stale slot past
     [len] that must be ignored. *)
  let keys = [| 1; 1; 2; 7; 7; 7; 13; 19; 19; 0 |] in
  same "duplicate keys count once"
    ([ 0; 2; 4; 7; 9; 10 ], [ 1; 2; 0; 2; 0; 1; 3; 2; 4; 3 ])
    (csr ~n:5 keys 9);
  same "n = 0" ([ 0 ], []) (csr ~n:0 [||] 0);
  same "n = 1" ([ 0; 0 ], []) (csr ~n:1 [| 0 |] 0);
  (* n^2 - 1 would decode to the self-loop (n-1, n-1), which no freeze
     produces; the largest key of a simple graph is (n-2)*n + (n-1). *)
  List.iter
    (fun n ->
      let key = ((n - 2) * n) + (n - 1) in
      same
        (Printf.sprintf "largest key at n = %d" n)
        (List.init (n + 1) (fun v -> if v <= n - 2 then 0 else v - (n - 2)), [ n - 1; n - 2 ])
        (csr ~n [| key |] 1))
    [ 2; 3; 1000 ]

let test_of_sorted_csr_rejects () =
  let rejects name ~n ~row_start ~col =
    checkb name true
      (match G.of_sorted_csr ~n ~row_start ~col with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  (* Edges {0,1} in row 0 and {0,2} in row 2: right size, not symmetric. *)
  rejects "asymmetric rows" ~n:3 ~row_start:[| 0; 1; 1; 2 |] ~col:[| 1; 0 |];
  rejects "unsorted row" ~n:3 ~row_start:[| 0; 2; 3; 4 |] ~col:[| 2; 1; 0; 0 |];
  rejects "self-loop" ~n:2 ~row_start:[| 0; 2; 2 |] ~col:[| 0; 0 |];
  rejects "out of range" ~n:2 ~row_start:[| 0; 1; 2 |] ~col:[| 2; 0 |]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"m counts edges" ~count:300 small_graph_gen (fun (n, edges) ->
           let g = G.create n edges in
           G.m g = Array.length (G.edges_array g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mem_edge agrees with edges" ~count:200 small_graph_gen
         (fun (n, edges) ->
           let g = G.create n edges in
           Array.for_all (fun (u, v) -> G.mem_edge g u v && G.mem_edge g v u)
             (G.edges_array g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"relabel by inverse is identity" ~count:200
         QCheck.(pair small_graph_gen (int_range 0 1000))
         (fun ((n, edges), seed) ->
           let g = G.create n edges in
           let sigma = Stdx.Prng.permutation (Stdx.Prng.create seed) n in
           let inverse = Array.make n 0 in
           Array.iteri (fun i x -> inverse.(x) <- i) sigma;
           G.equal g (G.relabel (G.relabel g sigma) inverse)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"degree sum is 2m" ~count:300 small_graph_gen (fun (n, edges) ->
           let g = G.create n edges in
           let total = ref 0 in
           for v = 0 to n - 1 do
             total := !total + G.degree g v
           done;
           !total = 2 * G.m g));
    (* Equivalence suite for the columnar constructors: on random edge
       multisets (duplicates, both orientations, unsorted), every build
       path must land on the same frozen graph as [create]. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Builder.freeze equals create" ~count:300 small_graph_gen
         (fun (n, edges) ->
           let b = G.Builder.create ~capacity:1 n in
           List.iter (fun (u, v) -> G.Builder.add_edge b u v) edges;
           G.equal (G.Builder.freeze b) (G.create n edges)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_edge_array equals create" ~count:300 small_graph_gen
         (fun (n, edges) ->
           G.equal (G.of_edge_array n (Array.of_list edges)) (G.create n edges)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"iter_edges/edges_array agree" ~count:300 small_graph_gen
         (fun (n, edges) ->
           let g = G.create n edges in
           let via_iter = List.rev (G.fold_edges (fun u v acc -> (u, v) :: acc) g []) in
           via_iter = Array.to_list (G.edges_array g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"neighbor iterators agree with neighbors" ~count:300 small_graph_gen
         (fun (n, edges) ->
           let g = G.create n edges in
           let ok = ref true in
           for v = 0 to n - 1 do
             let row = G.neighbors g v in
             let via_fold = Array.of_list (List.rev (G.fold_neighbors (fun u acc -> u :: acc) g v [])) in
             if row <> via_fold then ok := false;
             Array.iteri (fun j u -> if G.neighbor g v j <> u then ok := false) row;
             if G.exists_neighbor (fun u -> not (Array.mem u row)) g v then ok := false
           done;
           !ok));
    (* Every construction path must land on the same frozen graph. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"all build paths share one frozen store" ~count:200 small_graph_gen
         (fun (n, edges) ->
           let g = G.create n edges in
           let b = G.Builder.create n in
           List.iter (fun (u, v) -> G.Builder.add_edge b u v) edges;
           G.equal g (G.Builder.freeze b)));
    (* [of_keys] takes the sort-free path when the keys arrive ascending
       and the sort when they do not: the sorted, duplicate-free edge list
       (also with each edge repeated in place) and a shuffle of it with
       repeats and flipped endpoints must freeze to the same graph, through both list and array entry
       points. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ordered and shuffled keys freeze alike" ~count:300
         QCheck.(pair small_graph_gen int)
         (fun ((n, edges), seed) ->
           let sorted = list_model edges in
           let rng = Stdx.Prng.create seed in
           let messy =
             Array.of_list
               (List.concat_map
                  (fun (u, v) ->
                    let e = if Stdx.Prng.bool rng then (u, v) else (v, u) in
                    if Stdx.Prng.bool rng then [ e; (v, u) ] else [ e ])
                  sorted)
           in
           for i = Array.length messy - 1 downto 1 do
             let j = Stdx.Prng.int rng (i + 1) in
             let t = messy.(i) in
             messy.(i) <- messy.(j);
             messy.(j) <- t
           done;
           let g = G.create n sorted in
           G.equal g (G.of_edge_array n (Array.of_list sorted))
           && G.equal g (G.create n (List.concat_map (fun e -> [ e; e ]) sorted))
           && G.equal g (G.create n (Array.to_list messy))
           && G.equal g (G.of_edge_array n messy)
           && G.equal g (G.of_edge_array n (G.edges_array g))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"edge scans match the list model" ~count:300 small_graph_gen
         (fun (n, edges) ->
           let g = G.create n edges in
           let model = list_model edges in
           List.rev (G.fold_edges (fun u v acc -> (u, v) :: acc) g []) = model
           && (let seen = ref [] in
               G.iter_edges (fun u v -> seen := (u, v) :: !seen) g;
               List.rev !seen = model)
           && Array.to_list (G.edges_array g) = model
           && G.m g = List.length model));
    (* Tiny vertex and edge counts, so equal pairs come up often. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"equal iff n and edges match" ~count:500
         QCheck.(pair tiny_graph_gen tiny_graph_gen)
         (fun ((na, ea), (nb, eb)) ->
           let a = G.create na ea and b = G.create nb eb in
           G.equal a b = (na = nb && list_model ea = list_model eb)
           && G.equal a (G.create na (List.rev_map (fun (u, v) -> (v, u)) ea))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_sorted_csr rejects asymmetric rows" ~count:300 small_graph_gen
         (fun (n, edges) ->
           let g = G.create n edges in
           (* Keep only each edge's upper-triangle half-edge. *)
           let rows = List.init n (fun v -> List.filter (fun u -> u > v) (Array.to_list (G.neighbors g v))) in
           let row_start = Array.make (n + 1) 0 in
           List.iteri (fun v r -> row_start.(v + 1) <- row_start.(v) + List.length r) rows;
           let col = Array.of_list (List.concat rows) in
           G.m g = 0
           ||
           match G.of_sorted_csr ~n ~row_start ~col with
           | _ -> false
           | exception Invalid_argument _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"disjoint_union fast path equals create" ~count:200
         QCheck.(pair small_graph_gen small_graph_gen)
         (fun ((na, ea), (nb, eb)) ->
           let a = G.create na ea and b = G.create nb eb in
           let reference =
             G.create (na + nb) (ea @ List.map (fun (u, v) -> (u + na, v + na)) eb)
           in
           G.equal (G.disjoint_union a b) reference));
  ]

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "create dedup" `Quick test_create_dedup;
          Alcotest.test_case "self loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edges normalized" `Quick test_edges_normalized;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "union mismatch" `Quick test_union_mismatch;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "relabel invalid" `Quick test_relabel_invalid;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "fold/iter consistency" `Quick test_fold_iter_consistency;
        ] );
      ( "builder",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "builder rejects" `Quick test_builder_rejects;
          Alcotest.test_case "of_edge_array" `Quick test_of_edge_array;
          Alcotest.test_case "of_sorted_csr round-trip" `Quick test_of_sorted_csr_roundtrip;
          Alcotest.test_case "of_sorted_csr rejects" `Quick test_of_sorted_csr_rejects;
          Alcotest.test_case "neighbors owned copy" `Quick test_neighbors_owned_copy;
          Alcotest.test_case "neighbor iterators" `Quick test_neighbor_iterators;
        ] );
      ( "generators",
        [
          Alcotest.test_case "path/cycle" `Quick test_gen_path_cycle;
          Alcotest.test_case "complete" `Quick test_gen_complete;
          Alcotest.test_case "matchings" `Quick test_gen_matchings;
          Alcotest.test_case "gnp extremes" `Quick test_gen_gnp_extremes;
          Alcotest.test_case "gnp allocation" `Quick test_gen_gnp_allocation;
          Alcotest.test_case "ascending freeze allocation" `Quick test_ascending_freeze_allocation;
          Alcotest.test_case "bipartite" `Quick test_gen_bipartite;
          Alcotest.test_case "grid" `Quick test_gen_grid;
          Alcotest.test_case "configuration model" `Quick test_gen_configuration_model;
          Alcotest.test_case "power law" `Quick test_gen_power_law;
          Alcotest.test_case "bridge" `Quick test_gen_bridge;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "sort_keys all sizes" `Quick test_sort_keys_small_and_large;
          Alcotest.test_case "radix == Array.sort" `Quick test_radix_matches_array_sort;
          Alcotest.test_case "csr_of_sorted_keys" `Quick test_csr_of_sorted_keys;
        ] );
      ("graph-properties", qcheck_tests);
    ]
