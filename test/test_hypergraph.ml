(* Tests for Dgraph.Hypergraph (its builder's sort + dedup + incidence
   freeze, checked against a list model, and the stored pins segments and
   incidence index), Hgen, Hmatching and Hmis. *)

module H = Dgraph.Hypergraph
module G = Dgraph.Graph
module HM = Dgraph.Hmatching
module HI = Dgraph.Hmis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Construction and normalisation --- *)

let test_create_normalizes () =
  let h = H.create 6 [ [ 4; 2; 0 ]; [ 2; 0; 4 ]; [ 1; 5; 1 ]; [ 3; 2 ] ] in
  checki "n" 6 (H.n h);
  (* {0,2,4} twice collapses; {1,1,5} collapses its duplicate pin. *)
  checki "m dedups" 3 (H.m h);
  Alcotest.(check (array int)) "pins sorted" [| 0; 2; 4 |] (H.pins h 0);
  Alcotest.(check (array int)) "dup pin collapsed" [| 1; 5 |] (H.pins h 1);
  checki "arity" 3 (H.arity h 0);
  checki "max arity" 3 (H.max_arity h)

let test_rejects () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "out of range" (fun () -> H.create 3 [ [ 0; 3 ] ]);
  raises "negative" (fun () -> H.create 3 [ [ -1; 2 ] ]);
  raises "singleton" (fun () -> H.create 3 [ [ 1 ] ]);
  raises "self-loop analogue" (fun () -> H.create 3 [ [ 2; 2 ] ])

let test_edge_order_lexicographic () =
  let h = H.create 5 [ [ 1; 2; 3 ]; [ 0; 4 ]; [ 1; 2 ]; [ 0; 1; 2 ] ] in
  let pin_lists = List.init (H.m h) (fun e -> Array.to_list (H.pins h e)) in
  Alcotest.(check (list (list int)))
    "lex order, shorter prefix first"
    [ [ 0; 1; 2 ]; [ 0; 4 ]; [ 1; 2 ]; [ 1; 2; 3 ] ]
    pin_lists

let test_incidence () =
  let h = H.create 5 [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 0; 4 ] ] in
  checki "degree 1" 2 (H.degree h 1);
  checki "degree 4" 1 (H.degree h 4);
  (* Frozen order: [0;1;2] < [0;4] < [1;2;3]. *)
  Alcotest.(check (array int)) "incident 0" [| 0; 1 |] (H.incident h 0);
  Alcotest.(check (array int)) "incident 2" [| 0; 2 |] (H.incident h 2);
  let via_iter = ref [] in
  H.iter_incident (fun e -> via_iter := e :: !via_iter) h 2;
  Alcotest.(check (list int)) "iter matches" [ 0; 2 ] (List.rev !via_iter);
  checki "fold counts" 2 (H.fold_incident (fun _ acc -> acc + 1) h 2 0);
  checkb "exists" true (H.exists_incident (fun e -> e = 2) h 2)

let test_find_edge () =
  let h = H.create 6 [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 2; 4; 5 ] ] in
  (* Frozen lex order: 0={0,1,2}, 1={2,4,5}, 2={3,4}. *)
  checkb "hit, any pin order" true (H.find_edge h [| 4; 2; 5 |] = Some 1);
  checkb "mem" true (H.mem_edge h [| 3; 4 |]);
  checkb "miss" true (H.find_edge h [| 0; 1 |] = None);
  checkb "miss superset" true (H.find_edge h [| 0; 1; 2; 3 |] = None)

let test_of_graph_embedding () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 5) 20 0.2 in
  let h = H.of_graph g in
  checki "same n" (G.n g) (H.n h);
  checki "same m" (G.m g) (H.m h);
  checkb "2-uniform" true (H.max_arity h <= 2);
  G.iter_edges (fun u v -> checkb "edge present" true (H.mem_edge h [| u; v |])) g;
  (* Graph CSR and hypergraph incidence agree vertex by vertex. *)
  for v = 0 to G.n g - 1 do
    checki "degree" (G.degree g v) (H.degree h v)
  done

(* gnp n = 512, p = 8/n: about 2,000 edges. [of_graph] adds them in
   lexicographic order, so the freeze skips the row sort, and the row
   comparison is a loop that allocates nothing. A comparison that
   captured its rows in a closure allocated 2.87 MB here; the rows,
   the pins CSR and the incidence index take about 0.8 MB. The same
   edges added in reverse take the sort and freeze to an equal
   hypergraph. *)
let test_of_graph_allocation () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 3) 512 (8. /. 512.) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let h = H.of_graph g in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  checki "every edge" (G.m g) (H.m h);
  checkb (Printf.sprintf "of_graph allocated %.0f B, under 1.5 MB" bytes) true (bytes < 1572864.);
  let reversed = Array.of_list (G.fold_edges (fun u v acc -> [| v; u |] :: acc) g []) in
  checkb "sorted freeze equals the unsorted one" true (H.equal h (H.of_edge_array 512 reversed))

let test_pins_owned_copy () =
  let h = H.create 4 [ [ 0; 1; 2 ] ] in
  let pins = H.pins h 0 in
  pins.(0) <- 99;
  Alcotest.(check (array int)) "fresh copy" [| 0; 1; 2 |] (H.pins h 0)

let test_equal () =
  let a = H.create 4 [ [ 0; 1 ]; [ 1; 2; 3 ] ] in
  let b = H.create 4 [ [ 3; 2; 1 ]; [ 1; 0 ]; [ 0; 1 ] ] in
  checkb "same edge set" true (H.equal a b);
  checkb "different n" false (H.equal a (H.create 5 [ [ 0; 1 ]; [ 1; 2; 3 ] ]));
  checkb "different edges" false (H.equal a (H.create 4 [ [ 0; 1 ] ]))

let test_builder () =
  let b = H.Builder.create ~capacity:1 5 in
  checki "n" 5 (H.Builder.n b);
  H.Builder.add_edge b [| 2; 1 |];
  H.Builder.add_edge b [| 1; 2 |];
  H.Builder.add_edge b [| 0; 3; 4 |];
  checki "length pre-dedup" 3 (H.Builder.length b);
  let h = H.Builder.freeze b in
  checkb "equals create" true (H.equal h (H.create 5 [ [ 1; 2 ]; [ 0; 3; 4 ] ]))

(* --- The stored columns: pins segments and the incidence index --- *)

(* Duplicate rows collapse and the segments come out in lexicographic
   order with a shorter prefix first, read back through [arity] and
   [pin] (the segment row in place), not through the owned [pins] copy. *)
let test_store_variable_pipeline () =
  let b = H.Builder.create 5 in
  List.iter
    (fun pins -> H.Builder.add_edge b (Array.of_list pins))
    [ [ 1; 2; 4 ]; [ 0; 3 ]; [ 1; 2 ]; [ 4; 2; 1 ]; [ 0; 1 ] ];
  let h = H.Builder.freeze b in
  checki "dedup count" 4 (H.m h);
  let seg e = List.init (H.arity h e) (H.pin h e) in
  Alcotest.(check (list (list int)))
    "lex order, shorter prefix first"
    [ [ 0; 1 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 2; 4 ] ]
    (List.init (H.m h) seg)

(* The incidence index is the transpose of the pins segments: [e] is in
   [incident v] exactly when [v] is a pin of [e], ascending, with
   [degree v] entries. *)
let test_store_incidence_segments () =
  let rng = Stdx.Prng.create 13 in
  for _ = 1 to 20 do
    let n = 2 + Stdx.Prng.int rng 8 in
    let rows =
      List.filter
        (fun pins -> List.length pins >= 2)
        (List.init (Stdx.Prng.int rng 15) (fun _ ->
             List.filter (fun _ -> Stdx.Prng.int rng 3 = 0) (List.init n Fun.id)))
    in
    let h = H.create n rows in
    for v = 0 to n - 1 do
      let inc = H.incident h v in
      checki "degree = incident length" (Array.length inc) (H.degree h v);
      for j = 1 to Array.length inc - 1 do
        checkb "incident ascending" true (inc.(j - 1) < inc.(j))
      done;
      for e = 0 to H.m h - 1 do
        checkb "segment incidence"
          (H.exists_pin (fun p -> p = v) h e)
          (Array.mem e inc)
      done
    done
  done

(* --- Freeze against a list model --- *)

(* Random pin multisets over n in [2, 12]: unsorted, with repeated pins,
   and with some hyperedges added twice (in another pin order). A
   multiset with fewer than two distinct pins is dropped, since the
   builder rejects it. *)
let pin_multisets_gen =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; "
           (List.map (fun pins -> String.concat "," (List.map string_of_int pins)) edges)))
    QCheck.Gen.(
      int_range 2 12 >>= fun n ->
      list_size (int_range 0 25) (list_size (int_range 2 6) (int_range 0 (n - 1)))
      >>= fun raw ->
      let raw = List.filter (fun pins -> List.length (List.sort_uniq compare pins) >= 2) raw in
      (match raw with [] -> return [] | _ -> list_size (int_range 0 5) (oneofl raw))
      >>= fun again -> return (n, raw @ List.map List.rev again))

(* The model: edges are the sorted-unique normalised pin lists (OCaml's
   list order is lexicographic with a shorter prefix first), and
   [incident v] is the ascending ids of the edges that contain [v]. *)
let freeze_matches_model (n, edges) =
  let b = H.Builder.create n in
  List.iter (fun pins -> H.Builder.add_edge b (Array.of_list pins)) edges;
  let added = H.Builder.length b in
  let h = H.Builder.freeze b in
  let model = List.sort_uniq compare (List.map (List.sort_uniq compare) edges) in
  let incident v = List.concat (List.mapi (fun e pins -> if List.mem v pins then [ e ] else []) model) in
  added = List.length edges
  && H.n h = n
  && H.m h = List.length model
  && List.init (H.m h) (fun e -> Array.to_list (H.pins h e)) = model
  && List.for_all
       (fun v -> Array.to_list (H.incident h v) = incident v && H.degree h v = List.length (incident v))
       (List.init n Fun.id)

(* --- Generators --- *)

let test_gen_uniform () =
  let rng = Stdx.Prng.create 7 in
  let h = Dgraph.Hgen.uniform_random rng ~n:30 ~m:25 ~k:4 in
  checki "n" 30 (H.n h);
  checkb "m bounded" true (H.m h <= 25 && H.m h > 0);
  H.iter_edges (fun e -> checki "k-uniform" 4 (H.arity h e)) h

let test_gen_random_arity () =
  let rng = Stdx.Prng.create 8 in
  let h = Dgraph.Hgen.random_arity rng ~n:30 ~m:20 ~kmin:2 ~kmax:5 in
  H.iter_edges
    (fun e -> checkb "arity in range" true (H.arity h e >= 2 && H.arity h e <= 5))
    h

let test_gen_blocks () =
  let h = Dgraph.Hgen.blocks ~n:12 ~k:3 in
  checki "blocks" 4 (H.m h);
  checkb "greedy takes all" true (HM.size (HM.greedy h ()) = 4)

let test_gen_sunflower () =
  let h = Dgraph.Hgen.sunflower ~petals:5 ~core:2 ~petal:3 in
  checki "petals" 5 (H.m h);
  checki "n = core + petals*petal" 17 (H.n h);
  (* Any two petals share the core, so every maximal matching is one edge. *)
  checki "matching size 1" 1 (HM.size (HM.greedy h ()))

let test_gen_tight_path () =
  let h = Dgraph.Hgen.tight_path ~n:10 ~k:3 in
  checki "windows" 8 (H.m h);
  H.iter_edges (fun e -> checki "width" 3 (H.arity h e)) h

(* --- Hmatching --- *)

let test_matching_verdicts () =
  let h = H.create 8 [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 5; 6; 7 ]; [ 2; 3 ] ] in
  (* Frozen lex order: 0={0,1,2}, 1={2,3}, 2={3,4,5}, 3={5,6,7}. *)
  let v = HM.verify h [ 0; 2 ] in
  checkb "exists" true v.HM.edges_exist;
  checkb "disjoint" true v.HM.disjoint;
  (* {2,3} and {5,6,7} both meet a covered vertex. *)
  checkb "maximal" true v.HM.maximal;
  let v = HM.verify h [ 0; 1 ] in
  checkb "overlap caught" false v.HM.disjoint;
  let v = HM.verify h [ 99 ] in
  checkb "fabricated edge" false v.HM.edges_exist;
  let v = HM.verify h [ 0 ] in
  checkb "not maximal" false v.HM.maximal

let test_matching_greedy_random () =
  let rng = Stdx.Prng.create 21 in
  for seed = 1 to 15 do
    let n = 8 + Stdx.Prng.int rng 20 in
    let h =
      Dgraph.Hgen.random_arity (Stdx.Prng.create seed) ~n ~m:(2 * n) ~kmin:2
        ~kmax:(min 5 n)
    in
    let m = HM.greedy h () in
    checkb "greedy maximal" true (HM.is_maximal h m);
    let order = Stdx.Prng.permutation rng (H.m h) in
    checkb "permuted greedy maximal" true (HM.is_maximal h (HM.greedy h ~order ()))
  done

let test_augment_to_maximal () =
  let h = Dgraph.Hgen.blocks ~n:12 ~k:3 in
  let m = HM.augment_to_maximal h [ 1; 99; 1 ] in
  checkb "maximal after augment" true (HM.is_maximal h m);
  checkb "keeps the valid seed edge" true (List.mem 1 m)

(* --- Hmis --- *)

let test_mis_verdicts () =
  let h = H.create 5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  (* {0,1,3} contains no full hyperedge; every outside vertex blocked? *)
  let v = HI.verify h [ 0; 1; 3 ] in
  checkb "independent" true v.HI.independent;
  (* 2 completes {0,1,2}? yes (0,1 in S). 4 completes {3,4}? yes. *)
  checkb "maximal" true v.HI.maximal;
  let v = HI.verify h [ 2; 3 ] in
  checkb "contains edge {2,3}" false v.HI.independent;
  let v = HI.verify h [ 0; 1 ] in
  checkb "not maximal (4 free)" false v.HI.maximal

let test_mis_weak_sense () =
  (* In the weak sense a proper subset of a hyperedge is independent:
     {0,1} sits inside {0,1,2} without completing it. *)
  let h = H.create 3 [ [ 0; 1; 2 ] ] in
  checkb "proper subset ok" true (HI.is_independent h [ 0; 1 ]);
  checkb "full edge not ok" false (HI.is_independent h [ 0; 1; 2 ]);
  checkb "maximal" true (HI.is_maximal h [ 0; 1 ])

let test_mis_greedy_random () =
  let rng = Stdx.Prng.create 23 in
  for seed = 1 to 15 do
    let n = 8 + Stdx.Prng.int rng 20 in
    let h =
      Dgraph.Hgen.random_arity (Stdx.Prng.create (100 + seed)) ~n ~m:(2 * n) ~kmin:2
        ~kmax:(min 5 n)
    in
    let s = HI.greedy h () in
    checkb "greedy maximal" true (HI.is_maximal h s);
    let order = Stdx.Prng.permutation rng n in
    checkb "permuted greedy maximal" true (HI.is_maximal h (HI.greedy h ~order ()))
  done

let test_mis_coincides_with_graph_mis () =
  (* On the 2-uniform embedding, hypergraph MIS == graph MIS. *)
  let rng = Stdx.Prng.create 29 in
  for seed = 1 to 10 do
    let g = Dgraph.Gen.gnp (Stdx.Prng.create (200 + seed)) (10 + Stdx.Prng.int rng 20) 0.25 in
    let h = H.of_graph g in
    let s = Dgraph.Mis.greedy g () in
    checkb "graph MIS independent on h" true (HI.is_independent h s);
    checkb "graph MIS maximal on h" true (HI.is_maximal h s);
    let sh = HI.greedy h () in
    checkb "h MIS maximal on g" true (Dgraph.Mis.is_maximal g sh)
  done

let () =
  Alcotest.run "hypergraph"
    [
      ( "hypergraph",
        [
          Alcotest.test_case "create normalizes" `Quick test_create_normalizes;
          Alcotest.test_case "rejects" `Quick test_rejects;
          Alcotest.test_case "lexicographic order" `Quick test_edge_order_lexicographic;
          Alcotest.test_case "incidence" `Quick test_incidence;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "of_graph embedding" `Quick test_of_graph_embedding;
          Alcotest.test_case "of_graph allocation" `Quick test_of_graph_allocation;
          Alcotest.test_case "pins owned copy" `Quick test_pins_owned_copy;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "builder" `Quick test_builder;
        ] );
      ( "store",
        [
          Alcotest.test_case "variable pipeline" `Quick test_store_variable_pipeline;
          Alcotest.test_case "incidence of segments" `Quick test_store_incidence_segments;
        ] );
      ( "hypergraph-properties",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"freeze equals the list model" ~count:300 pin_multisets_gen
               freeze_matches_model);
          (* Rows added already in lexicographic order, duplicates
             adjacent: the freeze skips its sort and must still match. *)
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"ordered rows skip the sort, same freeze" ~count:300
               pin_multisets_gen (fun (n, edges) ->
                 freeze_matches_model (n, List.sort compare (List.map (List.sort_uniq compare) edges))));
        ] );
      ( "generators",
        [
          Alcotest.test_case "uniform" `Quick test_gen_uniform;
          Alcotest.test_case "random arity" `Quick test_gen_random_arity;
          Alcotest.test_case "blocks" `Quick test_gen_blocks;
          Alcotest.test_case "sunflower" `Quick test_gen_sunflower;
          Alcotest.test_case "tight path" `Quick test_gen_tight_path;
        ] );
      ( "matching",
        [
          Alcotest.test_case "verdicts" `Quick test_matching_verdicts;
          Alcotest.test_case "greedy random" `Quick test_matching_greedy_random;
          Alcotest.test_case "augment to maximal" `Quick test_augment_to_maximal;
        ] );
      ( "mis",
        [
          Alcotest.test_case "verdicts" `Quick test_mis_verdicts;
          Alcotest.test_case "weak sense" `Quick test_mis_weak_sense;
          Alcotest.test_case "greedy random" `Quick test_mis_greedy_random;
          Alcotest.test_case "coincides with graph mis" `Quick test_mis_coincides_with_graph_mis;
        ] );
    ]
