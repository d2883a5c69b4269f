(* A tour of what one-round sketches CAN do — the landscape the paper's
   introduction paints before proving maximal matching and MIS are the
   exceptions.

   1. Footnote 1, verbatim: two random clouds joined by one bridge edge;
      the referee pins down the bridge from O(log n)-bit sketches using
      sampled edges plus the telescoping sum trick.
   2. Connectivity / component counting via AGM sketches.
   3. The two-round adaptive escape hatch: with one extra round, maximal
      matching and MIS drop to Otilde(sqrt n) bits per player.
   4. The k-uniform generalisation: hypergraph maximal matching through
      the same model, one-round trivial vs multi-round proposals.

   Run with: dune exec examples/sketch_gallery.exe
   Pass `--trace out.json` to export a Chrome trace_event file: every
   numbered section is an [example.*] span, with the [protocol.round]
   spans of sections 3 and 4 nested inside. *)

let trace_out =
  match Array.to_list Sys.argv with _ :: "--trace" :: path :: _ -> Some path | _ -> None

let stage name f = Stdx.Trace.span ("example." ^ name) f

let () =
  Report.Trace_export.with_file trace_out @@ fun () ->
  let rng = Stdx.Prng.create 1234 in

  (* --- 1. Footnote 1 --- *)
  print_endline "1. Footnote 1: the bridge between two random clouds";
  let half = 64 in
  let g, planted = Dgraph.Gen.bridge_of_clouds rng ~half ~p:0.5 in
  let coins = Sketchmodel.Public_coins.create 31337 in
  let result = stage "bridge" (fun () -> Agm.Bridge_demo.run g ~samples_per_vertex:3 coins) in
  let pu, pv = planted in
  Printf.printf "   planted bridge (%d, %d); referee found %s; max sketch %d bits\n" pu pv
    (match result.Agm.Bridge_demo.bridge with
    | Some (u, v) -> Printf.sprintf "(%d, %d)" u v
    | None -> "nothing")
    result.Agm.Bridge_demo.stats.Sketchmodel.Rounds.max_bits;

  (* --- 2. Connectivity --- *)
  print_endline "\n2. Component counting from AGM sketches";
  let components = 4 in
  let blocks =
    List.init components (fun i -> Dgraph.Gen.gnp rng 24 (0.3 +. (0.05 *. float_of_int i)))
  in
  let g = List.fold_left Dgraph.Graph.disjoint_union (List.hd blocks) (List.tl blocks) in
  let decoded, stats =
    stage "components" (fun () -> Agm.Spanning_forest.connected_components g coins)
  in
  let _, truth = Dgraph.Components.components g in
  Printf.printf "   true components=%d decoded=%d (max sketch %d bits for n=%d)\n" truth decoded
    stats.Sketchmodel.Rounds.max_bits (Dgraph.Graph.n g);

  (* --- 3. Two rounds --- *)
  print_endline "\n3. One extra round: Otilde(sqrt n) maximal matching and MIS";
  let n = 512 in
  let g = Dgraph.Gen.gnp rng n 0.1 in
  let mm, mm_stats = stage "two-round-mm" (fun () -> Protocols.Two_round_mm.run g coins) in
  Printf.printf "   filtering MM : maximal=%b  per-player %d bits (r1=%d r2=%d), sqrt(n)=%.0f\n"
    (Dgraph.Matching.is_maximal g mm)
    mm_stats.Sketchmodel.Rounds.max_bits mm_stats.Sketchmodel.Rounds.round_max.(0)
    mm_stats.Sketchmodel.Rounds.round_max.(1)
    (sqrt (float_of_int n));
  let mis, mis_stats = stage "two-round-mis" (fun () -> Protocols.Two_round_mis.run g coins) in
  Printf.printf "   prefix MIS   : maximal=%b  per-player %d bits (r1=%d r2=%d)\n"
    (Dgraph.Mis.is_maximal g mis)
    mis_stats.Sketchmodel.Rounds.max_bits mis_stats.Sketchmodel.Rounds.round_max.(0)
    mis_stats.Sketchmodel.Rounds.round_max.(1);

  (* --- 4. Hypergraphs --- *)
  print_endline "\n4. k-uniform hypergraph maximal matching (DESIGN.md \xc2\xa711)";
  let h = Dgraph.Hgen.uniform_random (Stdx.Prng.create 7) ~n:60 ~m:40 ~k:3 in
  let hcoins = Sketchmodel.Public_coins.create 71 in
  let triv, triv_stats = stage "hyper-trivial-mm" (fun () -> Protocols.Hyper_mm.run_trivial h hcoins) in
  Printf.printf "   trivial MM   : |M|=%d  max sketch %d bits (one round)\n" (List.length triv)
    triv_stats.Sketchmodel.Rounds.max_bits;
  let it, it_stats = stage "hyper-iterated-mm" (fun () -> Protocols.Hyper_mm.run_iterated h hcoins) in
  Printf.printf "   iterated MM  : |M|=%d  max sketch %d bits over %d rounds (bcast %d bits)\n"
    (List.length it) it_stats.Sketchmodel.Rounds.max_bits
    it_stats.Sketchmodel.Rounds.rounds it_stats.Sketchmodel.Rounds.broadcast_bits;

  print_endline
    "\nThe paper's Result 1 sits exactly between these: one round is Omega(sqrt n)-hard\n\
     for MM/MIS, two rounds are Otilde(sqrt n)-easy, and connectivity-type problems\n\
     are polylog-easy in a single round."
