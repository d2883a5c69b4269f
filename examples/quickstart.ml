(* Quickstart: the distributed sketching model in five minutes.

   We build a random graph, then run three one-round sketching protocols on
   it — every vertex sends a single message to a referee who never sees the
   graph — and check the referee's outputs against ground truth:

   1. AGM spanning forest  (polylog-size sketches; the positive result the
      paper contrasts against),
   2. (Delta+1)-coloring by palette sparsification (also polylog),
   3. trivial maximal matching (Theta(n log n): ship the whole
      neighbourhood — the only known one-round approach, per the paper's
      lower bound).

   Run with: dune exec examples/quickstart.exe
   Pass `--trace out.json` to export a Chrome trace_event file of the run
   (chrome://tracing or Perfetto): each stage below is an [example.*]
   span, with the graph-freeze and protocol spans nested inside. *)

let trace_out =
  match Array.to_list Sys.argv with _ :: "--trace" :: path :: _ -> Some path | _ -> None

let stage name f = Stdx.Trace.span ("example." ^ name) f

let () =
  Report.Trace_export.with_file trace_out @@ fun () ->
  let n = 96 in
  let rng = Stdx.Prng.create 2020 in
  let g = stage "build-graph" (fun () -> Dgraph.Gen.gnp rng n 0.15) in
  Printf.printf "input graph: n=%d m=%d max_degree=%d\n\n" (Dgraph.Graph.n g) (Dgraph.Graph.m g)
    (Dgraph.Graph.max_degree g);

  (* Public coins: one seed shared by all players and the referee. *)
  let coins = Sketchmodel.Public_coins.create 42 in

  (* 1. Spanning forest from AGM sketches. *)
  let forest, stats = stage "agm-forest" (fun () -> Agm.Spanning_forest.run g coins) in
  Printf.printf "AGM spanning forest: %d edges, valid=%b\n" (List.length forest)
    (Dgraph.Components.is_spanning_forest g forest);
  Format.printf "  cost: %a@." Sketchmodel.Rounds.pp_stats stats;

  (* 2. (Delta+1)-coloring. *)
  let outcome, stats = stage "palette-coloring" (fun () -> Coloring.Palette.run g coins) in
  (match outcome.Coloring.Palette.coloring with
  | Some colors ->
      Printf.printf "palette coloring: proper=%b colors_used<=%d (Delta+1=%d)\n"
        (Coloring.Palette.is_proper g colors)
        (Coloring.Palette.max_color colors + 1)
        (Dgraph.Graph.max_degree g + 1)
  | None -> print_endline "palette coloring: failed (rerun with larger lists)");
  Format.printf "  cost: %a@." Sketchmodel.Rounds.pp_stats stats;

  (* 3. Maximal matching the only way one round allows: send everything. *)
  let matching, stats =
    stage "trivial-mm" (fun () ->
        Sketchmodel.Rounds.run (Sketchmodel.Rounds.one_round Protocols.Trivial.mm) g coins)
  in
  Printf.printf "trivial maximal matching: %d edges, maximal=%b\n" (List.length matching)
    (Dgraph.Matching.is_maximal g matching);
  Format.printf "  cost: %a@." Sketchmodel.Rounds.pp_stats stats;

  print_endline
    "\nThe paper proves the third cost is unavoidable in one round: any maximal-matching\n\
     or MIS sketch needs Omega(sqrt n) bits per vertex, while forests and colorings\n\
     need only polylog(n)."
