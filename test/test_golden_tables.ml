(* Byte-identity against pre-refactor terminal output: golden/<id>.txt
   holds the exact bytes the original monolithic print functions
   produced at the parameters below (captured before the registry split).
   Rendering the same experiment through Exp_registry.table + Tabular's
   text renderer must reproduce every file byte for byte.

   The speedup table (P1) is excluded: its cells are wall-clock times. *)

module R = Core.Exp_registry
module T = Report.Tabular

let vi i = R.Vint i
let vl l = R.Vints l

(* id -> the overrides the goldens were captured with. Monte-Carlo tables
   pin jobs=1; the engine is bit-identical at any job count, so this only
   fixes the wall-clock, not the cells. *)
let captures =
  [
    ("rs-table", [ ("m", vl [ 5; 10; 25 ]) ]);
    ("behrend", [ ("m", vl [ 10; 30; 100 ]) ]);
    ( "claim31",
      [ ("m", vl [ 5; 10 ]); ("samples", vi 4); ("seed", vi 7); ("jobs", vi 1) ] );
    ( "budget-sweep",
      [ ("m", vi 5); ("budgets", vl [ 8; 64 ]); ("trials", vi 2); ("seed", vi 11); ("jobs", vi 1) ]
    );
    ("info-accounting", [ ("bits", vl [ 2 ]) ]);
    ("upper-bounds", [ ("n", vl [ 48; 64 ]); ("seed", vi 3) ]);
    ("coloring-contrast", [ ("n", vl [ 128; 192 ]); ("seed", vi 19) ]);
    ("bound-curve", [ ("m", vl [ 5; 20 ]) ]);
    ("reduction", [ ("m", vl [ 4 ]); ("samples", vi 2); ("seed", vi 23) ]);
    ( "bridge",
      [ ("halves", vl [ 24 ]); ("samples", vl [ 2 ]); ("trials", vi 4); ("seed", vi 29) ] );
    ( "approx-matching",
      [ ("n", vl [ 24 ]); ("budgets", vl [ 16 ]); ("trials", vi 2); ("seed", vi 31) ] );
    ( "k-sweep",
      [
        ("m", vi 5);
        ("k", vl [ 2; 5 ]);
        ("budgets", vl [ 8; 64 ]);
        ("trials", vi 2);
        ("seed", vi 37);
      ] );
    ("streams", [ ("n", vl [ 20 ]); ("seed", vi 41) ]);
    ("connectivity", [ ("seed", vi 43) ]);
    ("rounds", [ ("m", vl [ 5 ]); ("seed", vi 47) ]);
    ("packing", [ ("m", vl [ 4; 5 ]); ("tries", vi 200); ("seed", vi 53); ("jobs", vi 1) ]);
    ( "estimate-info",
      [ ("bits", vl [ 4 ]); ("samples", vi 300); ("seed", vi 59); ("jobs", vi 1) ] );
    ( "yao",
      [ ("m", vi 5); ("budgets", vl [ 24 ]); ("instances", vi 4); ("seeds", vi 2); ("seed", vi 61) ]
    );
    ("bcc", [ ("m", vl [ 5 ]); ("trials", vi 2); ("seed", vi 67) ]);
    ("hypergraph-mm", [ ("n", vi 60); ("m", vi 40); ("k", vl [ 2; 3 ]); ("seed", vi 71) ]);
    ("round-frontier", [ ("m", vl [ 5 ]); ("rounds", vl [ 1; 2; 3 ]); ("seed", vi 53) ]);
    ("stream-matching", [ ("n", vl [ 24 ]); ("eps", vl [ 50; 25 ]); ("seed", vi 59) ]);
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_one (id, overrides) () =
  let e =
    match Core.Exp_all.find id with
    | Some e -> e
    | None -> Alcotest.failf "experiment %S not registered" id
  in
  let expected = read_file (Filename.concat "golden" (id ^ ".txt")) in
  let got = T.to_text (R.table e overrides) in
  if got <> expected then
    Alcotest.failf "%s: text output drifted from golden capture\n--- golden ---\n%s--- got ---\n%s"
      id expected got

let test_coverage () =
  (* Every registered experiment except the wall-clock one has a golden. *)
  let covered = List.map fst captures in
  List.iter
    (fun e ->
      let id = R.id e in
      if id <> "speedup" then
        Alcotest.(check bool) (id ^ " has a golden capture") true (List.mem id covered))
    (Core.Exp_all.all ())

let () =
  Alcotest.run "golden-tables"
    [
      ( "byte-identity",
        Alcotest.test_case "coverage" `Quick test_coverage
        :: List.map
             (fun (id, _) ->
               Alcotest.test_case id `Quick (test_one (id, List.assoc id captures)))
             captures );
    ]
