(* Tests for the experiment registry: the catalogue is complete and
   unique, parameter merging rejects typos, and every registered
   experiment runs at its smoke sizes into a table that type-checks
   against its schema and survives the JSON round-trip. *)

module R = Core.Exp_registry
module T = Report.Tabular

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_catalogue () =
  let exps = Core.Exp_all.all () in
  let ids = R.ids () in
  checki "registry holds every Exp_all experiment" (List.length Core.Exp_all.experiments)
    (List.length exps);
  checkb "ids are unique" true (List.length (List.sort_uniq compare ids) = List.length ids);
  checkb "ids match registration order" true (List.map R.id exps = ids);
  List.iter
    (fun e ->
      match Core.Exp_all.find (R.id e) with
      | Some e' -> checkb (R.id e ^ " resolves to itself") true (R.id e' = R.id e)
      | None -> Alcotest.failf "find %S returned None" (R.id e))
    exps;
  checkb "unknown id is None" true (Core.Exp_all.find "no-such-experiment" = None)

let test_duplicate_id () =
  let e = List.hd Core.Exp_all.experiments in
  checkb "re-registering raises Duplicate_id" true
    (match R.register e with () -> false | exception R.Duplicate_id _ -> true)

let test_param_merge () =
  let e = List.hd Core.Exp_all.experiments in
  checkb "unknown override raises Unknown_param" true
    (match R.merge (R.params e) [ ("no-such-param", R.Vint 1) ] with
    | _ -> false
    | exception R.Unknown_param _ -> true);
  (* Every experiment exposes the uniform seed/jobs knobs. *)
  List.iter
    (fun e ->
      let names = List.map (fun (p : R.param) -> p.R.name) (R.params e) in
      checkb (R.id e ^ " has seed param") true (List.mem "seed" names);
      checkb (R.id e ^ " has jobs param") true (List.mem "jobs" names))
    (Core.Exp_all.all ())

(* Run each experiment at its tiny smoke parameters (pinned to one worker
   domain) and check the table against its schema. *)
let smoke_table e = R.table e (R.smoke e @ [ ("jobs", R.Vint 1) ])

let test_smoke_tables () =
  List.iter
    (fun e ->
      let tbl = smoke_table e in
      T.validate tbl;
      checkb (R.id e ^ " produces rows at smoke sizes") true (tbl.T.rows <> []))
    (Core.Exp_all.all ())

let test_json_round_trip () =
  (* Render every smoke row as tagged JSON, parse it back, map it onto the
     schema: identical values. Rows with non-finite floats are excluded —
     they serialize as null by design. *)
  let finite = function T.Float f -> Float.is_finite f | _ -> true in
  List.iter
    (fun e ->
      let tbl = smoke_table e in
      List.iter
        (fun row ->
          if List.for_all finite row then
            let line = T.json_of_row ~tag:("experiment", R.id e) tbl.T.schema row in
            checkb
              (R.id e ^ " row survives the JSON round-trip")
              true
              (T.row_of_json tbl.T.schema (T.json_of_string line) = row))
        tbl.T.rows)
    (Core.Exp_all.all ())

(* The same table measured twice in one process must book the same
   allocation: [alloc_bytes] is exact, not good to one minor heap. *)
let test_alloc_bytes_exact () =
  List.iter
    (fun id ->
      match Core.Exp_all.find id with
      | None -> Alcotest.failf "no experiment %S" id
      | Some e ->
          let measure () =
            (snd (R.measured_table e (("jobs", R.Vint 1) :: R.overrides_for ~fast:true e)))
              .R.alloc_bytes
          in
          let first = measure () in
          Alcotest.(check (float 0.)) (id ^ ": equal readings") first (measure ()))
    [ "round-frontier"; "claim31" ]

(* An experiment whose body borrows arena buffers and then, when [fail],
   raises. *)
let borrowing_experiment ~fail : R.experiment =
  (module struct
    type row = int

    let id = "arena-probe"
    let title = "probe"
    let doc = "Borrows scratch buffers."
    let params = R.std_params []
    let schema = [ T.int_col ~width:4 "x" ]
    let to_row x = [ T.Int x ]

    let run _ =
      let arena = Stdx.Scratch.domain () in
      ignore (Stdx.Scratch.ints arena "probe.ints" 1000);
      ignore (Stdx.Scratch.floats arena "probe.floats" 1000);
      if fail then failwith "probe failed";
      [ 1 ]

    let preamble _ _ = []
    let footer _ = []
    let fast_overrides = []
    let full_overrides = []
    let smoke = []
  end)

let test_arena_scope () =
  let keys () = (Stdx.Scratch.stats (Stdx.Scratch.domain ())).Stdx.Scratch.keys in
  ignore (R.measured_table (borrowing_experiment ~fail:false) []);
  checki "no keys after a table" 0 (keys ());
  ignore (R.table (borrowing_experiment ~fail:false) []);
  checki "no keys after an unmeasured table" 0 (keys ());
  (match R.measured_table (borrowing_experiment ~fail:true) [] with
  | _ -> Alcotest.fail "the probe should raise"
  | exception Failure _ -> ());
  checki "no keys after a table that raised" 0 (keys ());
  (* A registered table that freezes graphs (and so borrows the radix
     buffers) leaves nothing behind either. *)
  (match Core.Exp_all.find "reduction" with
  | Some e -> ignore (R.measured_table e (R.smoke e @ [ ("jobs", R.Vint 1) ]))
  | None -> Alcotest.fail "no reduction experiment");
  checki "no keys after reduction" 0 (keys ())

let () =
  Alcotest.run "registry"
    [
      ( "catalogue",
        [
          Alcotest.test_case "complete and unique" `Quick test_catalogue;
          Alcotest.test_case "duplicate id rejected" `Quick test_duplicate_id;
          Alcotest.test_case "param merge" `Quick test_param_merge;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "smoke tables validate" `Quick test_smoke_tables;
          Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "alloc_bytes exact" `Quick test_alloc_bytes_exact;
          Alcotest.test_case "arena cleared after each table" `Quick test_arena_scope;
        ] );
    ]
