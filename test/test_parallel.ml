(* Tests for Stdx.Parallel, the deterministic multicore trial engine:
   chunking never drops/duplicates/reorders indices, results are
   bit-identical at every job count, and the parallelized experiment
   tables (Core.Exp_claim31, Exp_budget_sweep, Exp_estimate_info,
   Exp_packing) agree across jobs = 1, 2, 4. *)

module P = Stdx.Parallel

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Adversarial trial counts: empty, single, prime, exactly jobs*chunk,
   one past a chunk boundary, and far more than jobs*chunk. *)
let adversarial_ns = [ 0; 1; 2; 3; 5; 7; 8; 9; 13; 16; 17; 97; 128; 129 ]

let job_counts = [ 1; 2; 3; 4; 7; 16 ]

let test_init_identity () =
  List.iter
    (fun n ->
      let expected = Array.init n (fun i -> i) in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int))
            (Printf.sprintf "init ~jobs:%d %d covers every index once" jobs n)
            expected
            (P.init ~jobs n (fun i -> i)))
        job_counts)
    adversarial_ns

let test_init_matches_sequential () =
  (* A non-trivial per-index computation seeded by Prng.split, exactly the
     engine's intended use. *)
  let root = Stdx.Prng.create 4242 in
  let trial i =
    let rng = Stdx.Prng.split root i in
    (Stdx.Prng.int rng 1000, Stdx.Prng.float rng)
  in
  List.iter
    (fun n ->
      let reference = P.init ~jobs:1 n trial in
      List.iter
        (fun jobs ->
          checkb
            (Printf.sprintf "jobs=%d bit-identical to sequential (n=%d)" jobs n)
            true
            (P.init ~jobs n trial = reference))
        job_counts)
    adversarial_ns

let test_map_and_map_list () =
  let a = Array.init 37 (fun i -> i * 3) in
  let f x = (x * x) - 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int)) "map = Array.map" (Array.map f a) (P.map ~jobs f a);
      Alcotest.(check (list int))
        "map_list = List.map"
        (List.map f (Array.to_list a))
        (P.map_list ~jobs f (Array.to_list a)))
    job_counts

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker failure surfaces at jobs=%d" jobs)
        (Failure "boom")
        (fun () -> ignore (P.init ~jobs 16 (fun i -> if i = 11 then failwith "boom" else i))))
    [ 1; 2; 4 ]

let test_negative_n_rejected () =
  Alcotest.check_raises "negative length" (Invalid_argument "Parallel.init: negative length")
    (fun () -> ignore (P.init ~jobs:2 (-1) (fun i -> i)))

let test_default_jobs_positive () =
  checkb "recommended domain count >= 1" true (P.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* The experiment tables themselves: identical rows at jobs 1, 2, 4.   *)

let assert_jobs_invariant name run =
  let reference = run 1 in
  List.iter
    (fun jobs ->
      checkb (Printf.sprintf "%s identical at jobs=%d" name jobs) true (run jobs = reference))
    [ 2; 4 ]

let test_claim31_jobs_invariant () =
  assert_jobs_invariant "claim31" (fun jobs ->
      Core.Exp_claim31.compute ~jobs ~ms:[ 4; 5 ] ~samples:7 ~seed:3 ())

let test_budget_sweep_jobs_invariant () =
  assert_jobs_invariant "budget_sweep" (fun jobs ->
      Core.Exp_budget_sweep.compute ~jobs ~m:5 ~budgets:[ 8; 64 ] ~trials:5 ~seed:5 ())

let test_estimate_jobs_invariant () =
  assert_jobs_invariant "estimate_accounting" (fun jobs ->
      Core.Exp_estimate_info.compute ~jobs ~bits:[ 4 ] ~samples:300 ~seed:7 ())

let test_packing_jobs_invariant () =
  assert_jobs_invariant "packing_table" (fun jobs ->
      Core.Exp_packing.compute ~jobs ~ms:[ 3; 4; 5 ] ~tries:120 ~seed:9 ())

let test_parallel_speedup_identical () =
  let module S = Core.Exp_speedup in
  let rows = S.compute ~jobs:4 ~m:4 ~samples:6 ~seed:11 () in
  checkb "at least two job counts measured" true (List.length rows >= 2);
  List.iter
    (fun r ->
      checkb (Printf.sprintf "jobs=%d rows identical to sequential" r.S.pjobs) true r.S.identical;
      checkb "wall-clock non-negative" true (r.S.wall_s >= 0.))
    rows;
  checki "baseline row is jobs=1" 1 (List.hd rows).S.pjobs

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chunking drops/duplicates nothing" ~count:300
         QCheck.(pair (int_range 0 200) (int_range 1 12))
         (fun (n, jobs) ->
           P.init ~jobs n (fun i -> i) = Array.init n (fun i -> i)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"job count never changes results" ~count:100
         QCheck.(triple (int_range 0 1000) (int_range 0 120) (pair (int_range 1 8) (int_range 1 8)))
         (fun (seed, n, (ja, jb)) ->
           let root = Stdx.Prng.create seed in
           let trial i = Stdx.Prng.bits64 (Stdx.Prng.split root i) in
           P.init ~jobs:ja n trial = P.init ~jobs:jb n trial));
  ]

let () =
  Alcotest.run "parallel"
    [
      ( "engine",
        [
          Alcotest.test_case "init covers adversarial sizes" `Quick test_init_identity;
          Alcotest.test_case "init matches sequential" `Quick test_init_matches_sequential;
          Alcotest.test_case "map and map_list" `Quick test_map_and_map_list;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "negative n rejected" `Quick test_negative_n_rejected;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "experiments-determinism",
        [
          Alcotest.test_case "claim31 jobs-invariant" `Quick test_claim31_jobs_invariant;
          Alcotest.test_case "budget_sweep jobs-invariant" `Quick test_budget_sweep_jobs_invariant;
          Alcotest.test_case "estimate jobs-invariant" `Slow test_estimate_jobs_invariant;
          Alcotest.test_case "packing jobs-invariant" `Quick test_packing_jobs_invariant;
          Alcotest.test_case "speedup report identical" `Quick test_parallel_speedup_identical;
        ] );
      ("engine-properties", qcheck_tests);
    ]
