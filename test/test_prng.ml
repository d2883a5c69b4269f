(* Tests for Stdx.Prng: determinism, bounds, statistical sanity, draw
   for draw equality with the boxed reference generator, and the
   per-draw allocation contract. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* The reference generator: xoshiro256** on a record of [mutable int64]
   fields, the straightforward layout [Prng] replaced with an unboxed
   buffer. Every draw here boxes, which is what the buffer avoids; the
   differential property below requires the two to agree draw for
   draw. *)
module Boxed = struct
  type t = {
    mutable s0 : int64;
    mutable s1 : int64;
    mutable s2 : int64;
    mutable s3 : int64;
    seed : int;
  }

  let splitmix64_next state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64_next state in
    let s1 = splitmix64_next state in
    let s2 = splitmix64_next state in
    let s3 = splitmix64_next state in
    { s0; s1; s2; s3; seed }

  let split g key =
    let state = ref (Int64.of_int g.seed) in
    let a = splitmix64_next state in
    create
      (Int64.to_int (Int64.logxor a (Int64.mul (Int64.of_int key) 0x9E3779B97F4A7C15L))
      land max_int)

  let copy g = { g with s0 = g.s0 }
  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 g =
    let open Int64 in
    let result = mul (rotl (mul g.s1 5L) 7) 9L in
    let t = shift_left g.s1 17 in
    g.s2 <- logxor g.s2 g.s0;
    g.s3 <- logxor g.s3 g.s1;
    g.s1 <- logxor g.s1 g.s2;
    g.s0 <- logxor g.s0 g.s3;
    g.s2 <- logxor g.s2 t;
    g.s3 <- rotl g.s3 45;
    result

  let bits g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

  let int g bound =
    let mask_bound = bound - 1 in
    if bound land mask_bound = 0 then bits g land mask_bound
    else
      let limit = max_int / bound * bound in
      let rec draw () =
        let v = bits g in
        if v < limit then v mod bound else draw ()
      in
      draw ()

  let float g = float_of_int (Int64.to_int (Int64.shift_right_logical (bits64 g) 11)) *. 0x1p-53
  let bool g = Int64.logand (bits64 g) 1L = 1L
  let bernoulli g p = float g < p
end

let test_determinism () =
  let a = Stdx.Prng.create 42 and b = Stdx.Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Stdx.Prng.bits64 a) (Stdx.Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Stdx.Prng.create 1 and b = Stdx.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Stdx.Prng.bits64 a = Stdx.Prng.bits64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_split_independent () =
  let g = Stdx.Prng.create 7 in
  let a = Stdx.Prng.split g 1 and b = Stdx.Prng.split g 2 in
  let a' = Stdx.Prng.split g 1 in
  check Alcotest.int64 "split deterministic" (Stdx.Prng.bits64 a) (Stdx.Prng.bits64 a');
  checkb "split keys differ" true (Stdx.Prng.bits64 a <> Stdx.Prng.bits64 b)

(* Golden values pinning the trial-key derivation documented on
   [Prng.split]: first word of [split (create seed) key]. The parallel
   engine's determinism contract (trial i <-> split root i) and every
   published table depend on this exact derivation; if this test fails,
   the seeding scheme changed and all recorded experiment outputs are
   silently different. Update these constants only on purpose. *)
let test_split_golden () =
  List.iter
    (fun (seed, key, expected) ->
      check Alcotest.int64
        (Printf.sprintf "split (create %d) %d" seed key)
        expected
        (Stdx.Prng.bits64 (Stdx.Prng.split (Stdx.Prng.create seed) key)))
    [
      (0, 0, 0x112869f07c59d976L);
      (0, 1, 0x67cfad6b945c5e67L);
      (7, 0, 0xf15372a7610d380L);
      (7, 1, 0x1bd90e81a3995153L);
      (7, 2, 0x65cb288236869b1aL);
      (42, 1000, 0x3f1ad5c171df2c2bL);
      (123456789, 31337, 0xcbe6d94bb88c8f46L);
    ]

let test_split_does_not_advance () =
  let g = Stdx.Prng.create 7 and h = Stdx.Prng.create 7 in
  ignore (Stdx.Prng.split g 5);
  check Alcotest.int64 "parent unchanged" (Stdx.Prng.bits64 h) (Stdx.Prng.bits64 g)

let test_copy () =
  let g = Stdx.Prng.create 9 in
  ignore (Stdx.Prng.bits64 g);
  let c = Stdx.Prng.copy g in
  check Alcotest.int64 "copy continues identically" (Stdx.Prng.bits64 g) (Stdx.Prng.bits64 c);
  (* The copy owns its state: draining the original leaves it alone. *)
  let next = Stdx.Prng.bits64 (Stdx.Prng.copy c) in
  for _ = 1 to 10 do
    ignore (Stdx.Prng.bits64 g)
  done;
  check Alcotest.int64 "copy unaffected by the original" next (Stdx.Prng.bits64 c)

(* The allocation contract: after warm-up, immediate-valued draws add no
   minor words. [int] with a bound that is not a power of two runs the
   rejection loop, which must not allocate a closure per call. *)
let test_draws_allocate_nothing () =
  let g = Stdx.Prng.create 21 in
  let bools = Array.make 100 false in
  let minor_words_of f =
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, f) -> check (Alcotest.float 0.) name 0. (minor_words_of f))
    [
      ( "int 1000",
        fun () ->
          for _ = 1 to 10_000 do
            ignore (Stdx.Prng.int g 1000)
          done );
      ( "int 1024",
        fun () ->
          for _ = 1 to 10_000 do
            ignore (Stdx.Prng.int g 1024)
          done );
      ( "bool",
        fun () ->
          for _ = 1 to 10_000 do
            ignore (Stdx.Prng.bool g)
          done );
      ( "bernoulli",
        fun () ->
          for _ = 1 to 10_000 do
            ignore (Stdx.Prng.bernoulli g 0.3)
          done );
      ( "fill_bools",
        fun () ->
          for _ = 1 to 100 do
            Stdx.Prng.fill_bools g bools
          done );
    ]

let test_int_bounds () =
  let g = Stdx.Prng.create 3 in
  List.iter
    (fun bound ->
      for _ = 1 to 200 do
        let v = Stdx.Prng.int g bound in
        checkb "in range" true (v >= 0 && v < bound)
      done)
    [ 1; 2; 3; 7; 8; 100; 1 lsl 20; (1 lsl 20) + 7 ]

let test_int_invalid () =
  let g = Stdx.Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Stdx.Prng.int g 0))

let test_uniformity () =
  let g = Stdx.Prng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = Stdx.Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "bucket %d near uniform" i) true
        (abs (c - (n / 10)) < n / 25))
    buckets

let test_float_range () =
  let g = Stdx.Prng.create 12 in
  for _ = 1 to 1000 do
    let f = Stdx.Prng.float g in
    checkb "float in [0,1)" true (f >= 0. && f < 1.)
  done

let test_bernoulli_rate () =
  let g = Stdx.Prng.create 13 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Stdx.Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "bernoulli(0.3) near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_permutation () =
  let g = Stdx.Prng.create 14 in
  let p = Stdx.Prng.permutation g 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_shuffle_preserves () =
  let g = Stdx.Prng.create 15 in
  let a = Array.init 30 (fun i -> i * i) in
  let b = Array.copy a in
  Stdx.Prng.shuffle g b;
  Array.sort compare b;
  check Alcotest.(array int) "multiset preserved" a b

let test_sample_distinct () =
  let g = Stdx.Prng.create 16 in
  for _ = 1 to 50 do
    let s = Stdx.Prng.sample_distinct g 10 25 in
    check Alcotest.int "right count" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 0 to 8 do
      checkb "distinct" true (sorted.(i) < sorted.(i + 1))
    done;
    Array.iter (fun v -> checkb "in range" true (v >= 0 && v < 25)) s
  done;
  let full = Stdx.Prng.sample_distinct g 25 25 in
  let sorted = Array.copy full in
  Array.sort compare sorted;
  check Alcotest.(array int) "k = n gives everything" (Array.init 25 (fun i -> i)) sorted

(* One script of draws, run on both generators: every operation the
   differential property compares, in a fixed interleaving. Returns
   the outputs as strings so one equality covers every type. *)
let script ~bound ~p ~len (bits64, int, float, bool, bernoulli, fill_bools) =
  let out = Buffer.create 256 in
  for _ = 1 to 8 do
    let w = bits64 () in
    let i = int bound in
    let j = int 1024 in
    let f = float () in
    let b = bool () in
    let c = bernoulli p in
    Printf.bprintf out "%Lx %d %d %h %b %b;" w i j f b c;
    Array.iter (fun b -> Buffer.add_char out (if b then '1' else '0')) (fill_bools len)
  done;
  Buffer.contents out

let prng_ops g =
  ( (fun () -> Stdx.Prng.bits64 g),
    Stdx.Prng.int g,
    (fun () -> Stdx.Prng.float g),
    (fun () -> Stdx.Prng.bool g),
    Stdx.Prng.bernoulli g,
    fun len ->
      let a = Array.make len false in
      Stdx.Prng.fill_bools g a;
      a )

let boxed_ops g =
  ( (fun () -> Boxed.bits64 g),
    Boxed.int g,
    (fun () -> Boxed.float g),
    (fun () -> Boxed.bool g),
    Boxed.bernoulli g,
    fun len -> Array.init len (fun _ -> Boxed.bool g) )

let differential =
  QCheck.Test.make ~name:"matches the boxed generator" ~count:300
    QCheck.(
      quad int int
        (pair (int_range 1 (1 lsl 40)) bool)
        (pair (float_range 0. 1.) (int_range 0 70)))
    (fun (seed, key, (bound, pow2), (p, len)) ->
      let bound = if pow2 then 1 lsl (bound mod 62) else bound in
      let run_both g b =
        let x = script ~bound ~p ~len (prng_ops g) in
        let y = script ~bound ~p ~len (boxed_ops b) in
        x = y
      in
      let g = Stdx.Prng.create seed and b = Boxed.create seed in
      let same_root = run_both g b in
      let gs = Stdx.Prng.split g key and bs = Boxed.split b key in
      let same_split = run_both gs bs in
      let gc = Stdx.Prng.copy gs and bc = Boxed.copy bs in
      let same_copy = run_both gc bc && run_both gs bs in
      let same_seed =
        run_both (Stdx.Prng.split_seed seed key) (Boxed.split (Boxed.create seed) key)
      in
      same_root && same_split && same_copy && same_seed)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest differential;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int bound respected" ~count:500
         QCheck.(pair (int_range 0 1000) (int_range 1 10000))
         (fun (seed, bound) ->
           let g = Stdx.Prng.create seed in
           let v = Stdx.Prng.int g bound in
           v >= 0 && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"permutation valid" ~count:100
         QCheck.(pair (int_range 0 1000) (int_range 1 100))
         (fun (seed, n) ->
           let p = Stdx.Prng.permutation (Stdx.Prng.create seed) n in
           let sorted = Array.copy p in
           Array.sort compare sorted;
           sorted = Array.init n (fun i -> i)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sample_distinct distinct and in range" ~count:200
         QCheck.(triple (int_range 0 1000) (int_range 0 40) (int_range 40 200))
         (fun (seed, k, n) ->
           let s = Stdx.Prng.sample_distinct (Stdx.Prng.create seed) k n in
           let l = Array.to_list s in
           List.length (List.sort_uniq compare l) = k && List.for_all (fun v -> v >= 0 && v < n) l));
    (* Pins the stream-position contract on [Prng.fill_bools]: the bulk
       fill consumes exactly the draws repeated [bool] would, so the
       batched kept-mask fill in [Hard_dist.sample] cannot drift from
       the golden tables recorded with per-edge draws. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fill_bools matches repeated bool" ~count:200
         QCheck.(pair (int_range 0 1000) (int_range 0 300))
         (fun (seed, len) ->
           let g = Stdx.Prng.create seed in
           let a = Array.make len false in
           Stdx.Prng.fill_bools g a;
           let g' = Stdx.Prng.create seed in
           let b = Array.init len (fun _ -> Stdx.Prng.bool g') in
           a = b && Stdx.Prng.bits64 g = Stdx.Prng.bits64 g'));
  ]

let () =
  Alcotest.run "prng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "different seeds" `Quick test_different_seeds;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "split golden values" `Quick test_split_golden;
          Alcotest.test_case "split no advance" `Quick test_split_does_not_advance;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "uniformity" `Quick test_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "shuffle preserves" `Quick test_shuffle_preserves;
          Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
        ] );
      ("prng-properties", qcheck_tests);
    ]
