(* Tests for Linear_sketch: 1-sparse recovery, s-sparse recovery, and the
   L0 sampler — correctness, linearity, and serialization. *)

module One = Linear_sketch.One_sparse
module Sr = Linear_sketch.Sparse_recovery
module L0 = Linear_sketch.L0_sampler

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let one_params seed = One.make_params (Stdx.Prng.create seed) ~universe:10000

(* A standalone cell: one [One.words]-sized buffer at offset 0. *)
let cell () = Array.make One.words 0

let test_one_sparse_zero () =
  let params = one_params 1 in
  let c = cell () in
  checkb "fresh is zero" true (One.decode_at params c 0 = One.Zero);
  One.update_at params c 0 5 3;
  One.update_at params c 0 5 (-3);
  checkb "cancelled is zero" true (One.decode_at params c 0 = One.Zero)

let test_one_sparse_singleton () =
  let params = one_params 2 in
  let c = cell () in
  One.update_at params c 0 137 1;
  checkb "singleton" true (One.decode_at params c 0 = One.Singleton (137, 1));
  One.update_at params c 0 137 4;
  checkb "accumulated weight" true (One.decode_at params c 0 = One.Singleton (137, 5));
  let neg = cell () in
  One.update_at params neg 0 9999 (-7);
  checkb "negative weight" true (One.decode_at params neg 0 = One.Singleton (9999, -7))

let test_one_sparse_collision () =
  let params = one_params 3 in
  let c = cell () in
  One.update_at params c 0 10 1;
  One.update_at params c 0 20 1;
  checkb "two items collide" true (One.decode_at params c 0 = One.Collision);
  (* A +1/-1 pair has s0 = 0 but nonzero fingerprint. *)
  let c2 = cell () in
  One.update_at params c2 0 10 1;
  One.update_at params c2 0 20 (-1);
  checkb "cancelling pair detected" true (One.decode_at params c2 0 = One.Collision)

let test_one_sparse_combine () =
  let params = one_params 4 in
  let a = cell () and b = cell () in
  One.update_at params a 0 42 2;
  One.update_at params b 0 42 (-2);
  One.update_at params b 0 77 5;
  One.add_at params ~dst:a 0 ~src:b 0;
  checkb "combine cancels" true (One.decode_at params a 0 = One.Singleton (77, 5))

let test_one_sparse_serialization () =
  let params = one_params 7 in
  let c = cell () in
  One.update_at params c 0 123 (-4);
  let w = Stdx.Bitbuf.Writer.create () in
  One.write_at params c 0 w;
  let c' = cell () in
  One.read_at params c' 0 (Stdx.Bitbuf.Reader.of_writer w);
  checkb "roundtrip decode" true (One.decode_at params c' 0 = One.Singleton (123, -4))

let sr_params seed = Sr.make_params (Stdx.Prng.create seed) ~universe:5000 ~buckets:8 ~reps:3

(* A standalone s-sparse sketch: one [Sr.words params]-sized buffer. *)
let sketch params = Array.make (Sr.words params) 0

let test_sparse_recovery_exact () =
  let params = sr_params 1 in
  let s = sketch params in
  let items = [ (17, 1); (1000, -2); (4999, 7) ] in
  List.iter (fun (i, w) -> Sr.update_at params s 0 i w) items;
  (match Sr.decode_at params s 0 with
  | Some got -> Alcotest.(check (list (pair int int))) "exact recovery" items got
  | None -> Alcotest.fail "decode failed on 3-sparse input");
  checkb "empty" true (Sr.decode_at params (sketch params) 0 = Some [])

let test_sparse_recovery_cancellation () =
  let params = sr_params 2 in
  let a = sketch params and b = sketch params in
  List.iter (fun i -> Sr.update_at params a 0 i 1) [ 1; 2; 3; 4 ];
  List.iter (fun i -> Sr.update_at params b 0 i (-1)) [ 2; 3 ];
  Sr.add_at params ~dst:a 0 ~src:b 0;
  match Sr.decode_at params a 0 with
  | Some got -> Alcotest.(check (list (pair int int))) "residual" [ (1, 1); (4, 1) ] got
  | None -> Alcotest.fail "decode failed after cancellation"

let test_sparse_recovery_soundness () =
  (* Whatever decode returns (when it succeeds), it must equal the true
     vector: run over random inputs. *)
  let rng = Stdx.Prng.create 11 in
  for trial = 1 to 100 do
    let params = Sr.make_params (Stdx.Prng.create trial) ~universe:2000 ~buckets:8 ~reps:3 in
    let s = sketch params in
    let count = Stdx.Prng.int rng 12 in
    let truth = Hashtbl.create 8 in
    for _ = 1 to count do
      let i = Stdx.Prng.int rng 2000 in
      let w = 1 + Stdx.Prng.int rng 5 in
      Sr.update_at params s 0 i w;
      Hashtbl.replace truth i (w + Option.value ~default:0 (Hashtbl.find_opt truth i))
    done;
    match Sr.decode_at params s 0 with
    | None -> () (* allowed: too dense *)
    | Some got ->
        let expected =
          Hashtbl.fold (fun i w acc -> if w <> 0 then (i, w) :: acc else acc) truth []
          |> List.sort compare
        in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "sound (trial %d)" trial)
          expected got
  done

let test_sparse_recovery_success_rate () =
  (* <= buckets/2 items should almost always decode. *)
  let successes = ref 0 in
  for trial = 1 to 100 do
    let params = Sr.make_params (Stdx.Prng.create (trial * 7)) ~universe:3000 ~buckets:8 ~reps:3 in
    let s = sketch params in
    let rng = Stdx.Prng.create (trial + 5000) in
    let items = Stdx.Prng.sample_distinct rng 4 3000 in
    Array.iter (fun i -> Sr.update_at params s 0 i 1) items;
    match Sr.decode_at params s 0 with
    | Some l when List.length l = 4 -> incr successes
    | Some _ | None -> ()
  done;
  checkb (Printf.sprintf "4-sparse decodes >= 95%% (%d)" !successes) true (!successes >= 95)

let l0_params seed = L0.make_params (Stdx.Prng.create seed) ~universe:4096 ()

let test_l0_zero () =
  let s = L0.create (l0_params 1) in
  checkb "zero vector" true (L0.decode s = None);
  L0.update s 100 1;
  L0.update s 100 (-1);
  checkb "cancelled vector" true (L0.decode s = None)

let test_l0_single () =
  let s = L0.create (l0_params 2) in
  L0.update s 3000 (-2);
  checkb "finds the only coordinate" true (L0.decode s = Some (3000, -2))

let test_l0_returns_true_nonzero () =
  let rng = Stdx.Prng.create 13 in
  for trial = 1 to 50 do
    let s = L0.create (l0_params (trial + 100)) in
    let truth = Hashtbl.create 32 in
    let count = 1 + Stdx.Prng.int rng 200 in
    for _ = 1 to count do
      let i = Stdx.Prng.int rng 4096 in
      Hashtbl.replace truth i (1 + Option.value ~default:0 (Hashtbl.find_opt truth i));
      L0.update s i 1
    done;
    match L0.decode s with
    | None -> Alcotest.fail (Printf.sprintf "decode failed with %d nonzeros" count)
    | Some (i, w) ->
        checki (Printf.sprintf "weight right (trial %d)" trial)
          (Option.value ~default:0 (Hashtbl.find_opt truth i))
          w
  done

let test_l0_linearity () =
  let params = l0_params 3 in
  let a = L0.create params and b = L0.create params in
  List.iter (fun i -> L0.update a i 1) [ 5; 6; 7 ];
  List.iter (fun i -> L0.update b i (-1)) [ 5; 6 ];
  checkb "combined leaves the difference" true (L0.decode (L0.combine a b) = Some (7, 1))

let test_l0_serialization () =
  let params = l0_params 4 in
  let s = L0.create params in
  L0.update s 1234 5;
  let w = Stdx.Bitbuf.Writer.create () in
  L0.write s w;
  checki "size_bits matches writer" (Stdx.Bitbuf.Writer.length_bits w) (L0.size_bits s);
  let s' = L0.read params (Stdx.Bitbuf.Reader.of_writer w) in
  checkb "roundtrip decode" true (L0.decode s' = Some (1234, 5))

let test_l0_support_hint () =
  let s = L0.create (l0_params 5) in
  List.iter (fun i -> L0.update s i 2) [ 10; 20 ];
  let hint = L0.support_hint s in
  checkb "hint nonempty" true (hint <> []);
  checkb "hint sound" true (List.for_all (fun (i, w) -> (i = 10 || i = 20) && w = 2) hint)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-sparse decode on random singleton" ~count:300
         QCheck.(triple (int_range 0 1000) (int_range 0 9999) (int_range 1 100))
         (fun (seed, i, w) ->
           let params = one_params seed in
           let c = cell () in
           One.update_at params c 0 i w;
           One.decode_at params c 0 = One.Singleton (i, w)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-sparse serialization roundtrip" ~count:200
         QCheck.(pair (int_range 0 1000) (small_list (pair (int_range 0 9999) (int_range (-50) 50))))
         (fun (seed, updates) ->
           let params = one_params seed in
           let c = cell () in
           List.iter (fun (i, w) -> One.update_at params c 0 i w) updates;
           let w = Stdx.Bitbuf.Writer.create () in
           One.write_at params c 0 w;
           let c' = cell () in
           One.read_at params c' 0 (Stdx.Bitbuf.Reader.of_writer w);
           One.decode_at params c' 0 = One.decode_at params c 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"combine = updates applied to one sketch" ~count:200
         QCheck.(triple (int_range 0 1000)
                   (small_list (pair (int_range 0 4999) (int_range (-9) 9)))
                   (small_list (pair (int_range 0 4999) (int_range (-9) 9))))
         (fun (seed, ua, ub) ->
           let params = sr_params seed in
           let a = sketch params and b = sketch params and whole = sketch params in
           List.iter (fun (i, w) -> Sr.update_at params a 0 i w; Sr.update_at params whole 0 i w) ua;
           List.iter (fun (i, w) -> Sr.update_at params b 0 i w; Sr.update_at params whole 0 i w) ub;
           Sr.add_at params ~dst:a 0 ~src:b 0;
           Sr.decode_at params a 0 = Sr.decode_at params whole 0));
  ]

(* Flat-layout equivalence: a sketch region at any offset of a larger
   buffer must decode and serialise byte-identically to the same sketch
   alone in its own buffer, and an L0 sampler viewing a caller-owned
   buffer ([of_buffer]) must match one with a private buffer
   (PERFORMANCE.md, "Flat sketch layouts"). A Scratch reset-reuse
   cycle — borrow, poison the cached store, re-borrow — must be
   invisible in the serialised bytes. *)
let writer_bytes w =
  let bytes, bits = Stdx.Bitbuf.Writer.contents w in
  (Bytes.to_string bytes, bits)

let flat_boxed_qcheck =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-sparse offset region" ~count:300
         QCheck.(
           triple (int_range 0 1000) (int_range 0 5)
             (small_list (pair (int_range 0 9999) (int_range (-9) 9))))
         (fun (seed, off, updates) ->
           let params = one_params seed in
           let alone = cell () in
           let buf = Array.make (off + One.words) 0 in
           List.iter
             (fun (i, w) ->
               One.update_at params alone 0 i w;
               One.update_at params buf off i w)
             updates;
           let wa = Stdx.Bitbuf.Writer.create () and wf = Stdx.Bitbuf.Writer.create () in
           One.write_at params alone 0 wa;
           One.write_at params buf off wf;
           One.decode_at params buf off = One.decode_at params alone 0
           && writer_bytes wf = writer_bytes wa));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"s-sparse offset region" ~count:200
         QCheck.(
           triple (int_range 0 1000) (int_range 0 5)
             (small_list (pair (int_range 0 4999) (int_range (-9) 9))))
         (fun (seed, off, updates) ->
           let params = sr_params seed in
           let alone = sketch params in
           let buf = Array.make (off + Sr.words params) 0 in
           List.iter
             (fun (i, w) ->
               Sr.update_at params alone 0 i w;
               Sr.update_at params buf off i w)
             updates;
           let wa = Stdx.Bitbuf.Writer.create () and wf = Stdx.Bitbuf.Writer.create () in
           Sr.write_at params alone 0 wa;
           Sr.write_at params buf off wf;
           Sr.decode_at params buf off = Sr.decode_at params alone 0
           && writer_bytes wf = writer_bytes wa));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"l0 of_buffer == private-buffer sampler" ~count:200
         QCheck.(
           triple (int_range 0 1000) (int_range 0 7)
             (small_list (pair (int_range 0 4095) (int_range (-5) 5))))
         (fun (seed, off, updates) ->
           let params = l0_params seed in
           let boxed = L0.create params in
           let buf = Array.make (off + L0.size_words params) 0 in
           let flat = L0.of_buffer params buf off in
           List.iter
             (fun (i, w) ->
               L0.update boxed i w;
               L0.update flat i w)
             updates;
           let wb = Stdx.Bitbuf.Writer.create () and wf = Stdx.Bitbuf.Writer.create () in
           L0.write boxed wb;
           L0.write flat wf;
           L0.decode flat = L0.decode boxed && writer_bytes wf = writer_bytes wb));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"arena reset-reuse leaves sampler bytes unchanged" ~count:100
         QCheck.(pair (int_range 0 1000) (small_list (pair (int_range 0 4095) (int_range (-5) 5))))
         (fun (seed, updates) ->
           let params = l0_params seed in
           let arena = Stdx.Scratch.create () in
           let run () =
             let buf = Stdx.Scratch.ints arena "test.l0" (L0.size_words params) in
             let s = L0.of_buffer params buf 0 in
             List.iter (fun (i, w) -> L0.update s i w) updates;
             let w = Stdx.Bitbuf.Writer.create () in
             L0.write s w;
             writer_bytes w
           in
           let first = run () in
           (* Poison the cached backing store, then re-borrow: the
              zero-fill reset must make the rerun byte-identical. *)
           let poison = Stdx.Scratch.dirty_ints arena "test.l0" (L0.size_words params) in
           Array.fill poison 0 (Array.length poison) max_int;
           run () = first));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"l0 reset == fresh sampler" ~count:100
         QCheck.(
           triple (int_range 0 1000)
             (small_list (pair (int_range 0 4095) (int_range (-5) 5)))
             (small_list (pair (int_range 0 4095) (int_range (-5) 5))))
         (fun (seed, first, second) ->
           let params = l0_params seed in
           let reused = L0.create params in
           List.iter (fun (i, w) -> L0.update reused i w) first;
           L0.reset reused;
           let fresh = L0.create params in
           List.iter
             (fun (i, w) ->
               L0.update reused i w;
               L0.update fresh i w)
             second;
           let wr = Stdx.Bitbuf.Writer.create () and wf = Stdx.Bitbuf.Writer.create () in
           L0.write reused wr;
           L0.write fresh wf;
           writer_bytes wr = writer_bytes wf));
  ]

let () =
  Alcotest.run "linear_sketch"
    [
      ( "one-sparse",
        [
          Alcotest.test_case "zero" `Quick test_one_sparse_zero;
          Alcotest.test_case "singleton" `Quick test_one_sparse_singleton;
          Alcotest.test_case "collision" `Quick test_one_sparse_collision;
          Alcotest.test_case "combine" `Quick test_one_sparse_combine;
          Alcotest.test_case "serialization" `Quick test_one_sparse_serialization;
        ] );
      ( "sparse-recovery",
        [
          Alcotest.test_case "exact" `Quick test_sparse_recovery_exact;
          Alcotest.test_case "cancellation" `Quick test_sparse_recovery_cancellation;
          Alcotest.test_case "soundness" `Quick test_sparse_recovery_soundness;
          Alcotest.test_case "success rate" `Quick test_sparse_recovery_success_rate;
        ] );
      ( "l0-sampler",
        [
          Alcotest.test_case "zero" `Quick test_l0_zero;
          Alcotest.test_case "single" `Quick test_l0_single;
          Alcotest.test_case "true nonzero" `Quick test_l0_returns_true_nonzero;
          Alcotest.test_case "linearity" `Quick test_l0_linearity;
          Alcotest.test_case "serialization" `Quick test_l0_serialization;
          Alcotest.test_case "support hint" `Quick test_l0_support_hint;
        ] );
      ("linear-sketch-properties", qcheck_tests);
      ("flat-boxed-equivalence", flat_boxed_qcheck);
    ]
