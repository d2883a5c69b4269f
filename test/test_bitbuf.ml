(* Tests for Stdx.Bitbuf: the bit-exact message buffers every protocol's
   cost accounting rests on. *)

module W = Stdx.Bitbuf.Writer
module R = Stdx.Bitbuf.Reader

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_empty () =
  let w = W.create () in
  checki "empty length" 0 (W.length_bits w);
  let r = R.of_writer w in
  checki "nothing to read" 0 (R.remaining_bits r)

let test_single_bits () =
  let w = W.create () in
  W.bit w true;
  W.bit w false;
  W.bit w true;
  checki "3 bits" 3 (W.length_bits w);
  let r = R.of_writer w in
  checkb "bit 1" true (R.bit r);
  checkb "bit 2" false (R.bit r);
  checkb "bit 3" true (R.bit r);
  checki "drained" 0 (R.remaining_bits r)

let test_bits_roundtrip () =
  let w = W.create () in
  W.bits w 0 ~width:0;
  W.bits w 5 ~width:3;
  W.bits w 1023 ~width:10;
  W.bits w 0 ~width:7;
  checki "lengths add" 20 (W.length_bits w);
  let r = R.of_writer w in
  checki "width 0" 0 (R.bits r ~width:0);
  checki "width 3" 5 (R.bits r ~width:3);
  checki "width 10" 1023 (R.bits r ~width:10);
  checki "width 7 zero" 0 (R.bits r ~width:7)

let test_bits_invalid () =
  let w = W.create () in
  Alcotest.check_raises "value too wide"
    (Invalid_argument "Bitbuf.Writer.bits: value does not fit width") (fun () ->
      W.bits w 8 ~width:3);
  Alcotest.check_raises "negative value"
    (Invalid_argument "Bitbuf.Writer.bits: value does not fit width") (fun () ->
      W.bits w (-1) ~width:5);
  Alcotest.check_raises "width too large" (Invalid_argument "Bitbuf.Writer.bits: width")
    (fun () -> W.bits w 0 ~width:63)

let test_uvarint_values () =
  List.iter
    (fun v ->
      let w = W.create () in
      W.uvarint w v;
      let r = R.of_writer w in
      checki (Printf.sprintf "uvarint %d" v) v (R.uvarint r))
    [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1 lsl 20; (1 lsl 40) + 12345 ]

let test_uvarint_size () =
  let size v =
    let w = W.create () in
    W.uvarint w v;
    W.length_bits w
  in
  checki "small = 1 byte" 8 (size 0);
  checki "127 = 1 byte" 8 (size 127);
  checki "128 = 2 bytes" 16 (size 128);
  checki "16383 = 2 bytes" 16 (size 16383);
  checki "16384 = 3 bytes" 24 (size 16384)

let test_int_list () =
  let l = [ 0; 5; 128; 99999 ] in
  let w = W.create () in
  W.int_list w l;
  let r = R.of_writer w in
  Alcotest.(check (list int)) "int_list roundtrip" l (R.int_list r);
  let w2 = W.create () in
  W.int_list w2 [];
  Alcotest.(check (list int)) "empty list" [] (R.int_list (R.of_writer w2))

let test_underflow () =
  let w = W.create () in
  W.bit w true;
  let r = R.of_writer w in
  ignore (R.bit r);
  Alcotest.check_raises "underflow" R.Underflow (fun () -> ignore (R.bit r))

let test_interleaved () =
  let w = W.create () in
  W.bit w true;
  W.uvarint w 300;
  W.bits w 9 ~width:4;
  W.int_list w [ 7; 8 ];
  let r = R.of_writer w in
  checkb "bit" true (R.bit r);
  checki "uvarint" 300 (R.uvarint r);
  checki "bits" 9 (R.bits r ~width:4);
  Alcotest.(check (list int)) "list" [ 7; 8 ] (R.int_list r);
  checki "drained" 0 (R.remaining_bits r)

let test_growth () =
  (* Force the internal buffer to grow several times. *)
  let w = W.create () in
  for i = 0 to 9999 do
    W.bits w (i land 255) ~width:8
  done;
  checki "80000 bits" 80000 (W.length_bits w);
  let r = R.of_writer w in
  for i = 0 to 9999 do
    checki "byte back" (i land 255) (R.bits r ~width:8)
  done

let test_contents_partial_byte () =
  let w = W.create () in
  W.bits w 5 ~width:3;
  let bytes, len = W.contents w in
  checki "bit length" 3 len;
  checki "one byte" 1 (Bytes.length bytes);
  (* 101 in the top bits: 1010_0000 *)
  checki "payload" 0xA0 (Char.code (Bytes.get bytes 0))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"uvarint roundtrip" ~count:1000
         QCheck.(int_bound ((1 lsl 50) - 1))
         (fun v ->
           let w = W.create () in
           W.uvarint w v;
           R.uvarint (R.of_writer w) = v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"bit sequence roundtrip" ~count:300
         QCheck.(list bool)
         (fun bits ->
           let w = W.create () in
           List.iter (W.bit w) bits;
           let r = R.of_writer w in
           List.for_all (fun b -> R.bit r = b) bits && R.remaining_bits r = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int_list roundtrip" ~count:300
         QCheck.(list (int_bound 100000))
         (fun l ->
           let w = W.create () in
           W.int_list w l;
           R.int_list (R.of_writer w) = l));
    (* After a 3-bit prefix, so the bytes are compared unaligned too. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int_array writes the bits of int_list" ~count:300
         QCheck.(list (int_bound 100000))
         (fun l ->
           let via_list = W.create () and via_array = W.create () in
           W.bits via_list 5 ~width:3;
           W.bits via_array 5 ~width:3;
           W.int_list via_list l;
           W.int_array via_array (Array.of_list l);
           let r = R.of_writer via_array in
           ignore (R.bits r ~width:3);
           W.contents via_list = W.contents via_array && R.int_array r = Array.of_list l));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mixed width fields roundtrip" ~count:300
         QCheck.(list (pair (int_bound 20) (int_bound ((1 lsl 20) - 1))))
         (fun fields ->
           let fields = List.map (fun (width, v) -> (width, v land ((1 lsl width) - 1))) fields in
           let w = W.create () in
           List.iter (fun (width, v) -> W.bits w v ~width) fields;
           let r = R.of_writer w in
           List.for_all (fun (width, v) -> R.bits r ~width = v) fields));
    (* Mixed-op sequences: every writer operation interleaved at arbitrary
       (usually non-byte-aligned) positions must read back exactly, with
       nothing left over. Strings in particular take both paths — the
       aligned whole-byte blit and the bit-by-bit spill. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mixed op sequence roundtrip" ~count:500
         QCheck.(
           list
             (oneof
                [
                  map (fun b -> `Bit b) bool;
                  map
                    (fun (width, v) -> `Bits (width, v land ((1 lsl width) - 1)))
                    (pair (int_range 1 20) (int_bound ((1 lsl 20) - 1)));
                  map (fun v -> `Uvarint v) (int_bound ((1 lsl 40) - 1));
                  map (fun s -> `Str s) (string_gen_of_size Gen.(0 -- 12) Gen.char);
                  map (fun l -> `IntList l) (list_of_size Gen.(0 -- 6) (int_bound 100000));
                ]))
         (fun ops ->
           let w = W.create () in
           List.iter
             (function
               | `Bit b -> W.bit w b
               | `Bits (width, v) -> W.bits w v ~width
               | `Uvarint v -> W.uvarint w v
               | `Str s -> W.string w s
               | `IntList l -> W.int_list w l)
             ops;
           let r = R.of_writer w in
           List.for_all
             (function
               | `Bit b -> R.bit r = b
               | `Bits (width, v) -> R.bits r ~width = v
               | `Uvarint v -> R.uvarint r = v
               | `Str s -> R.string r ~len:(String.length s) = s
               | `IntList l -> R.int_list r = l)
             ops
           && R.remaining_bits r = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"string roundtrip at every bit offset" ~count:300
         QCheck.(pair (int_bound 7) (string_gen_of_size Gen.(0 -- 16) Gen.char))
         (fun (lead, s) ->
           let w = W.create () in
           for i = 1 to lead do
             W.bit w (i mod 2 = 0)
           done;
           W.string w s;
           let r = R.of_writer w in
           for i = 1 to lead do
             ignore (R.bit r);
             ignore i
           done;
           R.string r ~len:(String.length s) = s && R.remaining_bits r = 0));
  ]

let test_string_unaligned () =
  (* One leading bit forces the per-byte spill path; no leading bit takes
     the whole-byte blit; both must agree with [Reader.of_string] framing. *)
  let s = "hello \x00\xff world" in
  let aligned = W.create () in
  W.string aligned s;
  checki "aligned length" (8 * String.length s) (W.length_bits aligned);
  checkb "aligned roundtrip" true (R.string (R.of_writer aligned) ~len:(String.length s) = s);
  let spill = W.create () in
  W.bit spill true;
  W.string spill s;
  let r = R.of_writer spill in
  checkb "leading bit" true (R.bit r);
  checkb "unaligned roundtrip" true (R.string r ~len:(String.length s) = s);
  let r = R.of_string s in
  checki "of_string bits" (8 * String.length s) (R.remaining_bits r);
  checkb "of_string reads bytes back" true (R.string r ~len:(String.length s) = s);
  let short = R.of_string "ab" in
  checkb "string underflow" true
    (match R.string short ~len:3 with _ -> false | exception R.Underflow -> true)

let () =
  Alcotest.run "bitbuf"
    [
      ( "bitbuf",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single bits" `Quick test_single_bits;
          Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "bits invalid" `Quick test_bits_invalid;
          Alcotest.test_case "uvarint values" `Quick test_uvarint_values;
          Alcotest.test_case "uvarint size" `Quick test_uvarint_size;
          Alcotest.test_case "int list" `Quick test_int_list;
          Alcotest.test_case "underflow" `Quick test_underflow;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "partial byte" `Quick test_contents_partial_byte;
          Alcotest.test_case "string unaligned" `Quick test_string_unaligned;
        ] );
      ("bitbuf-properties", qcheck_tests);
    ]
