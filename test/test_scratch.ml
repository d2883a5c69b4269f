(* Tests for Stdx.Scratch: the per-domain keyed arena behind the hot
   experiment loops. Pins the ownership contract of PERFORMANCE.md —
   zero-fill on borrow, physical reuse at a stable length, realloc on a
   length change, key exclusivity, dirty and at-least borrows, and the
   Parallel chunk wiring. *)

module S = Stdx.Scratch

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_zero_fill () =
  let t = S.create () in
  let a = S.ints t "k" 8 in
  checkb "fresh is zero" true (Array.for_all (fun x -> x = 0) a);
  Array.fill a 0 8 42;
  let b = S.ints t "k" 8 in
  checkb "re-borrow is reset to zero" true (Array.for_all (fun x -> x = 0) b);
  let f = S.floats t "f" 4 in
  f.(0) <- 3.5;
  checkb "float re-borrow is reset" true
    (Array.for_all (fun x -> x = 0.0) (S.floats t "f" 4))

let test_physical_reuse () =
  let t = S.create () in
  let a = S.ints t "k" 16 in
  let b = S.ints t "k" 16 in
  checkb "same backing store at same length" true (a == b);
  let f1 = S.floats t "f" 16 in
  checkb "float reuse" true (f1 == S.floats t "f" 16)

let test_realloc_on_length_change () =
  let t = S.create () in
  let a = S.ints t "k" 8 in
  let b = S.ints t "k" 9 in
  checkb "length change reallocates" true (not (a == b));
  checki "new length" 9 (Array.length b);
  let s = S.stats t in
  checki "two reallocs" 2 s.S.reallocs;
  checki "two borrows" 2 s.S.borrows;
  (* Back at the cached length 9: no further realloc. *)
  ignore (S.ints t "k" 9);
  checki "steady state reallocs flat" 2 (S.stats t).S.reallocs;
  checki "steady state borrows grow" 3 (S.stats t).S.borrows

let test_key_exclusivity () =
  let t = S.create () in
  let a = S.ints t "a" 8 and b = S.ints t "b" 8 in
  checkb "distinct keys never alias" true (not (a == b));
  a.(0) <- 7;
  checki "writes do not leak across keys" 0 b.(0);
  (* A key caches one buffer: switching element type at the same key is
     a realloc (the int entry is replaced), not an alias. *)
  let r0 = (S.stats t).S.reallocs in
  ignore (S.floats t "a" 8);
  checki "type change reallocates" (r0 + 1) (S.stats t).S.reallocs;
  checki "detached borrow keeps its contents" 7 a.(0)

let test_dirty_borrow () =
  let t = S.create () in
  let a = S.dirty_ints t "k" 8 in
  checkb "fresh dirty borrow is still zero (new allocation)" true
    (Array.for_all (fun x -> x = 0) a);
  Array.fill a 0 8 9;
  let b = S.dirty_ints t "k" 8 in
  checkb "dirty re-borrow reuses" true (a == b);
  checki "dirty re-borrow skips the fill" 9 b.(0);
  let c = S.ints t "k" 8 in
  checkb "clean borrow of the same key resets" true (Array.for_all (fun x -> x = 0) c)

let test_at_least_borrow () =
  let t = S.create () in
  let a = S.dirty_ints_at_least t "k" 16 in
  checki "first borrow has the asked length" 16 (Array.length a);
  checkb "a shorter borrow reuses the longer buffer" true (a == S.dirty_ints_at_least t "k" 5);
  checkb "an equal borrow reuses it" true (a == S.dirty_ints_at_least t "k" 16);
  checki "no realloc while it fits" 1 (S.stats t).S.reallocs;
  let b = S.dirty_ints_at_least t "k" 17 in
  checkb "growing past it reallocates" true ((not (a == b)) && Array.length b = 17);
  checki "one realloc for the growth" 2 (S.stats t).S.reallocs;
  checki "every borrow counted" 4 (S.stats t).S.borrows

let test_negative_length () =
  let t = S.create () in
  List.iter
    (fun (msg, f) -> Alcotest.check_raises "negative length" (Invalid_argument msg) f)
    [
      ("Scratch.ints: negative length", fun () -> ignore (S.ints t "k" (-1)));
      ("Scratch.ints: negative length", fun () -> ignore (S.dirty_ints t "k" (-1)));
      ("Scratch.ints: negative length", fun () -> ignore (S.dirty_ints_at_least t "k" (-1)));
      ("Scratch.floats: negative length", fun () -> ignore (S.floats t "k" (-1)));
      ("Scratch.floats: negative length", fun () -> ignore (S.dirty_floats t "k" (-1)));
    ]

let test_clear () =
  let t = S.create () in
  ignore (S.ints t "a" 8);
  ignore (S.floats t "b" 8);
  checkb "keys cached" true ((S.stats t).S.keys > 0);
  S.clear t;
  let s = S.stats t in
  checki "no keys after clear" 0 s.S.keys;
  checki "borrows reset" 0 s.S.borrows;
  checki "reallocs reset" 0 s.S.reallocs;
  checki "no live words" 0 s.S.live_words

let test_live_words () =
  let t = S.create () in
  ignore (S.ints t "a" 10);
  let w10 = (S.stats t).S.live_words in
  checkb "counts contents plus header" true (w10 >= 10);
  ignore (S.ints t "a" 100);
  checkb "tracks the realloc" true ((S.stats t).S.live_words > w10)

let test_domain_arena () =
  let a = S.domain () in
  checkb "same arena on repeated calls" true (a == S.domain ());
  let other = Domain.spawn (fun () -> S.domain () == a) in
  checkb "other domains get their own arena" false (Domain.join other)

let test_chunk_begin () =
  let c0 = S.chunk_count () in
  S.chunk_begin ();
  checki "chunk_begin bumps the counter" (c0 + 1) (S.chunk_count ())

let test_parallel_wiring () =
  (* Parallel.init must call chunk_begin in the filling domain: a
     sequential fill runs on the calling domain, so the counter here
     must move. *)
  let c0 = S.chunk_count () in
  let a = Stdx.Parallel.init ~jobs:1 4 (fun i -> i * i) in
  checkb "a chunk fill notifies the arena layer" true (S.chunk_count () > c0);
  checki "fill ran" 9 a.(3)

let () =
  Alcotest.run "scratch"
    [
      ( "arena",
        [
          Alcotest.test_case "zero fill" `Quick test_zero_fill;
          Alcotest.test_case "physical reuse" `Quick test_physical_reuse;
          Alcotest.test_case "realloc on length change" `Quick test_realloc_on_length_change;
          Alcotest.test_case "key exclusivity" `Quick test_key_exclusivity;
          Alcotest.test_case "dirty borrow" `Quick test_dirty_borrow;
          Alcotest.test_case "at-least borrow" `Quick test_at_least_borrow;
          Alcotest.test_case "negative length" `Quick test_negative_length;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "live words" `Quick test_live_words;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "domain arena" `Quick test_domain_arena;
          Alcotest.test_case "chunk begin" `Quick test_chunk_begin;
          Alcotest.test_case "parallel wiring" `Quick test_parallel_wiring;
        ] );
    ]
