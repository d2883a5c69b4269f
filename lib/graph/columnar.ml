(* Columnar freeze primitives shared by [Graph] and [Hypergraph]: key
   sorting, adjacent deduplication, and CSR index fills. Everything here
   is allocation-disciplined plain-int-array code — the hot interior of
   [Graph.of_keys] and [Hypergraph.Builder.freeze]. *)

let int_compare (a : int) b = compare a b

(* Below this length the constant costs of counting passes lose to the
   stdlib's in-place sort; measured on the `u*n+v` key distribution the
   crossover sits well under this, so the threshold is conservative. *)
let radix_threshold = 512

(* LSD radix sort, base 256, on non-negative keys. One scratch array of
   [len] plus one 257-slot count buffer reused across passes; the number
   of passes is the byte-width of the largest key, so graph keys bounded
   by n^2 take ceil(2*log2(n)/8) passes instead of the comparison sort's
   log-factor of generic-compare calls. Replaces [Array.sort] in the
   `graph.sort` phase. Both scratch buffers are arena borrows
   (PERFORMANCE.md): the sort is a leaf, so the keys are exclusive to
   this call site, and repeated freezes of same-sized key sets reuse the
   same buffers. *)
let radix_sort_nonneg a =
  let len = Array.length a in
  if len > 1 then begin
    let max_key = ref 0 in
    for i = 0 to len - 1 do
      if a.(i) > !max_key then max_key := a.(i)
    done;
    let arena = Stdx.Scratch.domain () in
    let buf = Stdx.Scratch.dirty_ints arena "columnar.radix-buf" len in
    let count = Stdx.Scratch.dirty_ints arena "columnar.radix-count" 257 in
    let src = ref a and dst = ref buf in
    let shift = ref 0 in
    while !shift = 0 || !max_key lsr !shift > 0 do
      Array.fill count 0 257 0;
      let s = !src and d = !dst in
      let sh = !shift in
      for i = 0 to len - 1 do
        let b = (s.(i) lsr sh) land 0xff in
        count.(b + 1) <- count.(b + 1) + 1
      done;
      for b = 1 to 256 do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for i = 0 to len - 1 do
        let key = s.(i) in
        let b = (key lsr sh) land 0xff in
        d.(count.(b)) <- key;
        count.(b) <- count.(b) + 1
      done;
      let t = !src in
      src := !dst;
      dst := t;
      shift := sh + 8
    done;
    if !src != a then Array.blit !src 0 a 0 len
  end

let sort_keys a =
  if Array.length a < radix_threshold then Array.sort int_compare a else radix_sort_nonneg a

(* Number of distinct values in a sorted array. *)
let count_distinct keys =
  let count = ref 0 and last = ref min_int in
  Array.iter
    (fun key ->
      if key <> !last then begin
        incr count;
        last := key
      end)
    keys;
  !count

(* The merged neighbour CSR of an undirected edge list in lexicographic
   (eu, ev) order with eu < ev: count degrees, prefix-sum, then scatter
   both directions. Scanning edges lexicographically appends, for every
   row w, first the smaller neighbours (edges (x, w), x ascending) and
   then the larger ones (edges (w, y), y ascending), so each row comes
   out sorted without a per-row sort. *)
let neighbor_csr ~n ~eu ~ev =
  let m = Array.length eu in
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    row_start.(eu.(i) + 1) <- row_start.(eu.(i) + 1) + 1;
    row_start.(ev.(i) + 1) <- row_start.(ev.(i) + 1) + 1
  done;
  for v = 1 to n do
    row_start.(v) <- row_start.(v) + row_start.(v - 1)
  done;
  let col = Array.make (2 * m) 0 in
  (* The write cursors are a throwaway copy of the prefix sums — an arena
     borrow, not an allocation, since they never escape the fill. *)
  let cursor = Stdx.Scratch.dirty_ints (Stdx.Scratch.domain ()) "columnar.neighbor-cursor" (max n 1) in
  Array.blit row_start 0 cursor 0 (max n 1);
  for i = 0 to m - 1 do
    let u = eu.(i) and v = ev.(i) in
    col.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    col.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  (row_start, col)

(* Incidence CSR of a segment column: one entry per (row, value)
   occurrence, domain ids ascending within each codomain row (scatter in
   domain order). *)
let incidence_of_segments ~cod_count ~seg_row ~seg_val =
  let dom_count = Array.length seg_row - 1 in
  let total = Array.length seg_val in
  let row = Array.make (cod_count + 1) 0 in
  for i = 0 to total - 1 do
    row.(seg_val.(i) + 1) <- row.(seg_val.(i) + 1) + 1
  done;
  for v = 1 to cod_count do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let ids = Array.make total 0 in
  let cursor =
    Stdx.Scratch.dirty_ints (Stdx.Scratch.domain ()) "columnar.incidence-seg-cursor"
      (max cod_count 1)
  in
  Array.blit row 0 cursor 0 (max cod_count 1);
  for e = 0 to dom_count - 1 do
    for idx = seg_row.(e) to seg_row.(e + 1) - 1 do
      let v = seg_val.(idx) in
      ids.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  (row, ids)
