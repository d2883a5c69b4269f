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
   at least [len] (only its first [len] slots are used, so a longer
   buffer left by an earlier, larger freeze serves as is) plus one
   257-slot count buffer reused across passes; the number of passes is
   the byte-width of the largest key, so graph keys bounded by n^2 take
   ceil(2*log2(n)/8) passes instead of the comparison sort's log-factor
   of generic-compare calls. Replaces [Array.sort] in the
   `graph.sort` phase. Both scratch buffers are arena borrows
   (PERFORMANCE.md): the sort is a leaf, so the keys are exclusive to
   this call site, and repeated freezes of no larger key sets reuse the
   same buffers. *)
let radix_sort_nonneg a =
  let len = Array.length a in
  if len > 1 then begin
    let max_key = ref 0 in
    for i = 0 to len - 1 do
      if a.(i) > !max_key then max_key := a.(i)
    done;
    let arena = Stdx.Scratch.domain () in
    let buf = Stdx.Scratch.dirty_ints_at_least arena "columnar.radix-buf" len in
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

(* The merged neighbour CSR of [Graph]'s edge keys, read straight from
   the first [len] entries of [keys] (sorted, duplicates adjacent): one
   counting pass that skips the duplicates, a prefix sum, then a scatter
   of both directions. Scanning the keys in order appends, for every row
   w, first the smaller neighbours (keys x*n+w, x ascending) and then
   the larger ones (keys w*n+y, y ascending), so each row comes out
   sorted without a per-row sort. The scatter uses [row_start] itself as
   its write cursors and shifts it back by one slot afterwards, so the
   fill borrows nothing. *)
let csr_of_sorted_keys ~n keys len =
  Stdx.Trace.begin_ "graph.dedup";
  (* Degree of v into [row_start.(v + 1)]. *)
  let row_start = Array.make (n + 1) 0 in
  let half_edges = ref 0 and last = ref min_int in
  for j = 0 to len - 1 do
    let key = keys.(j) in
    if key <> !last then begin
      let u = key / n and v = key mod n in
      row_start.(u + 1) <- row_start.(u + 1) + 1;
      row_start.(v + 1) <- row_start.(v + 1) + 1;
      half_edges := !half_edges + 2;
      last := key
    end
  done;
  Stdx.Trace.end_ ();
  Stdx.Trace.begin_ "graph.csr-fill";
  for v = 1 to n do
    row_start.(v) <- row_start.(v) + row_start.(v - 1)
  done;
  let col = Array.make !half_edges 0 in
  let last = ref min_int in
  for j = 0 to len - 1 do
    let key = keys.(j) in
    if key <> !last then begin
      let u = key / n and v = key mod n in
      col.(row_start.(u)) <- v;
      row_start.(u) <- row_start.(u) + 1;
      col.(row_start.(v)) <- u;
      row_start.(v) <- row_start.(v) + 1;
      last := key
    end
  done;
  (* Each cursor now holds its row's end, the next row's start. *)
  for v = n downto 1 do
    row_start.(v) <- row_start.(v - 1)
  done;
  row_start.(0) <- 0;
  Stdx.Trace.end_ ();
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
