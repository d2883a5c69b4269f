(* Columnar graph core (DESIGN.md §8).

   A frozen graph is one CSR neighbour store: [row_start] (length n+1)
   indexing into [col] (length 2m), each row sorted ascending. There are
   no separate edge columns: an edge (u, v) with u < v is the entry v of
   row u, so a row-major scan that keeps the entries above the diagonal
   visits the edges in lexicographic order.

   Construction funnels through [of_keys]: an edge (u, v) with u < v is
   the single int key u*n + v (safe while n < 2^31 on 64-bit OCaml
   ints); keys that arrive unordered are radix-sorted, keys that arrive
   ascending (every generator that scans vertex pairs in order) are not,
   then [Columnar.csr_of_sorted_keys] counts the distinct ones and
   scatters them into the rows, each phase under its own
   "graph.sort"/"graph.dedup"/"graph.csr-fill" trace span.
   [Builder] is the mutable front end for incremental assembly, and
   [of_sorted_csr] / [disjoint_union] adopt already-CSR-shaped input
   without re-sorting. *)

type edge = int * int

type t = { n : int; m : int; row_start : int array; col : int array }

let normalize_edge u v =
  if u = v then invalid_arg "Graph.normalize_edge: self-loop";
  if u < v then (u, v) else (v, u)

(* Whether the first [len] entries of [keys] are non-decreasing. *)
let ascending keys len =
  let i = ref 1 in
  while !i < len && keys.(!i - 1) <= keys.(!i) do
    incr i
  done;
  !i >= len

(* Build from the first [len] entries of [keys]; duplicates are
   collapsed. Keys already in order go straight to the CSR fill, which
   reads only those [len] entries: no copy, no sort, no arena borrow.
   Otherwise the prefix is sorted (in place when it is the whole array,
   on a copy when not), so the caller's array may be reordered and must
   not be read afterwards. The three phases — sort, the distinct count,
   CSR fill — each run inside a trace span nested under "graph.freeze",
   so a Perfetto view of any experiment shows where graph-construction
   time goes. [begin_]/[end_] is safe here: freezes happen on exactly
   one logical task per domain. *)
let of_keys n keys len =
  Stdx.Trace.begin_ "graph.freeze";
  let keys =
    if ascending keys len then keys
    else begin
      let keys = if len = Array.length keys then keys else Array.sub keys 0 len in
      Stdx.Trace.begin_ "graph.sort";
      Columnar.sort_keys keys;
      Stdx.Trace.end_ ();
      keys
    end
  in
  let row_start, col = Columnar.csr_of_sorted_keys ~n keys len in
  Stdx.Trace.end_ ();
  { n; m = Array.length col / 2; row_start; col }

module Builder = struct
  type graph = t

  type t = { n : int; mutable keys : int array; mutable len : int }

  let create ?(capacity = 16) n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative n";
    { n; keys = Array.make (max capacity 1) 0; len = 0 }

  let n b = b.n
  let length b = b.len

  let add_key b key =
    if b.len = Array.length b.keys then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.keys 0 bigger 0 b.len;
      b.keys <- bigger
    end;
    b.keys.(b.len) <- key;
    b.len <- b.len + 1

  let add_edge b u v =
    if u < 0 || u >= b.n || v < 0 || v >= b.n then
      invalid_arg "Graph.Builder.add_edge: vertex out of range";
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    add_key b (if u < v then (u * b.n) + v else (v * b.n) + u)

  let freeze b : graph = of_keys b.n b.keys b.len
end

let create n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative n";
  let len = List.length edge_list in
  let keys = Array.make (max len 1) 0 in
  let i = ref 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.create: vertex out of range";
      let u, v = normalize_edge u v in
      keys.(!i) <- (u * n) + v;
      incr i)
    edge_list;
  of_keys n keys len

let of_edge_array n edge_arr =
  if n < 0 then invalid_arg "Graph.of_edge_array: negative n";
  let len = Array.length edge_arr in
  let keys = Array.make (max len 1) 0 in
  Array.iteri
    (fun i (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edge_array: vertex out of range";
      if u = v then invalid_arg "Graph.of_edge_array: self-loop";
      keys.(i) <- (if u < v then (u * n) + v else (v * n) + u))
    edge_arr;
  of_keys n keys len

(* Binary search for [v] in row [u]. *)
let mem_row g u v =
  let rec bsearch lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if g.col.(mid) = v then true else if g.col.(mid) < v then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch g.row_start.(u) g.row_start.(u + 1)

(* Without edge columns the rows are the only copy of the edge set, so
   adoption checks them in full: each row strictly ascending, in range,
   loop-free, and every entry mirrored in its neighbour's row (a binary
   search, no allocation). *)
let of_sorted_csr ~n ~row_start ~col =
  if n < 0 then invalid_arg "Graph.of_sorted_csr: negative n";
  if Array.length row_start <> n + 1 || row_start.(0) <> 0 || row_start.(n) <> Array.length col
  then invalid_arg "Graph.of_sorted_csr: row_start shape";
  if Array.length col land 1 = 1 then invalid_arg "Graph.of_sorted_csr: odd half-edge count";
  let g = { n; m = Array.length col / 2; row_start; col } in
  for u = 0 to n - 1 do
    if row_start.(u + 1) < row_start.(u) then invalid_arg "Graph.of_sorted_csr: row_start shape";
    for idx = row_start.(u) to row_start.(u + 1) - 1 do
      let v = col.(idx) in
      if v < 0 || v >= n || v = u || (idx > row_start.(u) && col.(idx - 1) >= v) then
        invalid_arg "Graph.of_sorted_csr: rows not sorted, simple and in range"
    done
  done;
  for u = 0 to n - 1 do
    for idx = row_start.(u) to row_start.(u + 1) - 1 do
      if not (mem_row g col.(idx) u) then
        invalid_arg "Graph.of_sorted_csr: not a symmetric simple adjacency"
    done
  done;
  g

let empty n = create n []

let n g = g.n
let m g = g.m
let degree g v = g.row_start.(v + 1) - g.row_start.(v)

let neighbors g v = Array.sub g.col g.row_start.(v) (degree g v)

let neighbor g v j = g.col.(g.row_start.(v) + j)

let iter_neighbors f g v =
  for idx = g.row_start.(v) to g.row_start.(v + 1) - 1 do
    f g.col.(idx)
  done

let fold_neighbors f g v init =
  let acc = ref init in
  for idx = g.row_start.(v) to g.row_start.(v + 1) - 1 do
    acc := f g.col.(idx) !acc
  done;
  !acc

let exists_neighbor p g v =
  let rec go idx = idx < g.row_start.(v + 1) && (p g.col.(idx) || go (idx + 1)) in
  go g.row_start.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let mem_edge g u v = u <> v && mem_row g u v

(* Row u's entries above the diagonal are the edges (u, v), u < v, in
   ascending v: row-major order is lexicographic edge order. *)
let iter_edges f g =
  for u = 0 to g.n - 1 do
    for idx = g.row_start.(u) to g.row_start.(u + 1) - 1 do
      let v = g.col.(idx) in
      if u < v then f u v
    done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges_array g =
  let out = Array.make g.m (0, 0) in
  let i = ref 0 in
  iter_edges
    (fun u v ->
      out.(!i) <- (u, v);
      incr i)
    g;
  out

(* Write [g]'s edge keys over [n] vertices into [keys] from [!i] on,
   with every endpoint renamed through [rename]. *)
let add_keys keys i n rename g =
  iter_edges
    (fun u v ->
      let u = rename u and v = rename v in
      keys.(!i) <- (if u < v then (u * n) + v else (v * n) + u);
      incr i)
    g

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: vertex count mismatch";
  let keys = Array.make (max (a.m + b.m) 1) 0 in
  let i = ref 0 in
  add_keys keys i a.n Fun.id a;
  add_keys keys i a.n Fun.id b;
  of_keys a.n keys (a.m + b.m)

let union_all n gs =
  let total = List.fold_left (fun acc g -> acc + g.m) 0 gs in
  let keys = Array.make (max total 1) 0 in
  let i = ref 0 in
  List.iter
    (fun g ->
      for v = n to g.n - 1 do
        if degree g v > 0 then invalid_arg "Graph.union_all: vertex out of range"
      done;
      add_keys keys i n Fun.id g)
    gs;
  of_keys n keys total

let relabel g sigma =
  if Array.length sigma <> g.n then invalid_arg "Graph.relabel: bad permutation length";
  let seen = Array.make g.n false in
  Array.iter
    (fun x ->
      if x < 0 || x >= g.n || seen.(x) then invalid_arg "Graph.relabel: not a permutation";
      seen.(x) <- true)
    sigma;
  let keys = Array.make (max g.m 1) 0 in
  add_keys keys (ref 0) g.n (Array.get sigma) g;
  of_keys g.n keys g.m

let induced g vs =
  let vs = List.sort_uniq compare vs in
  let back = Array.of_list vs in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i v -> Hashtbl.replace fwd v i) back;
  let b = Builder.create ~capacity:(Array.length back) (Array.length back) in
  iter_edges
    (fun u v ->
      match (Hashtbl.find_opt fwd u, Hashtbl.find_opt fwd v) with
      | Some u', Some v' -> Builder.add_edge b u' v'
      | _ -> ())
    g;
  (Builder.freeze b, back)

(* Fast path: both operands are already frozen CSR, and every shifted
   vertex of [b] is larger than every vertex of [a], so the concatenated
   rows are already sorted — no re-sort needed. *)
let disjoint_union a b =
  let n = a.n + b.n in
  let row_start = Array.make (n + 1) 0 in
  Array.blit a.row_start 0 row_start 0 (a.n + 1);
  let off = a.row_start.(a.n) in
  for v = 1 to b.n do
    row_start.(a.n + v) <- off + b.row_start.(v)
  done;
  let col = Array.make (off + Array.length b.col) 0 in
  Array.blit a.col 0 col 0 off;
  Array.iteri (fun i v -> col.(off + i) <- v + a.n) b.col;
  { n; m = a.m + b.m; row_start; col }

(* Rows are sorted, so the CSR of an edge set is unique. *)
let equal a b = a.n = b.n && a.row_start = b.row_start && a.col = b.col

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n g.m;
  iter_edges (fun u v -> Format.fprintf ppf "%d -- %d@," u v) g;
  Format.fprintf ppf "@]"
