(* Hypergraphs on vertex set [0, n) (DESIGN.md §8).

   A hyperedge is its sorted set of distinct pins (arity >= 2). The
   builder appends each normalised hyperedge to a flat row buffer
   ([data], with row starts in [offs]); [freeze] sorts the rows
   lexicographically (shorter prefix first; [of_graph]'s arrive in that
   order and skip the sort), drops adjacent duplicates,
   and fills two frozen CSRs: the pins segments (edge -> sorted
   vertices, [pin_row]/[pin_val]) and the incidence index (vertex ->
   incident edge ids, ascending, [inc_row]/[inc_val]). Edge ids thus
   enumerate the distinct hyperedges in lexicographic pin order. A graph
   is exactly the 2-uniform special case; [of_graph] embeds one. *)

type t = {
  n : int;
  m : int;
  pin_row : int array;  (* length m+1: edge e pins at pin_val.(pin_row.(e)..) *)
  pin_val : int array;
  inc_row : int array;  (* length n+1: vertex v edges at inc_val.(inc_row.(v)..) *)
  inc_val : int array;
}

(* Normalise one hyperedge in place of the caller's scratch: sort the
   pins, drop duplicates, reject arity < 2 (the self-loop analogue) and
   out-of-range vertices. Returns the normalised pins as a fresh array. *)
let normalize_pins n pins =
  let pins = Array.copy pins in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Hypergraph: pin out of range")
    pins;
  Array.sort compare pins;
  let k = Array.length pins in
  let distinct = ref 0 in
  for i = 0 to k - 1 do
    if i = 0 || pins.(i) <> pins.(i - 1) then begin
      pins.(!distinct) <- pins.(i);
      incr distinct
    end
  done;
  if !distinct < 2 then invalid_arg "Hypergraph: hyperedge needs >= 2 distinct pins";
  if !distinct = k then pins else Array.sub pins 0 !distinct

(* Lexicographic order on rows [a] and [b] of a builder's flat buffer
   (row [i] is [data.(offs.(i)) .. data.(offs.(i+1)-1)]), shorter prefix
   first. A plain loop over the common prefix: a comparison captures
   nothing, so the row sort allocates no closure per compare. *)
let compare_rows data offs a b =
  let oa = offs.(a) and ob = offs.(b) in
  let la = offs.(a + 1) - oa and lb = offs.(b + 1) - ob in
  let common = min la lb in
  let j = ref 0 in
  while !j < common && data.(oa + !j) = data.(ob + !j) do
    incr j
  done;
  if !j < common then Int.compare data.(oa + !j) data.(ob + !j) else Int.compare la lb

(* Whether rows [0 .. rlen-1] already arrive in lexicographic order
   (duplicates adjacent), as [of_graph] adds them. *)
let rows_ascending data offs rlen =
  let i = ref 1 in
  while !i < rlen && compare_rows data offs (!i - 1) !i <= 0 do
    incr i
  done;
  !i >= rlen

module Builder = struct
  type hypergraph = t

  (* Row [i]'s pins are [data.(offs.(i)) .. data.(offs.(i+1)-1)], with
     [dlen] standing in for the missing [offs.(rlen)]. *)
  type t = {
    n : int;
    mutable data : int array;
    mutable dlen : int;
    mutable offs : int array;
    mutable rlen : int;
  }

  let create ?(capacity = 16) n =
    if n < 0 then invalid_arg "Hypergraph.Builder.create: negative n";
    let capacity = max capacity 1 in
    { n; data = Array.make (capacity * 4) 0; dlen = 0; offs = Array.make capacity 0; rlen = 0 }

  let n b = b.n
  let length b = b.rlen

  let add_edge b pins =
    let pins = normalize_pins b.n pins in
    let l = Array.length pins in
    if b.rlen = Array.length b.offs then begin
      let bigger = Array.make (2 * b.rlen) 0 in
      Array.blit b.offs 0 bigger 0 b.rlen;
      b.offs <- bigger
    end;
    b.offs.(b.rlen) <- b.dlen;
    b.rlen <- b.rlen + 1;
    if b.dlen + l > Array.length b.data then begin
      let bigger = Array.make (max (2 * Array.length b.data) (b.dlen + l)) 0 in
      Array.blit b.data 0 bigger 0 b.dlen;
      b.data <- bigger
    end;
    Array.blit pins 0 b.data b.dlen l;
    b.dlen <- b.dlen + l

  (* Lexicographic sort of row indices (skipped when the rows arrive
     in order), adjacent dedup into the pins CSR, then the incidence
     fill — each phase under its own "hypergraph.*" span nested in
     "hypergraph.freeze". *)
  let freeze b : hypergraph =
    Stdx.Trace.begin_ "hypergraph.freeze";
    let n = b.n and data = b.data and rlen = b.rlen in
    (* Seal the offsets array so offs.(rlen) is the data length. *)
    let offs =
      if rlen < Array.length b.offs then b.offs
      else begin
        let bigger = Array.make (rlen + 1) 0 in
        Array.blit b.offs 0 bigger 0 rlen;
        bigger
      end
    in
    offs.(rlen) <- b.dlen;
    let row_len i = offs.(i + 1) - offs.(i) in
    let order = Array.init rlen Fun.id in
    if not (rows_ascending data offs rlen) then begin
      Stdx.Trace.begin_ "hypergraph.sort";
      Array.sort (compare_rows data offs) order;
      Stdx.Trace.end_ ()
    end;
    Stdx.Trace.begin_ "hypergraph.dedup";
    let keep = Array.make rlen false in
    let m = ref 0 and total = ref 0 in
    for i = 0 to rlen - 1 do
      if i = 0 || compare_rows data offs order.(i - 1) order.(i) <> 0 then begin
        keep.(i) <- true;
        incr m;
        total := !total + row_len order.(i)
      end
    done;
    let m = !m in
    let pin_row = Array.make (m + 1) 0 in
    let pin_val = Array.make !total 0 in
    let e = ref 0 and out = ref 0 in
    for i = 0 to rlen - 1 do
      if keep.(i) then begin
        let r = order.(i) in
        Array.blit data offs.(r) pin_val !out (row_len r);
        out := !out + row_len r;
        incr e;
        pin_row.(!e) <- !out
      end
    done;
    Stdx.Trace.end_ ();
    Stdx.Trace.begin_ "hypergraph.csr-fill";
    let inc_row, inc_val =
      Columnar.incidence_of_segments ~cod_count:n ~seg_row:pin_row ~seg_val:pin_val
    in
    Stdx.Trace.end_ ();
    Stdx.Trace.end_ ();
    { n; m; pin_row; pin_val; inc_row; inc_val }
end

let create n edge_list =
  if n < 0 then invalid_arg "Hypergraph.create: negative n";
  let b = Builder.create ~capacity:(max (List.length edge_list) 1) n in
  List.iter (fun pins -> Builder.add_edge b (Array.of_list pins)) edge_list;
  Builder.freeze b

let of_edge_array n edges =
  if n < 0 then invalid_arg "Hypergraph.of_edge_array: negative n";
  let b = Builder.create ~capacity:(max (Array.length edges) 1) n in
  Array.iter (fun pins -> Builder.add_edge b pins) edges;
  Builder.freeze b

let of_graph g =
  let b = Builder.create ~capacity:(max (Graph.m g) 1) (Graph.n g) in
  Graph.iter_edges (fun u v -> Builder.add_edge b [| u; v |]) g;
  Builder.freeze b

let empty n = create n []

let n h = h.n
let m h = h.m
let arity h e = h.pin_row.(e + 1) - h.pin_row.(e)
let pins h e = Array.sub h.pin_val h.pin_row.(e) (arity h e)
let pin h e j = h.pin_val.(h.pin_row.(e) + j)

let iter_pins f h e =
  for idx = h.pin_row.(e) to h.pin_row.(e + 1) - 1 do
    f h.pin_val.(idx)
  done

let fold_pins f h e init =
  let acc = ref init in
  for idx = h.pin_row.(e) to h.pin_row.(e + 1) - 1 do
    acc := f h.pin_val.(idx) !acc
  done;
  !acc

let for_all_pins p h e =
  let rec go idx = idx >= h.pin_row.(e + 1) || (p h.pin_val.(idx) && go (idx + 1)) in
  go h.pin_row.(e)

let exists_pin p h e =
  let rec go idx = idx < h.pin_row.(e + 1) && (p h.pin_val.(idx) || go (idx + 1)) in
  go h.pin_row.(e)

let max_arity h =
  let best = ref 0 in
  for e = 0 to h.m - 1 do
    if arity h e > !best then best := arity h e
  done;
  !best

let degree h v = h.inc_row.(v + 1) - h.inc_row.(v)
let incident h v = Array.sub h.inc_val h.inc_row.(v) (degree h v)

let iter_incident f h v =
  for idx = h.inc_row.(v) to h.inc_row.(v + 1) - 1 do
    f h.inc_val.(idx)
  done

let fold_incident f h v init =
  let acc = ref init in
  for idx = h.inc_row.(v) to h.inc_row.(v + 1) - 1 do
    acc := f h.inc_val.(idx) !acc
  done;
  !acc

let exists_incident p h v =
  let rec go idx = idx < h.inc_row.(v + 1) && (p h.inc_val.(idx) || go (idx + 1)) in
  go h.inc_row.(v)

let iter_edges f h =
  for e = 0 to h.m - 1 do
    f e
  done

(* Compare hyperedge [e]'s pins to a normalised pin array, in the
   frozen row order (lexicographic, shorter-prefix-first). *)
let compare_pins h e pins =
  let ka = arity h e and kb = Array.length pins in
  let o = h.pin_row.(e) in
  let rec go j =
    if j >= ka || j >= kb then compare ka kb
    else
      let c = compare (h.pin_val.(o + j) : int) pins.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

let find_edge h pins_raw =
  let pins = normalize_pins h.n pins_raw in
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare_pins h mid pins in
      if c = 0 then Some mid else if c < 0 then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 h.m

let mem_edge h pins = find_edge h pins <> None

let equal a b = a.n = b.n && a.pin_row = b.pin_row && a.pin_val = b.pin_val

let pp ppf h =
  Format.fprintf ppf "@[<v>hypergraph n=%d m=%d@," h.n h.m;
  for e = 0 to h.m - 1 do
    Format.fprintf ppf "{";
    for j = 0 to arity h e - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%d" (pin h e j)
    done;
    Format.fprintf ppf "}@,"
  done;
  Format.fprintf ppf "@]"
