(* Closure operations on RS graphs, shared by test_rs and test_accounting.

   The RS property is preserved by several natural operations; these give
   the suites a cheap way to build bespoke instances with prescribed
   (r, t) from verified building blocks. Everything returned here
   re-validates through [Rs_graph.of_matchings].

   - [disjoint_union]: (r, t1) + (r, t2) = (r, t1 + t2); needs equal r.
   - [widen]: matching j of the result is M_j + M'_j on disjoint vertex
     sets, (r1, t) + (r2, t) = (r1 + r2, t); needs equal t.
   - [take_matchings rs t']: the sub-RS graph on the first t' matchings,
     vertex set unchanged.
   - [shrink_matchings rs r']: the first r' edges of every matching. *)

module Rs_graph = Rsgraph.Rs_graph

let shift_matchings offset matchings =
  Array.map (Array.map (fun (u, v) -> (u + offset, v + offset))) matchings

let disjoint_union a b =
  if a.Rs_graph.r <> b.Rs_graph.r then invalid_arg "Derived.disjoint_union: unequal r";
  let na = Rs_graph.n a in
  let matchings = Array.append a.Rs_graph.matchings (shift_matchings na b.Rs_graph.matchings) in
  Rs_graph.of_matchings ~n:(na + Rs_graph.n b) matchings

let widen a b =
  if a.Rs_graph.t_count <> b.Rs_graph.t_count then invalid_arg "Derived.widen: unequal t";
  let na = Rs_graph.n a in
  let shifted = shift_matchings na b.Rs_graph.matchings in
  let matchings =
    Array.init a.Rs_graph.t_count (fun j -> Array.append a.Rs_graph.matchings.(j) shifted.(j))
  in
  Rs_graph.of_matchings ~n:(na + Rs_graph.n b) matchings

let take_matchings rs t' =
  if t' < 1 || t' > rs.Rs_graph.t_count then invalid_arg "Derived.take_matchings";
  Rs_graph.of_matchings ~n:(Rs_graph.n rs) (Array.sub rs.Rs_graph.matchings 0 t')

let shrink_matchings rs r' =
  if r' < 1 || r' > rs.Rs_graph.r then invalid_arg "Derived.shrink_matchings";
  Rs_graph.of_matchings ~n:(Rs_graph.n rs)
    (Array.map (fun m -> Array.sub m 0 r') rs.Rs_graph.matchings)
