module Graph = Dgraph.Graph
module Matching = Dgraph.Matching

type pass_stat = {
  pass : int;
  events : int;
  kept_edges : int;
  memory_bits : int;
  matching_size : int;
  augmented : int;
}

type result = {
  matching : Matching.t;
  passes : pass_stat list;
  peak_memory_bits : int;
  converged : bool;
}

let bits_per_vertex n =
  let rec go b v = if v >= n then b else go (b + 1) (v * 2) in
  go 1 2

(* Matching state between passes: the matched-vertex bitmap plus two
   vertex ids per matched pair — the same accounting as
   [Insertion_greedy.mm_state_bits]. *)
let matching_bits ~n size = n + (size * 2 * bits_per_vertex n)

let pass_span ~pass ~memory_bits ~matching_size body =
  Stdx.Trace.span
    ~args:(fun () ->
      [
        ("pass", Stdx.Trace.Int pass);
        ("memory_bits", Stdx.Trace.Int memory_bits);
        ("matching_size", Stdx.Trace.Int matching_size);
      ])
    "stream.pass" body

let insert_only_edges stream =
  List.map
    (function
      | Stream.Insert e -> e
      | Stream.Delete _ ->
          invalid_arg "Stream_matching.run: dynamic streams are not supported")
    stream.Stream.events

let run ?(eps = 0.25) ?max_passes stream =
  if eps <= 0.0 then invalid_arg "Stream_matching.run: eps must be positive";
  let n = stream.Stream.n in
  let edges = insert_only_edges stream in
  let events = List.length edges in
  let k = max 1 (int_of_float (ceil (1.0 /. eps))) in
  let max_passes = match max_passes with Some p -> max 1 p | None -> k * k in
  (* Pass 1: greedy maximal matching, the one-pass 2-approximation. *)
  let matched = Array.make n false in
  let m = ref [] in
  List.iter
    (fun (u, v) ->
      if (not matched.(u)) && not matched.(v) then begin
        matched.(u) <- true;
        matched.(v) <- true;
        m := (u, v) :: !m
      end)
    edges;
  let matching = ref (List.rev !m) in
  let size = ref (List.length !matching) in
  let mem1 = matching_bits ~n !size in
  let first_stat =
    pass_span ~pass:1 ~memory_bits:mem1 ~matching_size:!size (fun () ->
        {
          pass = 1;
          events;
          kept_edges = !size;
          memory_bits = mem1;
          matching_size = !size;
          augmented = !size;
        })
  in
  let stats = ref [ first_stat ] in
  let converged = ref false in
  let pass = ref 2 in
  while (not !converged) && !pass <= max_passes do
    let p = !pass in
    (* Sparsifier pass: keep up to 2k edges at a free endpoint, k at a
       matched one — free vertices are where augmenting paths start, so
       they get the larger budget. *)
    let matched_now = Array.make n false in
    List.iter
      (fun (u, v) ->
        matched_now.(u) <- true;
        matched_now.(v) <- true)
      !matching;
    let cap v = if matched_now.(v) then k else 2 * k in
    let kept_deg = Array.make n 0 in
    let builder = Graph.Builder.create ~capacity:(max 16 ((n * k) / 2)) n in
    let kept = ref 0 in
    List.iter
      (fun (u, v) ->
        if kept_deg.(u) < cap u && kept_deg.(v) < cap v then begin
          kept_deg.(u) <- kept_deg.(u) + 1;
          kept_deg.(v) <- kept_deg.(v) + 1;
          Graph.Builder.add_edge builder u v;
          incr kept
        end)
      edges;
    (* The current matching rides along so blossom can only grow it. *)
    List.iter (fun (u, v) -> Graph.Builder.add_edge builder u v) !matching;
    let sub = Graph.Builder.freeze builder in
    let memory_bits =
      matching_bits ~n !size + (!kept * 2 * bits_per_vertex n)
    in
    let stat =
      pass_span ~pass:p ~memory_bits ~matching_size:!size (fun () ->
          let improved = Dgraph.Blossom.maximum_matching sub in
          let new_size = Matching.size improved in
          let augmented = new_size - !size in
          if augmented > 0 then begin
            matching := improved;
            size := new_size
          end
          else converged := true;
          {
            pass = p;
            events;
            kept_edges = !kept;
            memory_bits;
            matching_size = !size;
            augmented = max 0 augmented;
          })
    in
    stats := stat :: !stats;
    incr pass
  done;
  (* Blossom maximises over the sparsified subgraph only: an edge the
     caps dropped can be left with both endpoints free when augmenting
     frees a previously matched vertex. One last greedy sweep over the
     stream restores maximality in the full graph — the same one-pass
     memory budget as pass 1, and a no-op on almost every instance. *)
  let matched_fin = Array.make n false in
  List.iter
    (fun (u, v) ->
      matched_fin.(u) <- true;
      matched_fin.(v) <- true)
    !matching;
  let extra = ref [] in
  List.iter
    (fun (u, v) ->
      if (not matched_fin.(u)) && not matched_fin.(v) then begin
        matched_fin.(u) <- true;
        matched_fin.(v) <- true;
        extra := (u, v) :: !extra
      end)
    edges;
  if !extra <> [] then matching := !matching @ List.rev !extra;
  let passes = List.rev !stats in
  {
    matching = !matching;
    passes;
    peak_memory_bits = List.fold_left (fun acc s -> max acc s.memory_bits) 0 passes;
    converged = !converged;
  }
