type params = {
  cell : One_sparse.params;
  hashes : Stdx.Hashing.t array;  (** one per repetition *)
  buckets : int;
}

let make_params rng ~universe ~buckets ~reps =
  if buckets < 1 || reps < 1 then invalid_arg "Sparse_recovery.make_params";
  {
    cell = One_sparse.make_params rng ~universe;
    hashes = Array.init reps (fun _ -> Stdx.Hashing.sample rng ~universe ~buckets);
    buckets;
  }

let universe params = One_sparse.universe params.cell

(* Flat layout: reps x buckets one-sparse cells, row-major by
   repetition, each [One_sparse.words] ints wide, in a caller-owned
   region starting at some offset. *)
let cells params = Array.length params.hashes * params.buckets
let words params = cells params * One_sparse.words

let update_at params buf off i w =
  Array.iteri
    (fun rep h ->
      let bucket = Stdx.Hashing.apply h i in
      One_sparse.update_at params.cell buf
        (off + ((rep * params.buckets) + bucket) * One_sparse.words)
        i w)
    params.hashes

let add_at params ~dst doff ~src soff =
  for c = 0 to cells params - 1 do
    let o = c * One_sparse.words in
    One_sparse.add_at params.cell ~dst (doff + o) ~src (soff + o)
  done

(* Peeling decode over a scratch copy of the region. The work buffer is
   borrowed from the domain arena under one fixed key: decode never
   nests inside itself, and its length is constant per (reps, buckets),
   so steady workloads hit the cached buffer every call. *)
let scratch_key = "sparse_recovery.decode"

let rec all_zero buf off len = len = 0 || (buf.(off) = 0 && all_zero buf (off + 1) (len - 1))

let decode_at params buf off =
  let len = words params in
  (* Empty levels dominate the referee's scans: an all-zero region peels
     to nothing and verifies clean, so answer without borrowing scratch
     or building the recovery table. *)
  if all_zero buf off len then Some []
  else begin
  let work = Stdx.Scratch.dirty_ints (Stdx.Scratch.domain ()) scratch_key len in
  Array.blit buf off work 0 len;
  let recovered = Hashtbl.create 16 in
  let subtract i w = update_at params work 0 i (-w) in
  (* A false singleton (fingerprint collision) could in principle make
     peeling oscillate; cap the number of passes to rule that out. *)
  let passes = ref 0 in
  let max_passes = 4 + (4 * cells params) in
  let progress = ref true in
  while !progress && !passes < max_passes do
    incr passes;
    progress := false;
    for c = 0 to cells params - 1 do
      match One_sparse.decode_at params.cell work (c * One_sparse.words) with
      | Singleton (i, w) when w <> 0 ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt recovered i) in
          Hashtbl.replace recovered i (prev + w);
          subtract i w;
          progress := true
      | Zero | Singleton _ | Collision -> ()
    done
  done;
  let clean = ref true in
  for c = 0 to cells params - 1 do
    if One_sparse.decode_at params.cell work (c * One_sparse.words) <> Zero then clean := false
  done;
  if not !clean then None
  else
    Some
      (Hashtbl.fold (fun i w acc -> if w <> 0 then (i, w) :: acc else acc) recovered []
      |> List.sort compare)
  end

let write_at params buf off w =
  for c = 0 to cells params - 1 do
    One_sparse.write_at params.cell buf (off + (c * One_sparse.words)) w
  done

let read_at params buf off r =
  for c = 0 to cells params - 1 do
    One_sparse.read_at params.cell buf (off + (c * One_sparse.words)) r
  done
