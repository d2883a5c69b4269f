type params = { p : int; z : int; universe : int }

let make_params rng ~universe =
  if universe <= 0 || universe >= 1 lsl 30 then invalid_arg "One_sparse.make_params: universe";
  let p = Stdx.Prime.next_prime_above (max universe (1 lsl 20)) in
  { p; z = 1 + Stdx.Prng.int rng (p - 1); universe }

let universe params = params.universe

(* Flat layout: a cell is [words] consecutive ints [s0; s1; f] inside a
   caller-owned [int array]. Sparse_recovery and L0_sampler pack their
   reps x buckets (x levels) cells into single flat buffers and drive
   them through the [_at] operations below — no per-cell boxes on the
   hot paths. *)
let words = 3

(* [m] is threaded as an argument: a local recursive helper capturing it
   would heap-allocate one closure per call, and [powmod] runs once per
   cell per update/decode on the hot paths. *)
let rec powmod_loop base exp m acc =
  if exp = 0 then acc
  else
    let acc = if exp land 1 = 1 then acc * base mod m else acc in
    powmod_loop (base * base mod m) (exp lsr 1) m acc

let powmod base exp m = powmod_loop (base mod m) exp m 1

let update_at params buf off i w =
  if i < 0 || i >= params.universe then invalid_arg "One_sparse.update_at: index";
  let p = params.p in
  buf.(off) <- buf.(off) + w;
  buf.(off + 1) <- buf.(off + 1) + (i * w);
  let wp = ((w mod p) + p) mod p in
  buf.(off + 2) <- (buf.(off + 2) + (wp * powmod params.z i p)) mod p

let add_at params ~dst doff ~src soff =
  dst.(doff) <- dst.(doff) + src.(soff);
  dst.(doff + 1) <- dst.(doff + 1) + src.(soff + 1);
  dst.(doff + 2) <- (dst.(doff + 2) + src.(soff + 2)) mod params.p

type result = Zero | Singleton of int * int | Collision

let decode_at params buf off =
  let s0 = buf.(off) and s1 = buf.(off + 1) and f = buf.(off + 2) in
  let p = params.p in
  if s0 = 0 && s1 = 0 && f = 0 then Zero
  else if s0 = 0 then Collision
  else if s1 mod s0 <> 0 then Collision
  else begin
    let i = s1 / s0 in
    if i < 0 || i >= params.universe then Collision
    else begin
      let wp = ((s0 mod p) + p) mod p in
      if wp * powmod params.z i p mod p = f then Singleton (i, s0) else Collision
    end
  end

(* Zigzag mapping so varints handle negative counters. *)
let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1
let unzigzag u = if u land 1 = 0 then u / 2 else -((u + 1) / 2)

let field_width params =
  let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
  bits params.p 0

let write_at params buf off w =
  Stdx.Bitbuf.Writer.uvarint w (zigzag buf.(off));
  Stdx.Bitbuf.Writer.uvarint w (zigzag buf.(off + 1));
  Stdx.Bitbuf.Writer.bits w buf.(off + 2) ~width:(field_width params)

let read_at params buf off r =
  buf.(off) <- unzigzag (Stdx.Bitbuf.Reader.uvarint r);
  buf.(off + 1) <- unzigzag (Stdx.Bitbuf.Reader.uvarint r);
  buf.(off + 2) <- Stdx.Bitbuf.Reader.bits r ~width:(field_width params)
