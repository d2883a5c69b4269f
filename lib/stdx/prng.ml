(* xoshiro256** seeded through SplitMix64.  All state is explicit so that
   public coins can be re-derived by (seed, key) without communication.

   State layout: the four 64-bit xoshiro words live unboxed in one
   32-byte [Bytes.t] (word i at byte offset 8i, native byte order; only
   this module reads them back, so the order never shows). A record of
   [mutable int64] fields would box every word it stores, six fresh
   boxes per draw; here [bits64] loads the words into local [int64]s, runs
   one xoshiro step on them and stores them back, and because it is
   inlined into each draw the compiler keeps every intermediate in a
   register. Allocation contract: [int], [bool], [bernoulli] and
   [fill_bools] (and the internal [bits]) allocate nothing; [bits64] and
   [float] allocate their one boxed result; [create], [split],
   [split_seed] and [copy] allocate the record and its buffer. *)

type t = { st : Bytes.t; seed : int }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 output function; the k-th SplitMix64 state of a seed
   [x] is [x + k * golden_gamma], so each step below is a pure function
   of the seed and the step index. *)
let[@inline] splitmix64_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let open Int64 in
  let x = of_int seed in
  let st = Bytes.create 32 in
  set64 st 0 (splitmix64_mix (add x golden_gamma));
  set64 st 8 (splitmix64_mix (add x (mul 2L golden_gamma)));
  set64 st 16 (splitmix64_mix (add x (mul 3L golden_gamma)));
  set64 st 24 (splitmix64_mix (add x (mul 4L golden_gamma)));
  { st; seed }

(* Mix the original seed with the key through SplitMix64 so that derived
   streams for distinct keys are unrelated. *)
let split_seed seed key =
  let open Int64 in
  let a = splitmix64_mix (add (of_int seed) golden_gamma) in
  create (to_int (logxor a (mul (of_int key) golden_gamma)) land Stdlib.max_int)

let split g key = split_seed g.seed key
let copy g = { st = Bytes.copy g.st; seed = g.seed }

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the next 64 output bits. *)
let[@inline] bits64 g =
  let open Int64 in
  let st = g.st in
  let s0 = get64 st 0 and s1 = get64 st 8 and s2 = get64 st 16 and s3 = get64 st 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 st 8 (logxor s1 s2);
  set64 st 0 (logxor s0 s3);
  set64 st 16 (logxor s2 t);
  set64 st 24 (rotl s3 45);
  result

(* 62 uniform non-negative bits as a native int. *)
let[@inline] bits g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

(* [bits] is uniform on [0, 2^62); accept below [limit], the largest
   multiple of [bound] representable there. *)
let rec int_rejecting g bound limit =
  let v = bits g in
  if v < limit then v mod bound else int_rejecting g bound limit

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask_bound = bound - 1 in
  if bound land mask_bound = 0 then bits g land mask_bound
  else
    (* max_int = 2^62 - 1, so the multiple is computed without overflowing
       the native int. *)
    int_rejecting g bound (max_int / bound * bound)

let[@inline] unit_float r =
  Stdlib.float_of_int (Int64.to_int (Int64.shift_right_logical r 11)) *. 0x1p-53

let float g = unit_float (bits64 g)
let bool g = Int64.logand (bits64 g) 1L = 1L

(* One xoshiro step per element, exactly like repeated [bool] calls —
   the draw sequence is pinned by goldens, so the win is the single
   tight loop over a preallocated array, not fewer draws. *)
let fill_bools g a =
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a i (Int64.logand (bits64 g) 1L = 1L)
  done

let bernoulli g p = unit_float (bits64 g) < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

(* Floyd's algorithm: k distinct samples in O(k) expected time. *)
let sample_distinct g k n =
  if k > n then invalid_arg "Prng.sample_distinct: k > n";
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let pos = ref 0 in
  for j = n - k to n - 1 do
    let v = int g (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    out.(!pos) <- v;
    incr pos
  done;
  out
