(* Order statistics for benchmark samples.

   Two rules live here because every report depends on them:
   - a tail is reported at the highest percentile that still has at least
     [min_beyond] samples beyond it, so a "p99" is never the maximum of a
     few dozen samples;
   - run-to-run spread is the distance between the first and third
     quartile over the median, with quartiles computed exactly as
     Python's [statistics.quantiles(values, n=4)] (its default
     "exclusive" method), so this harness and an outside checker agree on
     every number. *)

let min_beyond = 10

(* Percentiles in thousandths, so the rank arithmetic stays exact. *)
let ladder = [ 999; 990; 900; 500 ]

(* The nearest-rank p-quantile of [n] samples is the one at rank
   ceil(n * p); [n] minus that rank sit beyond it. *)
let beyond ~n k = n - (((n * k) + 999) / 1000)

let tail_percentile n =
  List.find_opt (fun k -> beyond ~n k >= min_beyond) ladder
  |> Option.map (fun k -> float_of_int k /. 1000.)

let percentile_label p =
  let s = Printf.sprintf "%g" (p *. 100.) in
  "p" ^ s

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics of a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let quantile xs q = quantile_sorted (sorted xs) q

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(data, n=4)], method "exclusive":
   m = len + 1, cut i at i*m/4 with exact integer interpolation. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Summary.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
