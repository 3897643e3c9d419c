(** Order statistics over measured samples. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(** Percentile [q] (0..1) of a sorted array, linear between the closest
    ranks; nan on an empty array. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = percentile (sorted l) 0.5

(** First and third quartiles the way Python's
    [statistics.quantiles(data, n=4)] computes them (the "exclusive"
    method) — the spread the benchmark's acceptance rule is written in.
    A single sample is its own quartiles. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(** Interquartile distance as a share of the median. *)
let spread l =
  let q1, q3 = quartiles l in
  (q3 -. q1) /. Float.abs (median l)
