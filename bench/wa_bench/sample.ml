type t = float array (* sorted ascending *)

let of_array a =
  if Array.exists Float.is_nan a then invalid_arg "Sample: NaN sample";
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let of_list l = of_array (Array.of_list l)
let count = Array.length

(* 1-based nearest rank.  [p *. n] is exact for the integral
   percentiles; the epsilon keeps p99.9 of 1000 samples at rank 999
   instead of 1000 when the product rounds up. *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))))

let percentile t p =
  let n = count t in
  if n = 0 then invalid_arg "Sample.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Sample.percentile: p out of range";
  t.(rank n p - 1)

let beyond t p = count t - rank (count t) p

let tail_percentile t =
  if count t = 0 then None
  else
    List.fold_left
      (fun best p -> if beyond t p >= 10 then Some p else best)
      None [ 50.0; 90.0; 99.0; 99.9 ]

let median t = percentile t 50.0

let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let len = Array.length d in
  if len < 2 then invalid_arg "Sample.quartiles: need at least two values";
  let m = len + 1 in
  let q i =
    let j = max 1 (min (len - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.0
  in
  let median =
    if len mod 2 = 1 then d.(len / 2) else (d.((len / 2) - 1) +. d.(len / 2)) /. 2.0
  in
  (q 1, median, q 3)

let relative_iqr values =
  let q1, med, q3 = quartiles values in
  if med = 0.0 then Float.nan else (q3 -. q1) /. Float.abs med
