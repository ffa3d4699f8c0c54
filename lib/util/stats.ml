type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let check_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty sample")
  | xs -> xs

let mean xs =
  let xs = check_nonempty "Stats.mean" xs in
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  let xs = check_nonempty "Stats.stddev" xs in
  match xs with
  | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. float_of_int (List.length xs - 1))

let sorted xs = List.sort Float.compare xs

let percentile p xs =
  let xs = check_nonempty "Stats.percentile" xs in
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

let minimum xs = List.fold_left Float.min infinity (check_nonempty "Stats.minimum" xs)
let maximum xs = List.fold_left Float.max neg_infinity (check_nonempty "Stats.maximum" xs)

let summarize xs =
  let xs = check_nonempty "Stats.summarize" xs in
  {
    count = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    max = maximum xs;
    median = median xs;
  }
