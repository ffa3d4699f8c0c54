type t = { cdf : float array (* cdf.(r) = P(rank <= r); last is 1 *) }

let create ~s n =
  if n < 1 then invalid_arg "Zipf.create: need at least one rank";
  if s < 0.0 then invalid_arg "Zipf.create: negative exponent";
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc /. total)
      w
  in
  cdf.(n - 1) <- 1.0;
  { cdf }

let size t = Array.length t.cdf

let probability t r =
  if r = 0 then t.cdf.(0) else t.cdf.(r) -. t.cdf.(r - 1)

(* Smallest rank whose cumulative weight exceeds the variate. *)
let draw t rng =
  let u = Wa_util.Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (size t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
