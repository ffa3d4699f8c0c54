(* A value v >= 0 is stored as log v; zero is neg_infinity. *)
type t = float

let zero = neg_infinity
let one = 0.0

let of_float v =
  if Float.is_nan v || v < 0.0 then invalid_arg "Logfloat.of_float: negative or NaN";
  log v

let of_log x = x

let to_float t = exp t

let log_value t = t

let is_zero t = Float.equal t neg_infinity

(* log(e^a + e^b) computed against the larger exponent. *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else
    let hi = Float.max a b and lo = Float.min a b in
    hi +. Float.log1p (exp (lo -. hi))

let sub a b =
  if is_zero b then a
  else if b > a then invalid_arg "Logfloat.sub: result would be negative"
  else if b = a then zero
  else a +. Float.log1p (-.exp (b -. a))

let mul a b = if is_zero a || is_zero b then zero else a +. b

let div a b =
  if is_zero b then (if is_zero a then zero else raise Division_by_zero)
  else if is_zero a then zero
  else a -. b

let pow a x =
  if is_zero a then (if Float.equal x 0.0 then one else zero) else a *. x

let compare = Float.compare
let equal a b = Float.equal a b
let ( < ) a b = Float.compare a b < 0
let ( <= ) a b = Float.compare a b <= 0

let min a b = Float.min a b
let max a b = Float.max a b

let sum values = List.fold_left add zero values

let pp fmt t =
  let v = exp t in
  if Float.is_finite v then Format.fprintf fmt "%g" v
  else Format.fprintf fmt "exp(%g)" t
