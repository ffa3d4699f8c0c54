type scheme =
  | Uniform
  | Linear
  | Oblivious of float
  | Custom of float array

let tau = function
  | Uniform -> Some 0.0
  | Linear -> Some 1.0
  | Oblivious t -> Some t
  | Custom _ -> None

let is_oblivious s = tau s <> None

(* Scale constant for Pτ: make the longest link's received power 1 and
   respect the interference-limited margin when noise is present. *)
let oblivious_constant (p : Params.t) ls tau_exp =
  let lmax = Linkset.max_length ls in
  let base = lmax ** ((1.0 -. tau_exp) *. p.Params.alpha) in
  let margin = (1.0 +. p.Params.epsilon) *. p.Params.beta *. p.Params.noise in
  base *. Float.max 1.0 margin

let check_custom ls arr i =
  if Array.length arr <> Linkset.size ls then
    invalid_arg "Power.value: custom vector has wrong length";
  let v = arr.(i) in
  if v <= 0.0 || not (Float.is_finite v) then
    invalid_arg "Power.value: non-positive custom power";
  v

let value (p : Params.t) ls scheme i =
  match scheme with
  | Custom arr -> check_custom ls arr i
  | Uniform | Linear | Oblivious _ ->
      let te = Option.get (tau scheme) in
      if te < 0.0 || te > 1.0 then invalid_arg "Power.value: tau out of [0,1]";
      let c = oblivious_constant p ls te in
      c *. (Linkset.length ls i ** (te *. p.Params.alpha))

let vector p ls scheme =
  let n = Linkset.size ls in
  match scheme with
  | Custom arr -> Array.init n (check_custom ls arr)
  | Uniform | Linear | Oblivious _ ->
      let te = Option.get (tau scheme) in
      if te < 0.0 || te > 1.0 then invalid_arg "Power.vector: tau out of [0,1]";
      (* The normalization constant scans the whole linkset: hoist it
         out of the per-link loop. *)
      let c = oblivious_constant p ls te in
      let exponent = te *. p.Params.alpha in
      Array.init n (fun i -> c *. (Linkset.length ls i ** exponent))

let describe = function
  | Uniform -> "uniform (P0)"
  | Linear -> "linear (P1)"
  | Oblivious t -> Format.asprintf "oblivious P_tau (tau=%g)" t
  | Custom _ -> "custom (global power control)"
