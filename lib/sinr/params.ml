type t = { alpha : float; beta : float; noise : float; epsilon : float }

let make ?(alpha = 3.0) ?(beta = 1.0) ?(noise = 0.0) ?(epsilon = 0.5) () =
  (* The range tests below are all false on NaN and let +inf through,
     so finiteness is checked first. *)
  let finite name x =
    if not (Float.is_finite x) then
      invalid_arg ("Params.make: " ^ name ^ " must be finite")
  in
  finite "alpha" alpha;
  finite "beta" beta;
  finite "noise" noise;
  finite "epsilon" epsilon;
  if alpha <= 2.0 then invalid_arg "Params.make: alpha must exceed 2";
  if beta <= 0.0 then invalid_arg "Params.make: beta must be positive";
  if noise < 0.0 then invalid_arg "Params.make: noise must be non-negative";
  if epsilon <= 0.0 then invalid_arg "Params.make: epsilon must be positive";
  { alpha; beta; noise; epsilon }

let default = make ()

let strict t = { t with beta = 3.0 ** t.alpha }

(* [x^alpha] resolved once per call site, outside the pair loops: the
   paper's deployments all use small integer exponents, where repeated
   multiplication is far cheaper than the libm [( ** )] call.  Every
   SINR-layer evaluator (record-based and flat alike) must go through
   this one function so their floating-point results stay bit-identical
   — the flat-vs-record oracle tests rely on that. *)
let alpha_pow t =
  let a = t.alpha in
  if Float.equal a 3.0 then fun x -> x *. x *. x
  else if Float.equal a 4.0 then fun x ->
    let s = x *. x in
    s *. s
  else if Float.equal a (Float.round a) && a > 2.0 && a <= 8.0 then begin
    let k = int_of_float a in
    fun x ->
      let r = ref x in
      for _ = 2 to k do
        r := !r *. x
      done;
      !r
  end
  else fun x -> x ** a

(* Direct (closure-free) twin of [alpha_pow]: the same branch on the
   same alpha runs the same float operations, so for every (t, x) the
   result is bit-identical to [alpha_pow t x] — a qcheck oracle pins
   this.  The [@wa.hot] kernels must use this form: [alpha_pow]
   allocates its branch closure per call, this never allocates. *)
let[@wa.hot] pow_apply t x =
  let a = t.alpha in
  if Float.equal a 3.0 then x *. x *. x
  else if Float.equal a 4.0 then begin
    let s = x *. x in
    s *. s
  end
  else if Float.equal a (Float.round a) && a > 2.0 && a <= 8.0 then begin
    let k = int_of_float a in
    let r = ref x in
    for _ = 2 to k do
      r := !r *. x
    done;
    !r
  end
  else x ** a
