type violation = { link : int; sinr : float; required : float }

type verdict = Feasible | Infeasible of violation list

(* The flat interference kernel: the sender-to-receiver distance
   d(s_b, r_a) from coordinate differences read out of the
   struct-of-arrays linkset, raised to alpha.  [sr_dist] is
   [Vec2.dist_xy] (same squared form, same guard, same [Float.hypot]
   fallback), and every site below raises it with the default
   alpha = 3 cube written out and [Params.pow_apply] otherwise, so
   every caller gets the bits [Linkset.sender_to_receiver] and
   [Params.alpha_pow] give.  Both are spelled out here rather than
   called: under [-opaque] a float returned by a function of another
   module comes back boxed, one allocation per pair.  The pair loops
   below read arrays and call nothing outside this module at
   alpha = 3. *)
let[@inline] [@wa.hot] sr_dist dx dy =
  let s = (dx *. dx) +. (dy *. dy) in
  if s < 1e-300 || not (Float.is_finite s) then Float.hypot dx dy else sqrt s

(* Walks [concurrent] in list order — the accumulation order is part
   of the result's bits — with the partial sum in an unboxed local. *)
let[@wa.hot] sinr (p : Params.t) ls ~power ~concurrent i =
  let cubed = Float.equal p.Params.alpha 3.0 in
  let sx = Linkset.sender_xs ls and sy = Linkset.sender_ys ls in
  let rxi = (Linkset.receiver_xs ls).(i) and ryi = (Linkset.receiver_ys ls).(i) in
  let signal = power.(i) /. Params.pow_apply p (Linkset.length ls i) in
  let acc = ref 0.0 in
  let rest = ref concurrent in
  while match !rest with [] -> false | _ :: _ -> true do
    match !rest with
    | [] -> ()
    | j :: tl ->
        rest := tl;
        if j <> i then begin
          let d = sr_dist (sx.(j) -. rxi) (sy.(j) -. ryi) in
          (* Links may share a node, putting a sender on top of this
             receiver (d = 0): the interference term diverges, so
             saturate explicitly rather than divide by zero. *)
          acc :=
            if d > 0.0 then
              !acc
              +. (power.(j)
                 /. if cubed then d *. d *. d else Params.pow_apply p d)
            else infinity
        end
  done;
  let denom = !acc +. p.Params.noise in
  if Float.equal denom 0.0 then infinity else signal /. denom

let check p ls ~power slot =
  let vec = Power.vector p ls power in
  let violations =
    List.filter_map
      (fun i ->
        let s = sinr p ls ~power:vec ~concurrent:slot i in
        if s >= p.Params.beta then None
        else Some { link = i; sinr = s; required = p.Params.beta })
      (List.sort_uniq Int.compare slot)
  in
  if List.is_empty violations then Feasible else Infeasible violations

exception Infeasible_early

(* Boolean fast path of [check] for one receiver: interference terms
   are non-negative, so once a partial sum already pushes the SINR
   below beta the slot is infeasible and the remaining terms need not
   be summed.  Terms are accumulated in the same order as [check]'s
   walk — the slot's list order, read out of a flat array — and each is
   [sinr]'s term over the same kernel, so when the loop runs to
   completion the verdict compares the identical floating-point sum:
   this function and [check] never disagree. *)
let[@wa.hot] receiver_feasible (p : Params.t) ls vec js k i =
  let beta = p.Params.beta and noise = p.Params.noise in
  let cubed = Float.equal p.Params.alpha 3.0 in
  let sx = Linkset.sender_xs ls and sy = Linkset.sender_ys ls in
  let rx = Linkset.receiver_xs ls and ry = Linkset.receiver_ys ls in
  let signal = vec.(i) /. Params.pow_apply p (Linkset.length ls i) in
  let rxi = rx.(i) and ryi = ry.(i) in
  let acc = ref 0.0 in
  try
    for t = 0 to k - 1 do
      let j = js.(t) in
      if j <> i then begin
        let d = sr_dist (sx.(j) -. rxi) (sy.(j) -. ryi) in
        (* Same zero-distance saturation as [sinr] above, keeping
           the two accumulations bit-identical. *)
        (acc :=
           if d > 0.0 then
             !acc
             +. (vec.(j) /. if cubed then d *. d *. d else Params.pow_apply p d)
           else infinity);
        let denom = !acc +. noise in
        (* Strict-violation early exit; NaN comparisons fall
           through to the exhaustive sum, matching [check]. *)
        if denom > 0.0 && signal /. denom < beta then raise Infeasible_early
      end
    done;
    let denom = !acc +. noise in
    Float.equal denom 0.0 || signal /. denom >= beta
  with Infeasible_early -> false

let is_feasible p ls ~power slot =
  let vec = Power.vector p ls power in
  let js = Array.of_list slot in
  let k = Array.length js in
  List.for_all
    (fun i -> receiver_feasible p ls vec js k i)
    (List.sort_uniq Int.compare slot)

let pair_feasible p ls ~power i j = is_feasible p ls ~power [ i; j ]

let margin p ls ~power slot =
  List.fold_left
    (fun acc i ->
      Float.min acc (sinr p ls ~power ~concurrent:slot i /. p.Params.beta))
    infinity slot

(* Sender coordinates of a slot, gathered once so the pair loops below
   stream two contiguous arrays instead of indexing the whole linkset. *)
let gather ls ids =
  let sx = Linkset.sender_xs ls and sy = Linkset.sender_ys ls in
  let k = Array.length ids in
  let gx = Array.create_float k and gy = Array.create_float k in
  for b = 0 to k - 1 do
    gx.(b) <- sx.(ids.(b));
    gy.(b) <- sy.(ids.(b))
  done;
  (gx, gy)

(* Row a of the gain matrix: m.(a*k + b) = beta·l_a^alpha / d(s_b, r_a)^alpha
   for b <> a, [infinity] when the sender sits on the receiver, and 0
   on the diagonal.  Every entry is written, so [m] needs no zero-fill.
   [beta *. la] is hoisted out of the row: each entry is still the one
   expression (beta *. la) /. d^alpha, so its bits do not depend on
   the hoisting.  The row is also summed as it is filled, in ascending
   b: that is the product M·1 a one-row mat-vec computes, bit for bit,
   since v·1 = v. *)
let[@wa.hot] fill_gain (p : Params.t) lpow ls ids gx gy m row_sums =
  let k = Array.length ids in
  let cubed = Float.equal p.Params.alpha 3.0 in
  let rx = Linkset.receiver_xs ls and ry = Linkset.receiver_ys ls in
  for a = 0 to k - 1 do
    let ia = ids.(a) in
    let rxa = rx.(ia) and rya = ry.(ia) in
    let bla = p.Params.beta *. lpow.(ia) in
    let base = a * k in
    let sum = ref 0.0 in
    for b = 0 to k - 1 do
      let v =
        if b = a then 0.0
        else
          let d = sr_dist (gx.(b) -. rxa) (gy.(b) -. rya) in
          if d <= 0.0 then infinity
          else bla /. if cubed then d *. d *. d else Params.pow_apply p d
      in
      m.(base + b) <- v;
      sum := !sum +. v
    done;
    row_sums.(a) <- !sum
  done

let gain_matrix (p : Params.t) ls ids =
  let k = Array.length ids in
  let gx, gy = gather ls ids in
  let m = Array.create_float (k * k) and row_sums = Array.create_float k in
  fill_gain p (Linkset.lengths_pow ls p) ls ids gx gy m row_sums;
  (m, row_sums)

(* The same entries as [fill_gain], summed row by row in ascending b;
   bails at the first row sum reaching 1 or the first sender on a
   receiver. *)
let[@wa.hot] rows_below_one (p : Params.t) lpow ls ids gx gy =
  let k = Array.length ids in
  let cubed = Float.equal p.Params.alpha 3.0 in
  let rx = Linkset.receiver_xs ls and ry = Linkset.receiver_ys ls in
  let ok = ref true in
  let a = ref 0 in
  while !ok && !a < k do
    let ia = ids.(!a) in
    let rxa = rx.(ia) and rya = ry.(ia) in
    let bla = p.Params.beta *. lpow.(ia) in
    let row = ref 0.0 in
    let b = ref 0 in
    while !ok && !b < k do
      if !a <> !b then begin
        let d = sr_dist (gx.(!b) -. rxa) (gy.(!b) -. rya) in
        if d <= 0.0 then ok := false
        else begin
          let dp = if cubed then d *. d *. d else Params.pow_apply p d in
          row := !row +. (bla /. dp);
          if !row >= 1.0 then ok := false
        end
      end;
      incr b
    done;
    incr a
  done;
  !ok

let row_sums_below_one (p : Params.t) ls ids =
  let gx, gy = gather ls ids in
  rows_below_one p (Linkset.lengths_pow ls p) ls ids gx gy
