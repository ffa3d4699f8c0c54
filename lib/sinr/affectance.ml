(* All affectance terms go through [Params.alpha_pow] or its
   bit-identical closure-free twin [Params.pow_apply] so that every
   evaluator — these record-based oracles and the flat kernels —
   computes the identical floating-point value for the same pair.
   The [@wa.hot] kernels are certified allocation-free (transitively)
   by [wa_check]'s [hot-alloc] pass, hence [pow_apply] there. *)

let[@wa.hot] additive (p : Params.t) ls j i =
  if j = i then 0.0
  else
    let d = Linkset.dist ls i j in
    if d <= 0.0 then 1.0
    else Float.min 1.0 (Params.pow_apply p (Linkset.length ls j /. d))

let additive_on_set p ls s i =
  List.fold_left (fun acc j -> acc +. additive p ls i j) 0.0 s

let additive_from_set p ls s i =
  List.fold_left (fun acc j -> acc +. additive p ls j i) 0.0 s

let[@wa.hot] relative (p : Params.t) ls ~power j i =
  if j = i then 0.0
  else
    let d_ji = Linkset.sender_to_receiver ls j i in
    if d_ji <= 0.0 then infinity
    else
      power.(j) *. Params.pow_apply p (Linkset.length ls i)
      /. (power.(i) *. Params.pow_apply p d_ji)

let relative_total p ls ~power s i =
  List.fold_left
    (fun acc j -> if j = i then acc else acc +. relative p ls ~power j i)
    0.0 s

(* Batch exact pressure for every link at once.  Links are visited in
   descending-length order, so the set {j : l_j >= l_i} is exactly a
   prefix of the order (ties grouped; [group_end] marks the end of each
   tie run) and the all-links sweep does n²/2 pair evaluations instead
   of the n² of n independent [mst_longer_pressure] calls.  Each term
   is [additive p ls i j] with [Linkset.dist]'s fast path inlined (the
   same squared forms, min tree and guard, so the same bits; degenerate
   cases go back to [Linkset.dist] itself), and each link's sum runs
   over the prefix in rank order — the qcheck oracle re-derives the
   identical float sum from the record API in the same order. *)
let mst_longer_pressure_all (p : Params.t) ls =
  let pow = Params.alpha_pow p in
  let lengths = Linkset.lengths ls in
  let sx = Linkset.sender_xs ls and sy = Linkset.sender_ys ls in
  let rx = Linkset.receiver_xs ls and ry = Linkset.receiver_ys ls in
  let n = Array.length lengths in
  let order = Linkset.by_decreasing_length ls in
  (* group_end.(r): one past the last rank tied with rank r's length. *)
  let group_end = Array.make n n in
  for r = n - 2 downto 0 do
    if lengths.(order.(r + 1)) < lengths.(order.(r)) then
      group_end.(r) <- r + 1
    else group_end.(r) <- group_end.(r + 1)
  done;
  (* Rank-permuted coordinate copies: the inner loop walks them
     sequentially (no per-pair gather through [order]) and the
     self-pair test collapses to a rank compare. *)
  let sxo = Array.make n 0.0 and syo = Array.make n 0.0 in
  let rxo = Array.make n 0.0 and ryo = Array.make n 0.0 in
  for q = 0 to n - 1 do
    let j = order.(q) in
    sxo.(q) <- sx.(j);
    syo.(q) <- sy.(j);
    rxo.(q) <- rx.(j);
    ryo.(q) <- ry.(j)
  done;
  (* The default alpha = 3 resolves [Params.alpha_pow] to
     [fun x -> x *. x *. x]; inlining that cube drops an indirect call
     from the innermost loop while producing the same bits.  The
     squared-form minimum uses plain compares: every operand is a
     finite non-negative square sum, where [Float.min] and [<=] pick
     the same value. *)
  let cubed = Float.equal p.Params.alpha 3.0 in
  let out = Array.make n 0.0 in
  for r = 0 to n - 1 do
    let i = order.(r) in
    let li = lengths.(i) in
    let sxi = sx.(i) and syi = sy.(i) and rxi = rx.(i) and ryi = ry.(i) in
    let total = ref 0.0 in
    for q = 0 to group_end.(r) - 1 do
      if q <> r then begin
        let dx1 = sxo.(q) -. sxi and dy1 = syo.(q) -. syi in
        let dx2 = sxo.(q) -. rxi and dy2 = syo.(q) -. ryi in
        let dx3 = rxo.(q) -. sxi and dy3 = ryo.(q) -. syi in
        let dx4 = rxo.(q) -. rxi and dy4 = ryo.(q) -. ryi in
        let ss = (dx1 *. dx1) +. (dy1 *. dy1) in
        let sr = (dx2 *. dx2) +. (dy2 *. dy2) in
        let rs = (dx3 *. dx3) +. (dy3 *. dy3) in
        let rr = (dx4 *. dx4) +. (dy4 *. dy4) in
        let m1 = if ss <= sr then ss else sr in
        let m2 = if rs <= rr then rs else rr in
        let m = if m1 <= m2 then m1 else m2 in
        let d =
          if m >= 1e-300 && m < 1e300 then sqrt m
          else Linkset.dist ls order.(q) i
        in
        let term =
          if d <= 0.0 then 1.0
          else if cubed then
            let x = li /. d in
            Float.min 1.0 (x *. x *. x)
          else Float.min 1.0 (pow (li /. d))
        in
        total := !total +. term
      end
    done;
    out.(i) <- !total
  done;
  out

let mst_longer_pressure (p : Params.t) ls i =
  let li = Linkset.length ls i in
  let total = ref 0.0 in
  for j = 0 to Linkset.size ls - 1 do
    if j <> i && Linkset.length ls j >= li then
      total := !total +. additive p ls i j
  done;
  !total
