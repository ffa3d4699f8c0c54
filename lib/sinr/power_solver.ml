type outcome = {
  feasible : bool;
  spectral_radius : float;
  iterations : int;
  power : float array option;
}

(* Normalized gain matrix of a slot, flat row-major (k*k floats in one
   block): m.(a*k + b) is the relative interference that unit power on
   slot member b causes at member a, scaled by beta, paired with the
   row sums M·1.  The pair loop is [Feasibility]'s flat interference
   kernel, the one the ground-truth SINR check runs on. *)
let gain_flat (p : Params.t) ls slot =
  let ids = Array.of_list slot in
  let m, row_sums = Feasibility.gain_matrix p ls ids in
  (ids, m, row_sums)

(* y = M·x, four rows at a time.  Each row is still summed alone, in
   ascending b, so every y.(a) is the same float a one-row loop gives;
   the four independent sums only keep the floating-point adder busy
   where one row's chain of dependent additions would stall it. *)
let[@wa.hot] mat_vec k m x y =
  let a = ref 0 in
  while !a + 3 < k do
    let b0 = !a * k in
    let b1 = b0 + k in
    let b2 = b1 + k in
    let b3 = b2 + k in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for b = 0 to k - 1 do
      let xb = x.(b) in
      s0 := !s0 +. (m.(b0 + b) *. xb);
      s1 := !s1 +. (m.(b1 + b) *. xb);
      s2 := !s2 +. (m.(b2 + b) *. xb);
      s3 := !s3 +. (m.(b3 + b) *. xb)
    done;
    y.(!a) <- !s0;
    y.(!a + 1) <- !s1;
    y.(!a + 2) <- !s2;
    y.(!a + 3) <- !s3;
    a := !a + 4
  done;
  for a = !a to k - 1 do
    let base = a * k in
    let acc = ref 0.0 in
    for b = 0 to k - 1 do
      acc := !acc +. (m.(base + b) *. x.(b))
    done;
    y.(a) <- !acc
  done

(* Explicit loop rather than [Array.fold_left]: same accumulation
   order (hence the same float), minus the folded closure — the CW
   iteration calls this every round and it must stay allocation-free
   under [hot-alloc]. *)
let[@wa.hot] inf_norm x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs x.(i))
  done;
  !acc

(* A loop rather than [Array.exists]: the closure would receive every
   entry of the float array boxed. *)
let[@wa.hot] has_infinite m =
  let found = ref false in
  for i = 0 to Array.length m - 1 do
    if not (Float.is_finite m.(i)) then found := true
  done;
  !found

let rho_iterations = 40

let estimate_rho ?(iterations = rho_iterations) k m =
  if k = 0 then 0.0
  else if has_infinite m then infinity
  else begin
    let x = ref (Array.make k 1.0) in
    let y = Array.make k 0.0 in
    let rho = ref 0.0 in
    (try
       for _ = 1 to iterations do
         mat_vec k m !x y;
         let n = inf_norm y in
         if Float.equal n 0.0 then begin
           rho := 0.0;
           raise Exit
         end;
         rho := n;
         x := Array.map (fun v -> v /. n) y
       done
     with Exit -> ());
    !rho
  end

let spectral_radius p ls slot =
  let ids, m, _ = gain_flat p ls slot in
  estimate_rho (Array.length ids) m

(* Collatz–Wielandt certified decision.  For a non-negative matrix M
   and any entrywise-positive x,

     min_a (Mx)_a / x_a  <=  rho(M)  <=  max_a (Mx)_a / x_a,

   so power iteration tightens both bounds as x converges toward the
   Perron vector.  The moment the upper bound drops below 1 the slot
   is feasible and x itself is a power witness (Mx < x means every
   receiver's interference is strictly dominated); the moment the
   lower bound reaches 1 the slot is certified infeasible.  Either
   certificate costs O(k^2) per round instead of the O(k^3)
   elimination, which remains only as the fallback for slots whose
   spectral radius sits too close to 1 to separate. *)
type cw_verdict =
  | Cw_feasible of float array * float * int  (* witness, rho upper bound *)
  | Cw_infeasible of float * int  (* rho lower bound >= 1 *)
  | Cw_unknown of float * int  (* best certified rho lower bound, iters *)

let cw_max_iter = 60

(* Rounds without meaningful tightening of either bound before the
   decision is abandoned.  Near-reducible gain matrices (a receiver
   hearing almost nothing, or strongly one-directional interference)
   make the ratio bounds bounce without converging — the Perron vector
   has near-zero entries the positivity floor keeps propping up — and
   every wasted round costs O(k^2). *)
let cw_stall_limit = 3

(* [row_sums] is M·1, the product the first round needs: the iterate
   starts at x = 1, and the gain fill has already summed the rows in
   [mat_vec]'s order, so round one reuses them instead of a k² pass.
   [cw_decide] takes ownership of the array. *)
let cw_decide k m row_sums =
  let x = Array.make k 1.0 in
  let y = row_sums in
  let verdict = ref None in
  let iters = ref 0 in
  let best_hi = ref infinity and best_lo = ref 0.0 in
  let stall = ref 0 in
  while Option.is_none !verdict && !iters < cw_max_iter do
    incr iters;
    if !iters > 1 then mat_vec k m x y;
    let lo = ref infinity and hi = ref 0.0 in
    for a = 0 to k - 1 do
      (* [x] starts at all-ones and every update floors entries at
         1e-300 below, so the denominator is positive by loop
         invariant — the positive-array pass certifies the init, the
         floored writes, and that no callee writes through [x]. *)
      let r = y.(a) /. x.(a) in
      if r < !lo then lo := r;
      if r > !hi then hi := r
    done;
    if Float.is_nan !lo || Float.is_nan !hi then
      verdict := Some (Cw_unknown (!best_lo, !iters))
    else if !hi < 1.0 then verdict := Some (Cw_feasible (Array.copy x, !hi, !iters))
    else if !lo >= 1.0 then verdict := Some (Cw_infeasible (!lo, !iters))
    else begin
      let improved =
        !hi < 0.999 *. !best_hi || !lo > 1.001 *. !best_lo
      in
      if !hi < !best_hi then best_hi := !hi;
      if !lo > !best_lo then best_lo := !lo;
      if improved then stall := 0
      else begin
        incr stall;
        if !stall >= cw_stall_limit then
          verdict := Some (Cw_unknown (!best_lo, !iters))
      end;
      if Option.is_none !verdict then begin
        let n = inf_norm y in
        if Float.equal n 0.0 then
          (* Zero matrix: no interference at all. *)
          verdict := Some (Cw_feasible (Array.copy x, 0.0, !iters))
        else begin
          (* Advance with the SHIFTED operator M + I: same Perron
             vector, eigenvalues moved to λ + 1, so the period-2
             oscillation that plain power iteration falls into on
             strongly one-directional interference (eigenvalue pairs
             ±λ make the iterate bounce between extreme rays and the
             ratio bounds never close, even at rho ≪ 1) is damped —
             the bounds above stay valid for any positive x, so only
             convergence changes, not soundness.  The floor keeps the
             iterate strictly positive: the bounds are only valid for
             positive x, and an underflowed entry would turn a ratio
             into 0/0. *)
          for a = 0 to k - 1 do
            y.(a) <- y.(a) +. x.(a)
          done;
          let n = Float.max n (inf_norm y) in
          for a = 0 to k - 1 do
            x.(a) <- Float.max (y.(a) /. n) 1e-300
          done
        end
      end
    end
  done;
  Option.value ~default:(Cw_unknown (!best_lo, cw_max_iter)) !verdict

(* Solve (I - M) x = c by Gaussian elimination with partial pivoting.
   For the non-negative gain matrix M and positive c, the solution is
   entrywise positive iff rho(M) < 1 (M-matrix theory), which is
   exactly SINR feasibility with power control; the verification
   against the ground-truth check below keeps the decision sound under
   float error either way.  Returns None on a (numerically) singular
   system. *)
let solve_linear k m c =
  let a = Array.init k (fun i ->
      Array.init (k + 1) (fun j ->
          if j = k then c.(i)
          else if i = j then 1.0 -. m.((i * k) + j)
          else -.m.((i * k) + j)))
  in
  let ok = ref true in
  (try
     for col = 0 to k - 1 do
       (* Partial pivot. *)
       let pivot = ref col in
       for r = col + 1 to k - 1 do
         if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
       done;
       if Float.abs a.(!pivot).(col) < 1e-300 then begin
         ok := false;
         raise Exit
       end;
       if !pivot <> col then begin
         let tmp = a.(col) in
         a.(col) <- a.(!pivot);
         a.(!pivot) <- tmp
       end;
       for r = col + 1 to k - 1 do
         let f = a.(r).(col) /. a.(col).(col) in
         if not (Float.equal f 0.0) then
           for j = col to k do
             a.(r).(j) <- a.(r).(j) -. (f *. a.(col).(j))
           done
       done
     done
   with Exit -> ());
  if not !ok then None
  else begin
    let x = Array.make k 0.0 in
    for i = k - 1 downto 0 do
      let acc = ref a.(i).(k) in
      for j = i + 1 to k - 1 do
        acc := !acc -. (a.(i).(j) *. x.(j))
      done;
      (* Reached only when elimination completed without [Exit], which
         certifies every pivot magnitude exceeded the degeneracy
         threshold — the [ok] witness ref carries that fact across the
         [try]: the refuting branch charges [a], and the [not !ok]
         early return promotes it to division-safe here. *)
      x.(i) <- !acc /. a.(i).(i)
    done;
    if Array.for_all Float.is_finite x then Some x else None
  end

(* Verify a candidate slot power vector against the ground-truth SINR
   check and wrap it into an outcome on success. *)
let verified_outcome (p : Params.t) ls slot ids x ~rho ~iterations =
  let full = Array.make (Linkset.size ls) 1.0 in
  Array.iteri (fun a id -> full.(id) <- x.(a)) ids;
  let ok =
    List.for_all
      (fun i ->
        Feasibility.sinr p ls ~power:full ~concurrent:slot i
        >= p.Params.beta *. (1.0 -. 1e-9))
      slot
  in
  if ok then
    Some { feasible = true; spectral_radius = rho; iterations; power = Some full }
  else None

(* The Collatz–Wielandt witness satisfies Mx <= hi·x with hi < 1,
   which in the noise-free regime already certifies every receiver.
   With ambient noise the whole vector must additionally be scaled up
   until the noise floor is dominated: s·(x_a - (Mx)_a) >= beta·N·l_a^alpha
   for every a, so s is the max of the right-hand sides over the slack
   x_a - (Mx)_a (positive, since Mx < x); doubled for margin. *)
let noise_scale (p : Params.t) ls ids m x =
  if p.Params.noise <= 0.0 then 1.0
  else begin
    let k = Array.length ids in
    let lpow = Linkset.lengths_pow ls p in
    let y = Array.make k 0.0 in
    mat_vec k m x y;
    let s = ref 1.0 in
    for a = 0 to k - 1 do
      let slack = x.(a) -. y.(a) in
      if slack > 0.0 then
        s := Float.max !s (p.Params.beta *. p.Params.noise *. lpow.(ids.(a)) /. slack)
    done;
    2.0 *. !s
  end

(* Elimination fallback: exact fixed point of P = M·P + c. *)
let solve_exact (p : Params.t) ls slot ids m ~rho ~iterations =
  let k = Array.length ids in
  let lpow = Linkset.lengths_pow ls p in
  let c =
    Array.init k (fun a ->
        let la = lpow.(ids.(a)) in
        Float.max (p.Params.beta *. p.Params.noise *. la) la)
  in
  match solve_linear k m c with
  | Some x when Array.for_all (fun v -> v > 0.0) x -> (
      match verified_outcome p ls slot ids x ~rho ~iterations with
      | Some o -> o
      | None ->
          { feasible = false; spectral_radius = rho; iterations; power = None })
  | Some _ | None ->
      { feasible = false; spectral_radius = rho; iterations; power = None }

(* Above this upper bound the Collatz–Wielandt certificate is deemed
   too close to 1 to trust without the ground-truth re-check: the
   certificate's own float error is bounded by the k-term summation in
   [mat_vec] (relative error ~ k·eps, under 1e-10 even at k = 10^5),
   so a 1% margin dominates it by eight orders of magnitude. *)
let cw_accept_margin = 0.99

let solve ?(quick = false) (p : Params.t) ls slot =
  let slot = List.sort_uniq Int.compare slot in
  match slot with
  | [] -> { feasible = true; spectral_radius = 0.0; iterations = 0; power = None }
  | _ ->
      let ids, m, row_sums = gain_flat p ls slot in
      let k = Array.length ids in
      if has_infinite m then
        { feasible = false; spectral_radius = infinity; iterations = 0; power = None }
      else begin
        match cw_decide k m row_sums with
        | Cw_infeasible (lo, iters) ->
            { feasible = false; spectral_radius = lo; iterations = iters; power = None }
        | Cw_feasible (x, hi, iters)
          when p.Params.noise <= 0.0 && hi <= cw_accept_margin ->
            (* Noise-free and comfortably inside the margin: Mx <= hi·x
               IS the SINR inequality for every member (the matrix rows
               are beta·l_a^alpha times the per-receiver interference),
               so the witness needs no re-verification — skipping the
               O(k^2) ground-truth pass that used to double the cost of
               every slot check. *)
            let full = Array.make (Linkset.size ls) 1.0 in
            Array.iteri (fun a id -> full.(id) <- x.(a)) ids;
            {
              feasible = true;
              spectral_radius = hi;
              iterations = iters;
              power = Some full;
            }
        | Cw_feasible (x, hi, iters) -> (
            let s = noise_scale p ls ids m x in
            let x = Array.map (fun v -> s *. v) x in
            match verified_outcome p ls slot ids x ~rho:hi ~iterations:iters with
            | Some o -> o
            | None ->
                (* Certificate failed the ground-truth check (extreme
                   conditioning); fall back to the exact solver. *)
                solve_exact p ls slot ids m ~rho:hi ~iterations:iters)
        | Cw_unknown (lo, iters) when quick ->
            (* Caller opted into the conservative fast path: an
               undecided certificate is reported infeasible instead of
               paying the O(k^3) elimination.  Never wrong in the
               feasible direction — anything this mode accepts carries
               a CW certificate — so repair splitting on a false
               negative only costs slots, not soundness.  The reported
               radius is the best certified lower bound the rounds
               produced, not an estimate. *)
            { feasible = false; spectral_radius = lo; iterations = iters; power = None }
        | Cw_unknown (_, iters) ->
            let rho = estimate_rho k m in
            solve_exact p ls slot ids m ~rho ~iterations:iters
      end

let feasible ?quick p ls slot = (solve ?quick p ls slot).feasible

(* One-round sufficient test: with x = 1 the Collatz–Wielandt upper
   bound is the max row sum (the infinity norm), so [max row sum < 1]
   certifies rho(M) < 1 — and uniform power is then a witness.  No
   iteration, no matrix retained; the candidate accumulates one row at
   a time and bails the moment a row reaches 1.  One-sided: a [false]
   only means "not certified by this test". *)
let row_sum_feasible (p : Params.t) ls slot =
  match List.sort_uniq Int.compare slot with
  | [] | [ _ ] -> true
  | slot -> Feasibility.row_sums_below_one p ls (Array.of_list slot)

let power_scheme p ls slots =
  let full = Array.make (Linkset.size ls) 1.0 in
  let ok =
    List.for_all
      (fun slot ->
        match (solve p ls slot).power with
        | Some witness ->
            List.iter (fun i -> full.(i) <- witness.(i)) slot;
            true
        | None -> List.is_empty slot)
      slots
  in
  if ok then Some (Power.Custom full) else None
