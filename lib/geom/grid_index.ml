(* A flat spatial hash.  Points are counting-sorted by the hash of
   their cell into one slot array, so bucket [b] is the slot range
   [start.(b) .. start.(b + 1) - 1], ascending ids inside.  Each slot
   also carries the point's coordinates and cell, so a probe streams
   contiguous arrays, and the per-slot cell check drops points of
   other cells that share the bucket.  A probe allocates nothing. *)
type t = {
  cell_size : float;
  points : Vec2.t array;
  mask : int;  (* bucket count - 1; the count is a power of two *)
  start : int array;  (* length mask + 2 *)
  ids : int array;  (* per slot: the point id *)
  xs : float array;  (* per slot: the point's coordinates *)
  ys : float array;
  cxs : int array;  (* per slot: the point's cell *)
  cys : int array;
}

(* Cell coordinates are clamped to +-2^50, so [int_of_float] is
   defined on every input and neighbour arithmetic cannot overflow.
   Clamping keeps the map monotone, which is all the queries rely on:
   a point within a coordinate interval lies in a cell within the
   interval's cells, and clamping only shrinks the cell distance
   between two points, so a ring bound on cell distance still bounds
   the true distance from below.  NaN (a NaN coordinate, never within
   any distance) goes to cell 0. *)
let cell_limit = 1 lsl 50

let[@inline] [@wa.hot] cell_coord cell v =
  let q = v /. cell in
  if q >= 0x1p50 then cell_limit
  else if q <= -0x1p50 then 0 - cell_limit
  else if Float.is_nan q then 0
  else
    (* floor without the libm call: truncate, then step down below
       zero; exact, as |q| < 2^50 converts without rounding. *)
    let i = int_of_float q in
    if float_of_int i > q then i - 1 else i

let[@inline] [@wa.hot] bucket mask cx cy =
  let h = (cx * 0x9E3779B1) lxor (cy * 0x7FEB352D) in
  (h lxor (h lsr 29)) land mask

(* [Vec2.dist_xy], inlined: under [-opaque] a call into [Vec2] would
   return each distance boxed. *)
let[@inline] [@wa.hot] dist_xy dx dy =
  let s = (dx *. dx) +. (dy *. dy) in
  if s < 1e-300 || not (Float.is_finite s) then Float.hypot dx dy else sqrt s

let build ~cell_size points =
  if cell_size <= 0.0 || not (Float.is_finite cell_size) then
    invalid_arg "Grid_index.build: cell_size must be positive and finite";
  let n = Array.length points in
  let nb = ref 1 in
  while !nb < n do
    nb := 2 * !nb
  done;
  let mask = !nb - 1 in
  let pcx = Array.make n 0 and pcy = Array.make n 0 and pb = Array.make n 0 in
  let start = Array.make (mask + 2) 0 in
  Array.iteri
    (fun i (p : Vec2.t) ->
      let cx = cell_coord cell_size p.x and cy = cell_coord cell_size p.y in
      let b = bucket mask cx cy in
      pcx.(i) <- cx;
      pcy.(i) <- cy;
      pb.(i) <- b;
      start.(b + 1) <- start.(b + 1) + 1)
    points;
  for b = 1 to mask + 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let next = Array.sub start 0 (mask + 1) in
  let ids = Array.make n 0 and cxs = Array.make n 0 and cys = Array.make n 0 in
  let xs = Array.create_float n and ys = Array.create_float n in
  Array.iteri
    (fun i (p : Vec2.t) ->
      let s = next.(pb.(i)) in
      next.(pb.(i)) <- s + 1;
      ids.(s) <- i;
      xs.(s) <- p.x;
      ys.(s) <- p.y;
      cxs.(s) <- pcx.(i);
      cys.(s) <- pcy.(i))
    points;
  { cell_size; points; mask; start; ids; xs; ys; cxs; cys }

(* Same ring budget as [nearest]: on wildly non-uniform instances
   (doubly-exponential gaps) [ceil (r / cell_size)] can be astronomical
   while almost every swept cell is empty; past the budget a linear
   scan is cheaper and always correct. *)
let max_ring_reach = 256

(* The budget fallback used to be silent; warn once per process so
   degraded (O(n)-per-query) behavior is visible without flooding the
   log from inside query loops.  Guarded by a mutex rather than an
   atomic: lock-free primitives stay confined to lib/obs and
   Wa_util.Parallel (the wa-lint atomic-scope rule), and this path is
   already degraded, so a lock is free by comparison. *)
let budget_warned = ref false
[@@wa.guarded_by "Grid_index.budget_warned_mutex"]

let budget_warned_mutex = Mutex.create ()

let first_budget_overrun () =
  Mutex.protect budget_warned_mutex (fun () ->
      if !budget_warned then false
      else begin
        budget_warned := true;
        true
      end)

let warn_budget context =
  if first_budget_overrun () then
    Geom_log.warn (fun m ->
        m
          "%s: ring sweep exceeded the %d-ring budget; falling back to \
           brute-force scans (degraded to O(n) per query; further \
           occurrences not logged)"
          context max_ring_reach)

(* Visits the points of the cells [lx..hx] × [ly..hy] within r of
   (x1, y1) or of (x2, y2), once each. *)
let[@wa.hot] sweep t lx hx ly hy x1 y1 x2 y2 r f =
  for cx = lx to hx do
    for cy = ly to hy do
      let b = bucket t.mask cx cy in
      for s = t.start.(b) to t.start.(b + 1) - 1 do
        if
          t.cxs.(s) = cx && t.cys.(s) = cy
          && (dist_xy (t.xs.(s) -. x1) (t.ys.(s) -. y1) <= r
             || dist_xy (t.xs.(s) -. x2) (t.ys.(s) -. y2) <= r)
        then f t.ids.(s)
      done
    done
  done

(* A query sweeps the cells of each query disk's bounding box, widened
   by 2^-30 relative: a point whose computed distance is <= r has
   |fl(qx - x)| <= r, so its exact offset is within r·(1 + 2^-52), and
   the widening keeps it inside the box after the rounding of [x +- r].
   On a radius of 1–1.25 cell sides that is 3×3 or 4×4 cells, where a
   ring of reach ceil(r / cell) sweeps 5×5.  When the two boxes share a
   cell, their common bounding box is swept once instead, so no point
   is visited twice; when they share none, no point can be within r of
   both centers. *)
let iter_within_either t x1 y1 x2 y2 r f =
  if r < 0.0 then invalid_arg "Grid_index.neighbors_within: negative radius";
  let n = Array.length t.ids in
  let c = t.cell_size in
  let reach_f = Float.ceil (r /. c) in
  let within_budget =
    Float.is_finite reach_f && reach_f <= float_of_int max_ring_reach
  in
  let w = r +. (r *. 0x1p-30) in
  let lx1 = cell_coord c (x1 -. w) and hx1 = cell_coord c (x1 +. w) in
  let ly1 = cell_coord c (y1 -. w) and hy1 = cell_coord c (y1 +. w) in
  let lx2 = cell_coord c (x2 -. w) and hx2 = cell_coord c (x2 +. w) in
  let ly2 = cell_coord c (y2 -. w) and hy2 = cell_coord c (y2 +. w) in
  let shared = lx1 <= hx2 && lx2 <= hx1 && ly1 <= hy2 && ly2 <= hy1 in
  let lx = Int.min lx1 lx2 and hx = Int.max hx1 hx2 in
  let ly = Int.min ly1 ly2 and hy = Int.max hy1 hy2 in
  let cells =
    if shared then (hx - lx + 1) * (hy - ly + 1)
    else ((hx1 - lx1 + 1) * (hy1 - ly1 + 1)) + ((hx2 - lx2 + 1) * (hy2 - ly2 + 1))
  in
  if within_budget && cells <= Int.max 9 n then begin
    if shared then sweep t lx hx ly hy x1 y1 x2 y2 r f
    else begin
      sweep t lx1 hx1 ly1 hy1 x1 y1 x1 y1 r f;
      sweep t lx2 hx2 ly2 hy2 x2 y2 x2 y2 r f
    end
  end
  else begin
    (* Brute-force fallback: fewer distance tests than empty-cell
       probes once the sweep outgrows the point count.  Only the
       budget overrun is a degraded path worth warning about — a
       sweep merely outgrowing the point count is the cheaper
       choice, not a failure. *)
    if not within_budget then warn_budget "Grid_index.neighbors_within";
    for s = 0 to n - 1 do
      if
        dist_xy (t.xs.(s) -. x1) (t.ys.(s) -. y1) <= r
        || dist_xy (t.xs.(s) -. x2) (t.ys.(s) -. y2) <= r
      then f t.ids.(s)
    done
  end

let neighbors_within t (p : Vec2.t) r =
  let acc = ref [] in
  iter_within_either t p.x p.y p.x p.y r (fun i -> acc := i :: !acc);
  !acc

(* Expand square rings of cells outward until a candidate is found,
   then one extra ring to guarantee exactness (a point in a farther
   ring can still be closer than a corner point of the current one). *)
let nearest t ~exclude (p : Vec2.t) =
  let n = Array.length t.ids in
  if n = 0 then None
  else begin
    let best = ref (-1) and best_d = ref infinity in
    let consider s =
      let i = t.ids.(s) in
      if i <> exclude then begin
        let d = dist_xy (t.xs.(s) -. p.x) (t.ys.(s) -. p.y) in
        if !best < 0 || not (!best_d <= d) then begin
          best := i;
          best_d := d
        end
      end
    in
    let scan_cell cx cy =
      let b = bucket t.mask cx cy in
      for s = t.start.(b) to t.start.(b + 1) - 1 do
        if t.cxs.(s) = cx && t.cys.(s) = cy then consider s
      done
    in
    let cx = cell_coord t.cell_size p.x and cy = cell_coord t.cell_size p.y in
    let scan_ring r =
      if r = 0 then scan_cell cx cy
      else
        for d = -r to r do
          scan_cell (cx + d) (cy - r);
          scan_cell (cx + d) (cy + r);
          if d > -r && d < r then begin
            scan_cell (cx - r) (cy + d);
            scan_cell (cx + r) (cy + d)
          end
        done
    in
    (* A ring at radius r only contains points at distance >=
       (r-1)*cell_size, so once best < (r-1)*cell_size we can stop.
       On wildly non-uniform instances (doubly-exponential gaps) the
       ring search can need astronomically many rings; past a fixed
       budget a linear scan is cheaper and always correct. *)
    let rec go r =
      if r > max_ring_reach then begin
        warn_budget "Grid_index.nearest";
        for s = 0 to n - 1 do
          consider s
        done
      end
      else begin
        scan_ring r;
        if not (!best >= 0 && !best_d < float_of_int (r - 1) *. t.cell_size)
        then go (r + 1)
      end
    in
    go 0;
    if !best < 0 then None else Some !best
  end

let iter_pairs_within t r f =
  Array.iteri
    (fun i (p : Vec2.t) ->
      iter_within_either t p.x p.y p.x p.y r (fun j -> if i < j then f i j))
    t.points
