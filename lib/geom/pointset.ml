type t = { pts : Vec2.t array }

let of_array arr =
  if Array.length arr = 0 then invalid_arg "Pointset.of_array: empty";
  let pts = Array.copy arr in
  (* Coincident points would give Δ = infinity and degenerate links. *)
  let sorted = Array.copy pts in
  Array.sort Vec2.compare sorted;
  for i = 0 to Array.length sorted - 2 do
    if Vec2.equal sorted.(i) sorted.(i + 1) then
      invalid_arg "Pointset.of_array: coincident points"
  done;
  { pts }

let of_list l = of_array (Array.of_list l)

let size t = Array.length t.pts
let get t i = t.pts.(i)
let points t = Array.copy t.pts

let dist t i j = Vec2.dist t.pts.(i) t.pts.(j)

let bbox t = Bbox.of_points t.pts

(* Andrew's monotone chain over a sorted copy: O(n log n), hull
   vertices in order, strictly convex turns only (collinear points
   dropped). *)
let convex_hull pts =
  let pts = Array.copy pts in
  Array.sort Vec2.compare pts;
  let n = Array.length pts in
  if n <= 2 then pts
  else begin
    let cross (o : Vec2.t) (a : Vec2.t) (b : Vec2.t) =
      ((a.Vec2.x -. o.Vec2.x) *. (b.Vec2.y -. o.Vec2.y))
      -. ((a.Vec2.y -. o.Vec2.y) *. (b.Vec2.x -. o.Vec2.x))
    in
    let hull = Array.make (2 * n) pts.(0) in
    let k = ref 0 in
    (* Lower chain. *)
    for i = 0 to n - 1 do
      while
        !k >= 2 && cross hull.(!k - 2) hull.(!k - 1) pts.(i) <= 0.0
      do
        decr k
      done;
      hull.(!k) <- pts.(i);
      incr k
    done;
    (* Upper chain. *)
    let lower = !k + 1 in
    for i = n - 2 downto 0 do
      while
        !k >= lower && cross hull.(!k - 2) hull.(!k - 1) pts.(i) <= 0.0
      do
        decr k
      done;
      hull.(!k) <- pts.(i);
      incr k
    done;
    (* Last point repeats the first. *)
    Array.sub hull 0 (!k - 1)
  end

let max_pairwise_distance t =
  let n = size t in
  if n <= 64 then begin
    let best = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = dist t i j in
        if d > !best then best := d
      done
    done;
    !best
  end
  else begin
    (* The farthest pair are both extreme points, so only hull
       vertices need comparing — h is tiny for the deployments the
       pipeline sees (O(log n) expected on uniform instances), making
       this O(n log n + h²) instead of O(n²).  Distances go through
       the same [Vec2.dist], so the result is bit-identical to the
       dense scan's. *)
    let hull = convex_hull t.pts in
    let h = Array.length hull in
    let best = ref 0.0 in
    for i = 0 to h - 1 do
      for j = i + 1 to h - 1 do
        let d = Vec2.dist hull.(i) hull.(j) in
        if d > !best then best := d
      done
    done;
    !best
  end

let min_pairwise_distance t =
  let n = size t in
  if n < 2 then invalid_arg "Pointset.min_pairwise_distance: need >= 2 points";
  if n <= 64 then begin
    let best = ref infinity in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = dist t i j in
        if d < !best then best := d
      done
    done;
    !best
  end
  else begin
    (* Guess a cell size from a sample of nearest-neighbor distances,
       then refine with the exact grid query. *)
    let sample = ref infinity in
    let step = max 1 (n / 64) in
    let i = ref 0 in
    while !i < n do
      let j = (!i + 1) mod n in
      let d = dist t !i j in
      if d < !sample && d > 0.0 then sample := d;
      i := !i + step
    done;
    let cell = if Float.is_finite !sample then !sample else 1.0 in
    let grid = Grid_index.build ~cell_size:(Float.max cell 1e-12) t.pts in
    let best = ref infinity in
    for p = 0 to n - 1 do
      match Grid_index.nearest grid ~exclude:p t.pts.(p) with
      | Some q ->
          let d = dist t p q in
          if d < !best then best := d
      | None -> ()
    done;
    !best
  end

let diversity t = max_pairwise_distance t /. min_pairwise_distance t

let fold f t init =
  let acc = ref init in
  Array.iteri (fun i p -> acc := f i p !acc) t.pts;
  !acc

let nearest_neighbor t i =
  let n = size t in
  if n < 2 then invalid_arg "Pointset.nearest_neighbor: singleton set";
  let best = ref (-1) and best_d = ref infinity in
  for j = 0 to n - 1 do
    if j <> i then begin
      let d = dist t i j in
      if d < !best_d then begin
        best_d := d;
        best := j
      end
    end
  done;
  !best

let translate v t = { pts = Array.map (Vec2.add v) t.pts }

let scale k t =
  if k <= 0.0 then invalid_arg "Pointset.scale: factor must be positive";
  { pts = Array.map (Vec2.scale k) t.pts }
