(* Bowyer–Watson incremental triangulation with a super-triangle.
   Points are indexed 0..n-1; the three synthetic super-vertices get
   ids n, n+1, n+2 and are stripped at the end.

   The mesh is a flat triangle soup with adjacency: triangle [t] owns
   vertex slots [3t..3t+2] (counterclockwise) and edge [e] of [t] runs
   from vertex slot [3t+e] to [3t+(e+1) mod 3]; [adj.(3t+e)] is the
   triangle across that edge (-1 on the outer boundary).  Each
   insertion locates its containing triangle by walking the adjacency
   from the previously created triangle, carves the cavity of
   circumcircle-violating triangles by flood fill, and re-triangulates
   the cavity boundary fan-wise around the new point.  Points are
   inserted in Morton (Z-curve) order so consecutive insertions are
   spatial neighbors and the walk is O(1) amortized — expected
   O(n log n) overall, where the previous triangle-list scan was
   O(n) per insertion.

   Every per-insertion structure is a preallocated int array used as
   a stack (the flood fill, the cavity, its boundary, the fan, the
   free slots).  The triangle capacity starts at 2n + 16 — a
   triangulation of n + 3 points has 2n + 1 triangles — and doubles
   only if a degenerate input outgrows it; the stacks are sized from
   it, or grown between the steps of an insertion.  So an
   insertion allocates nothing, and the stacks are walked in the same
   order as the lists they replaced, which keeps the mesh, and every
   result derived from it, bit-identical. *)

let cmp_pair (a, b) (c, d) =
  let k = Int.compare a c in
  if k <> 0 then k else Int.compare b d

let cmp_triple (a, b, c) (d, e, f) =
  let k = Int.compare a d in
  if k <> 0 then k
  else
    let k = Int.compare b e in
    if k <> 0 then k else Int.compare c f

(* Circumcircle of (a, b, c) into slot [t] of the centre and squared
   radius arrays.  A degenerate (collinear) triple gets an infinite
   circle centred on [a], so the next nearby insertion destroys its
   triangle and the mesh stays topologically consistent. *)
let[@inline] [@wa.hot] circumcircle ccx ccy cr2 t ax ay bx by cx cy =
  let d = 2.0 *. ((ax *. (by -. cy)) +. (bx *. (cy -. ay)) +. (cx *. (ay -. by))) in
  if Float.abs d < 1e-300 then begin
    ccx.(t) <- ax;
    ccy.(t) <- ay;
    cr2.(t) <- infinity
  end
  else begin
    let a2 = (ax *. ax) +. (ay *. ay) in
    let b2 = (bx *. bx) +. (by *. by) in
    let c2 = (cx *. cx) +. (cy *. cy) in
    let ux = ((a2 *. (by -. cy)) +. (b2 *. (cy -. ay)) +. (c2 *. (ay -. by))) /. d in
    let uy = ((a2 *. (cx -. bx)) +. (b2 *. (ax -. cx)) +. (c2 *. (bx -. ax))) /. d in
    let dx = ux -. ax and dy = uy -. ay in
    ccx.(t) <- ux;
    ccy.(t) <- uy;
    cr2.(t) <- (dx *. dx) +. (dy *. dy)
  end

(* [Vec2.dist_xy], inlined: under [-opaque] a call into [Vec2] would
   return each distance boxed. *)
let[@inline] [@wa.hot] dist_xy dx dy =
  let s = (dx *. dx) +. (dy *. dy) in
  if s < 1e-300 || not (Float.is_finite s) then Float.hypot dx dy else sqrt s

(* Mutable mesh state for one construction run. *)
type mesh = {
  xs : float array;
  ys : float array;
  mutable cap : int; (* triangle slots allocated *)
  mutable vert : int array; (* 3 per triangle *)
  mutable adj : int array; (* 3 per triangle, -1 = boundary *)
  mutable ccx : float array; (* 1 per triangle: circumcentre, radius² *)
  mutable ccy : float array;
  mutable cr2 : float array;
  mutable alive : bool array;
  mutable ntri : int; (* high-water mark of used slots *)
  mutable free : int array; (* stack of dead slots available for reuse *)
  mutable nfree : int;
  (* Scratch for cavity flood fill, stamped by insertion round so it
     never needs clearing. *)
  mutable mark : int array;
  mutable round : int;
  (* Per-insertion stacks: the flood-fill frontier, the cavity in
     discovery order, and its boundary edges (start, end, outer
     triangle), then the fan triangles. *)
  mutable stack : int array;
  mutable bad : int array;
  mutable nbad : int;
  mutable bu : int array;
  mutable bv : int array;
  mutable bo : int array;
  mutable nb : int;
  mutable fan : int array;
  (* Fan triangle by the start / end vertex of its boundary edge, -1
     when none; indexed by vertex id, super vertices included. *)
  by_start : int array;
  by_end : int array;
}

let grow_to m cap' =
  let extend a k fill =
    let a' = Array.make (k * cap') fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  m.vert <- extend m.vert 3 (-1);
  m.adj <- extend m.adj 3 (-1);
  m.ccx <- extend m.ccx 1 0.0;
  m.ccy <- extend m.ccy 1 0.0;
  m.cr2 <- extend m.cr2 1 0.0;
  m.alive <- extend m.alive 1 false;
  m.free <- extend m.free 1 0;
  m.mark <- extend m.mark 1 0;
  m.stack <- extend m.stack 1 0;
  m.bad <- extend m.bad 1 0;
  m.cap <- cap'

(* The boundary stacks hold at most three edges per cavity triangle;
   a cavity has a handful of triangles, so they start small and grow
   to [need] when one does not. *)
let grow_boundary m need =
  let size = Int.max need (2 * Array.length m.bu) in
  m.bu <- Array.make size 0;
  m.bv <- Array.make size 0;
  m.bo <- Array.make size 0;
  m.fan <- Array.make size 0

(* Take a slot — the most recently freed one first, else a fresh one
   — and make it the CCW triangle (a, b, c) with no neighbours.  The
   caller guarantees capacity. *)
let[@wa.hot] alloc m a b c =
  let t =
    if m.nfree > 0 then begin
      m.nfree <- m.nfree - 1;
      m.free.(m.nfree)
    end
    else begin
      let t = m.ntri in
      m.ntri <- t + 1;
      t
    end
  in
  m.vert.((3 * t) + 0) <- a;
  m.vert.((3 * t) + 1) <- b;
  m.vert.((3 * t) + 2) <- c;
  m.adj.((3 * t) + 0) <- -1;
  m.adj.((3 * t) + 1) <- -1;
  m.adj.((3 * t) + 2) <- -1;
  circumcircle m.ccx m.ccy m.cr2 t m.xs.(a) m.ys.(a) m.xs.(b) m.ys.(b) m.xs.(c)
    m.ys.(c);
  m.alive.(t) <- true;
  t

let[@inline] [@wa.hot] in_circle m t px py =
  let dx = px -. m.ccx.(t) and dy = py -. m.ccy.(t) in
  (dx *. dx) +. (dy *. dy) <= m.cr2.(t) *. (1.0 +. 1e-12)

let[@inline] [@wa.hot] orient m u v px py =
  let ax = m.xs.(u) and ay = m.ys.(u) in
  ((m.xs.(v) -. ax) *. (py -. ay)) -. ((m.ys.(v) -. ay) *. (px -. ax))

(* Orientation of (px, py) against edge [e] of the triangle at [base]:
   negative when the point lies strictly right of it. *)
let[@inline] [@wa.hot] edge_orient m base e px py =
  orient m m.vert.(base + e) m.vert.(base + ((e + 1) mod 3)) px py

(* The degenerate-walk fallback: the alive triangle the point violates
   least. *)
let[@wa.hot] scan m px py =
  let best = ref (-1) and best_score = ref neg_infinity in
  for t = 0 to m.ntri - 1 do
    if m.alive.(t) then begin
      let base = 3 * t in
      let score =
        Float.min (edge_orient m base 0 px py)
          (Float.min (edge_orient m base 1 px py) (edge_orient m base 2 px py))
      in
      if score > !best_score then begin
        best_score := score;
        best := t
      end
    end
  done;
  !best

(* Walk the adjacency toward the triangle containing (px, py): while
   the point lies strictly right of some directed edge (other than the
   one just crossed), cross it.  Terminates because every input point
   is strictly inside the super-triangle; the step budget guards
   degenerate float cycles, falling back to [scan]. *)
let[@wa.hot] locate m start px py =
  let budget = 4 * (m.ntri + 16) in
  let t = ref start and prev = ref (-1) and steps = ref 0 and located = ref false in
  while not !located do
    if !steps > budget then begin
      t := scan m px py;
      located := true
    end
    else begin
      let base = 3 * !t in
      let next = ref (-1) and k = ref 0 in
      while !next < 0 && !k < 3 do
        let o = m.adj.(base + !k) in
        if o <> !prev && o >= 0 && edge_orient m base !k px py < 0.0 then next := o;
        incr k
      done;
      if !next >= 0 then begin
        prev := !t;
        t := !next;
        incr steps
      end
      else begin
        (* Re-check the skipped back edge: the "don't go back" filter
           can hide the only outgoing edge on degenerate walks. *)
        let back = ref false in
        if !prev >= 0 then
          for e = 0 to 2 do
            if m.adj.(base + e) = !prev && edge_orient m base e px py < 0.0 then
              back := true
          done;
        if !back then t := scan m px py;
        located := true
      end
    end
  done;
  !t

(* Cavity: flood-fill circumcircle violators from the containing
   triangle [t0] (forced in even if the cached circle test wavers, so
   the cavity is never empty) into [bad], in discovery order. *)
let[@wa.hot] flood m t0 px py =
  let round = m.round in
  m.mark.(t0) <- round;
  m.bad.(0) <- t0;
  m.nbad <- 1;
  m.stack.(0) <- t0;
  let top = ref 1 in
  while !top > 0 do
    decr top;
    let t = m.stack.(!top) in
    for e = 0 to 2 do
      let o = m.adj.((3 * t) + e) in
      if o >= 0 && m.mark.(o) <> round && in_circle m o px py then begin
        m.mark.(o) <- round;
        m.bad.(m.nbad) <- o;
        m.nbad <- m.nbad + 1;
        m.stack.(!top) <- o;
        incr top
      end
    done
  done

(* Collect the cavity's boundary, the edges of bad triangles whose
   opposite triangle is outside the cavity, directed as stored (cavity
   on the left) so that the fan triangle (u, v, p) is CCW; then free
   the bad slots.  The boundary is pushed while walking [bad] newest
   first, and so are the freed slots — the orders of the lists this
   replaced. *)
let[@wa.hot] cut m =
  let round = m.round in
  m.nb <- 0;
  for k = m.nbad - 1 downto 0 do
    let base = 3 * m.bad.(k) in
    for e = 0 to 2 do
      let o = m.adj.(base + e) in
      if o < 0 || m.mark.(o) <> round then begin
        m.bu.(m.nb) <- m.vert.(base + e);
        m.bv.(m.nb) <- m.vert.(base + ((e + 1) mod 3));
        m.bo.(m.nb) <- o;
        m.nb <- m.nb + 1
      end
    done
  done;
  for k = m.nbad - 1 downto 0 do
    let t = m.bad.(k) in
    m.alive.(t) <- false;
    m.free.(m.nfree) <- t;
    m.nfree <- m.nfree + 1
  done

(* Fan the boundary polygon around [p], newest boundary edge first.
   Each boundary vertex starts exactly one directed boundary edge and
   ends exactly one, so indexing the fan triangles by the start and
   the end vertex of their boundary edge links the fan's internal
   adjacency in one pass.  Returns the first fan triangle. *)
let[@wa.hot] fan m p =
  let nf = m.nb in
  for k = 0 to nf - 1 do
    let b = nf - 1 - k in
    let u = m.bu.(b) and v = m.bv.(b) and outer = m.bo.(b) in
    let t = alloc m u v p in
    m.adj.(3 * t) <- outer;
    if outer >= 0 then begin
      (* Point the outer triangle back at the fan. *)
      let ob = 3 * outer in
      for e = 0 to 2 do
        if m.vert.(ob + e) = v && m.vert.(ob + ((e + 1) mod 3)) = u then
          m.adj.(ob + e) <- t
      done
    end;
    m.by_start.(u) <- t;
    m.by_end.(v) <- t;
    m.fan.(k) <- t
  done;
  for k = 0 to nf - 1 do
    let t = m.fan.(k) in
    let u = m.vert.(3 * t) and v = m.vert.((3 * t) + 1) in
    (* Edge 1 runs (v, p): its mate is the fan triangle whose boundary
       edge starts at v.  Edge 2 runs (p, u): mate ends at u. *)
    if m.by_start.(v) >= 0 then m.adj.((3 * t) + 1) <- m.by_start.(v);
    if m.by_end.(u) >= 0 then m.adj.((3 * t) + 2) <- m.by_end.(u)
  done;
  (* Reset only the entries this fan set, so the arrays are all -1
     again for the next insertion. *)
  for k = 0 to nf - 1 do
    let t = m.fan.(k) in
    m.by_start.(m.vert.(3 * t)) <- -1;
    m.by_end.(m.vert.((3 * t) + 1)) <- -1
  done;
  if nf > 0 then m.fan.(0) else -1

(* Morton (Z-curve) insertion order: consecutive points are spatial
   neighbors, so the locate walk starts next door. *)
let morton_order xs ys n (box : Bbox.t) =
  let sx = 65535.0 /. Float.max 1e-300 (Bbox.width box) in
  let sy = 65535.0 /. Float.max 1e-300 (Bbox.height box) in
  let spread v =
    (* Interleave 16 bits with zeros (x0y0x1y1... after or). *)
    let v = (v lor (v lsl 8)) land 0x00FF00FF in
    let v = (v lor (v lsl 4)) land 0x0F0F0F0F in
    let v = (v lor (v lsl 2)) land 0x33333333 in
    (v lor (v lsl 1)) land 0x55555555
  in
  let clamp v = if v < 0 then 0 else if v > 65535 then 65535 else v in
  let keys =
    Array.init n (fun i ->
        let gx = int_of_float ((xs.(i) -. box.Bbox.min_x) *. sx) in
        let gy = int_of_float ((ys.(i) -. box.Bbox.min_y) *. sy) in
        spread (clamp gx) lor (spread (clamp gy) lsl 1))
  in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) idx;
  idx

(* Build the full mesh for a pointset with at least 3 points; the
   super-triangle vertices (ids >= n) are still present, so extraction
   helpers below filter on vertex ids. *)
let build_mesh ps =
  let n = Pointset.size ps in
  let xs = Array.make (n + 3) 0.0 and ys = Array.make (n + 3) 0.0 in
  for i = 0 to n - 1 do
    let p = Pointset.get ps i in
    xs.(i) <- p.Vec2.x;
    ys.(i) <- p.Vec2.y
  done;
  (* Super-triangle comfortably containing the bounding box. *)
  let box = Pointset.bbox ps in
  let w = Float.max 1.0 (Bbox.width box) and h = Float.max 1.0 (Bbox.height box) in
  let mx = (box.Bbox.min_x +. box.Bbox.max_x) /. 2.0 in
  let my = (box.Bbox.min_y +. box.Bbox.max_y) /. 2.0 in
  let m = 64.0 *. Float.max w h in
  xs.(n) <- mx -. m;
  ys.(n) <- my -. m;
  xs.(n + 1) <- mx +. m;
  ys.(n + 1) <- my -. m;
  xs.(n + 2) <- mx;
  ys.(n + 2) <- my +. m;
  let mesh =
    {
      xs;
      ys;
      cap = 0;
      vert = [||];
      adj = [||];
      ccx = [||];
      ccy = [||];
      cr2 = [||];
      alive = [||];
      ntri = 0;
      free = [||];
      nfree = 0;
      mark = [||];
      round = 0;
      stack = [||];
      bad = [||];
      nbad = 0;
      bu = [||];
      bv = [||];
      bo = [||];
      nb = 0;
      fan = [||];
      by_start = Array.make (n + 3) (-1);
      by_end = Array.make (n + 3) (-1);
    }
  in
  grow_to mesh ((2 * n) + 16);
  grow_boundary mesh 64;
  let last = ref (alloc mesh n (n + 1) (n + 2)) in
  let order = morton_order xs ys n box in
  for k = 0 to n - 1 do
    let p = order.(k) in
    let px = xs.(p) and py = ys.(p) in
    mesh.round <- mesh.round + 1;
    flood mesh (locate mesh !last px py) px py;
    if 3 * mesh.nbad > Array.length mesh.bu then grow_boundary mesh (3 * mesh.nbad);
    cut mesh;
    (* The fan takes the freed slots first; a degenerate input can
       need more fresh ones than the presized capacity holds. *)
    let need = mesh.ntri + mesh.nb - mesh.nfree in
    if need > mesh.cap then grow_to mesh (Int.max need (2 * mesh.cap));
    let t = fan mesh p in
    if t >= 0 then last := t
  done;
  mesh

(* Alive triangle with no super-triangle vertex. *)
let[@inline] [@wa.hot] real_tri mesh n t =
  mesh.alive.(t)
  && mesh.vert.(3 * t) < n
  && mesh.vert.((3 * t) + 1) < n
  && mesh.vert.((3 * t) + 2) < n

let triangles ps =
  let n = Pointset.size ps in
  if n < 3 then []
  else begin
    let mesh = build_mesh ps in
    let acc = ref [] in
    for t = 0 to mesh.ntri - 1 do
      if real_tri mesh n t then begin
        let a = mesh.vert.(3 * t)
        and b = mesh.vert.((3 * t) + 1)
        and c = mesh.vert.((3 * t) + 2) in
        let lo = min a (min b c) and hi = max a (max b c) in
        acc := (lo, a + b + c - lo - hi, hi) :: !acc
      end
    done;
    List.sort_uniq cmp_triple !acc
  end

type candidates = { us : int array; vs : int array; ws : float array; count : int }

(* Every triangulation edge between two real vertices, each exactly
   once, straight off the mesh adjacency: of the (at most two) fully
   real triangles sharing an edge, the one with the larger id owns and
   emits it.  Writes [(min, max, length)] into the arrays in emission
   order and returns the count; a planar graph on n vertices has at
   most 3n − 6 edges, so 3n slots suffice. *)
let[@wa.hot] mesh_edges mesh n us vs ws =
  let k = ref 0 in
  for t = 0 to mesh.ntri - 1 do
    if real_tri mesh n t then
      for e = 0 to 2 do
        let o = mesh.adj.((3 * t) + e) in
        if o < 0 || o < t || not (real_tri mesh n o) then begin
          let a = mesh.vert.((3 * t) + e)
          and b = mesh.vert.((3 * t) + ((e + 1) mod 3)) in
          let u = Int.min a b and v = Int.max a b in
          us.(!k) <- u;
          vs.(!k) <- v;
          ws.(!k) <- dist_xy (mesh.xs.(u) -. mesh.xs.(v)) (mesh.ys.(u) -. mesh.ys.(v));
          incr k
        end
      done
  done;
  !k

let edges ps =
  let n = Pointset.size ps in
  if n = 2 then [ (0, 1) ]
  else if n < 2 then []
  else begin
    let mesh = build_mesh ps in
    let us = Array.make (3 * n) 0 and vs = Array.make (3 * n) 0 in
    let count = mesh_edges mesh n us vs (Array.make (3 * n) 0.0) in
    List.sort cmp_pair (List.init count (fun k -> (us.(k), vs.(k))))
  end

(* Reverse the first [count] entries of the three arrays in place. *)
let reverse_prefix { us; vs; ws; count } =
  for k = 0 to (count / 2) - 1 do
    let j = count - 1 - k in
    let u = us.(k) and v = vs.(k) and w = ws.(k) in
    us.(k) <- us.(j);
    vs.(k) <- vs.(j);
    ws.(k) <- ws.(j);
    us.(j) <- u;
    vs.(j) <- v;
    ws.(j) <- w
  done

(* The candidate order is the reverse of the emission order: the
   order of the edge lists built by prepending that Kruskal's stable
   sort has always broken weight ties by. *)
let candidates ps =
  let n = Pointset.size ps in
  if n < 2 then { us = [||]; vs = [||]; ws = [||]; count = 0 }
  else if n = 2 then
    { us = [| 0 |]; vs = [| 1 |]; ws = [| Pointset.dist ps 0 1 |]; count = 1 }
  else begin
    let mesh = build_mesh ps in
    let us = Array.make (3 * n) 0 and vs = Array.make (3 * n) 0 in
    let ws = Array.make (3 * n) 0.0 in
    let c = { us; vs; ws; count = mesh_edges mesh n us vs ws } in
    reverse_prefix c;
    c
  end

let complete ps =
  let n = Pointset.size ps in
  let m = n * (n - 1) / 2 in
  let us = Array.make m 0 and vs = Array.make m 0 and ws = Array.make m 0.0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      us.(!k) <- u;
      vs.(!k) <- v;
      ws.(!k) <- Pointset.dist ps u v;
      incr k
    done
  done;
  let c = { us; vs; ws; count = m } in
  reverse_prefix c;
  c

let is_delaunay ps tris =
  let n = Pointset.size ps in
  let ccx = [| 0.0 |] and ccy = [| 0.0 |] and cr2 = [| 0.0 |] in
  List.for_all
    (fun (a, b, c) ->
      let pa = Pointset.get ps a and pb = Pointset.get ps b and pc = Pointset.get ps c in
      circumcircle ccx ccy cr2 0 pa.Vec2.x pa.Vec2.y pb.Vec2.x pb.Vec2.y pc.Vec2.x
        pc.Vec2.y;
      Float.is_finite cr2.(0)
      &&
      let ok = ref true in
      for i = 0 to n - 1 do
        if i <> a && i <> b && i <> c then begin
          let p = Pointset.get ps i in
          let dx = p.Vec2.x -. ccx.(0) and dy = p.Vec2.y -. ccy.(0) in
          if (dx *. dx) +. (dy *. dy) < cr2.(0) *. (1.0 -. 1e-9) then ok := false
        end
      done;
      !ok)
    tris
