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
   O(n) per insertion. *)

let cmp_pair (a, b) (c, d) =
  let k = Int.compare a c in
  if k <> 0 then k else Int.compare b d

let cmp_triple (a, b, c) (d, e, f) =
  let k = Int.compare a d in
  if k <> 0 then k
  else
    let k = Int.compare b e in
    if k <> 0 then k else Int.compare c f

let circumcircle (ax, ay) (bx, by) (cx, cy) =
  let d = 2.0 *. ((ax *. (by -. cy)) +. (bx *. (cy -. ay)) +. (cx *. (ay -. by))) in
  if Float.abs d < 1e-300 then None
  else begin
    let a2 = (ax *. ax) +. (ay *. ay) in
    let b2 = (bx *. bx) +. (by *. by) in
    let c2 = (cx *. cx) +. (cy *. cy) in
    let ux = ((a2 *. (by -. cy)) +. (b2 *. (cy -. ay)) +. (c2 *. (ay -. by))) /. d in
    let uy = ((a2 *. (cx -. bx)) +. (b2 *. (ax -. cx)) +. (c2 *. (bx -. ax))) /. d in
    let dx = ux -. ax and dy = uy -. ay in
    Some (ux, uy, (dx *. dx) +. (dy *. dy))
  end

(* Mutable mesh state for one construction run. *)
type mesh = {
  xs : float array;
  ys : float array;
  mutable cap : int; (* triangle slots allocated *)
  mutable vert : int array; (* 3 per triangle *)
  mutable adj : int array; (* 3 per triangle, -1 = boundary *)
  mutable ccx : float array;
  mutable ccy : float array;
  mutable cr2 : float array;
  mutable alive : bool array;
  mutable ntri : int; (* high-water mark of used slots *)
  mutable free : int list; (* dead slots available for reuse *)
  (* Scratch for cavity flood fill, stamped by insertion round so it
     never needs clearing. *)
  mutable mark : int array;
  mutable round : int;
}

let grow m =
  let cap' = if m.cap = 0 then 64 else 2 * m.cap in
  let copy_int a = Array.append a (Array.make (3 * (cap' - m.cap)) (-1)) in
  let copy_f a = Array.append a (Array.make (3 * (cap' - m.cap)) 0.0) in
  m.vert <- copy_int m.vert;
  m.adj <- copy_int m.adj;
  m.ccx <- copy_f m.ccx;
  m.ccy <- copy_f m.ccy;
  m.cr2 <- copy_f m.cr2;
  m.alive <- Array.append m.alive (Array.make (cap' - m.cap) false);
  m.mark <- Array.append m.mark (Array.make (cap' - m.cap) 0);
  m.cap <- cap'

(* Allocate a CCW triangle (a, b, c).  A degenerate (collinear)
   triple gets an infinite circumcircle, so the next nearby insertion
   destroys it and the mesh stays topologically consistent. *)
let alloc m a b c =
  let t =
    match m.free with
    | t :: rest ->
        m.free <- rest;
        t
    | [] ->
        if m.ntri = m.cap then grow m;
        let t = m.ntri in
        m.ntri <- t + 1;
        t
  in
  m.vert.((3 * t) + 0) <- a;
  m.vert.((3 * t) + 1) <- b;
  m.vert.((3 * t) + 2) <- c;
  m.adj.((3 * t) + 0) <- -1;
  m.adj.((3 * t) + 1) <- -1;
  m.adj.((3 * t) + 2) <- -1;
  (match
     circumcircle (m.xs.(a), m.ys.(a)) (m.xs.(b), m.ys.(b)) (m.xs.(c), m.ys.(c))
   with
  | Some (cx, cy, r2) ->
      m.ccx.(3 * t) <- cx;
      m.ccy.(3 * t) <- cy;
      m.cr2.(3 * t) <- r2
  | None ->
      m.ccx.(3 * t) <- m.xs.(a);
      m.ccy.(3 * t) <- m.ys.(a);
      m.cr2.(3 * t) <- infinity);
  m.alive.(t) <- true;
  t

let in_circle m t px py =
  let dx = px -. m.ccx.(3 * t) and dy = py -. m.ccy.(3 * t) in
  (dx *. dx) +. (dy *. dy) <= m.cr2.(3 * t) *. (1.0 +. 1e-12)

let orient m u v px py =
  let ax = m.xs.(u) and ay = m.ys.(u) in
  ((m.xs.(v) -. ax) *. (py -. ay)) -. ((m.ys.(v) -. ay) *. (px -. ax))

(* Walk the adjacency toward the triangle containing (px, py): while
   the point lies strictly right of some directed edge, cross it.
   Terminates because every input point is strictly inside the
   super-triangle; the step budget guards degenerate float cycles,
   falling back to a scan that picks the alive triangle violated
   least. *)
let scan_count = ref 0
let step_count = ref 0

let locate m start px py =
  let budget = 4 * (m.ntri + 16) in
  let rec walk t prev steps =
    if steps > budget then scan ()
    else begin
      let base = 3 * t in
      let step e =
        let u = m.vert.(base + e) and v = m.vert.(base + ((e + 1) mod 3)) in
        if orient m u v px py < 0.0 then m.adj.(base + e) else -1
      in
      let next =
        let s0 = if m.adj.(base) <> prev then step 0 else -1 in
        if s0 >= 0 then s0
        else
          let s1 = if m.adj.(base + 1) <> prev then step 1 else -1 in
          if s1 >= 0 then s1
          else if m.adj.(base + 2) <> prev then step 2
          else -1
      in
      incr step_count;
      if next >= 0 then walk next t (steps + 1)
      else begin
        (* Re-check the skipped back edge: the "don't go back" filter
           can hide the only outgoing edge on degenerate walks. *)
        let back e = m.adj.(base + e) = prev && step e >= 0 in
        if prev >= 0 && (back 0 || back 1 || back 2) then scan () else t
      end
    end
  and scan () =
    incr scan_count;
    let best = ref (-1) and best_score = ref neg_infinity in
    for t = 0 to m.ntri - 1 do
      if m.alive.(t) then begin
        let base = 3 * t in
        let o e = orient m m.vert.(base + e) m.vert.(base + ((e + 1) mod 3)) px py in
        let score = Float.min (o 0) (Float.min (o 1) (o 2)) in
        if score > !best_score then begin
          best_score := score;
          best := t
        end
      end
    done;
    !best
  in
  walk start (-1) 0

(* Build the full mesh for a pointset with at least 3 points; the
   super-triangle vertices (ids >= n) are still present, so extraction
   helpers below filter on vertex ids. *)
let build_mesh ps =
  let n = Pointset.size ps in
  begin
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
        free = [];
        mark = [||];
        round = 0;
      }
    in
    let root = alloc mesh n (n + 1) (n + 2) in
    (* Morton (Z-curve) insertion order: consecutive points are
       spatial neighbors, so the locate walk starts next door. *)
    let order = Array.init n Fun.id in
    let sx = 65535.0 /. Float.max 1e-300 (Bbox.width box) in
    let sy = 65535.0 /. Float.max 1e-300 (Bbox.height box) in
    let spread v =
      (* Interleave 16 bits with zeros (x0y0x1y1... after or). *)
      let v = (v lor (v lsl 8)) land 0x00FF00FF in
      let v = (v lor (v lsl 4)) land 0x0F0F0F0F in
      let v = (v lor (v lsl 2)) land 0x33333333 in
      (v lor (v lsl 1)) land 0x55555555
    in
    let key i =
      let gx = int_of_float ((xs.(i) -. box.Bbox.min_x) *. sx) in
      let gy = int_of_float ((ys.(i) -. box.Bbox.min_y) *. sy) in
      let clamp v = if v < 0 then 0 else if v > 65535 then 65535 else v in
      spread (clamp gx) lor (spread (clamp gy) lsl 1)
    in
    let keys = Array.map key order in
    let idx = Array.init n Fun.id in
    Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) idx;
    let last = ref root in
    (* Fan triangle by the start / end vertex of its boundary edge,
       -1 when none; indexed by vertex id, super vertices included. *)
    let by_start = Array.make (n + 3) (-1) and by_end = Array.make (n + 3) (-1) in
    let bad = ref [] in
    let stack = ref [] in
    for k = 0 to n - 1 do
      let p = idx.(k) in
      let px = xs.(p) and py = ys.(p) in
      mesh.round <- mesh.round + 1;
      let t0 = locate mesh !last px py in
      (* Cavity: flood-fill circumcircle violators from the containing
         triangle (forced in even if the cached circle test wavers, so
         the cavity is never empty). *)
      bad := [ t0 ];
      mesh.mark.(t0) <- mesh.round;
      stack := [ t0 ];
      while not (List.is_empty !stack) do
        match !stack with
        | [] -> ()
        | t :: rest ->
            stack := rest;
            for e = 0 to 2 do
              let o = mesh.adj.((3 * t) + e) in
              if o >= 0 && mesh.mark.(o) <> mesh.round && in_circle mesh o px py
              then begin
                mesh.mark.(o) <- mesh.round;
                bad := o :: !bad;
                stack := o :: !stack
              end
            done
      done;
      (* Boundary of the cavity: edges of bad triangles whose opposite
         triangle is outside the cavity.  Directed as stored (cavity
         on the left), so the fan triangle (u, v, p) is CCW. *)
      let boundary = ref [] in
      List.iter
        (fun t ->
          let base = 3 * t in
          for e = 0 to 2 do
            let o = mesh.adj.(base + e) in
            if o < 0 || mesh.mark.(o) <> mesh.round then
              boundary :=
                (mesh.vert.(base + e), mesh.vert.(base + ((e + 1) mod 3)), o)
                :: !boundary
          done)
        !bad;
      List.iter
        (fun t ->
          mesh.alive.(t) <- false;
          mesh.free <- t :: mesh.free)
        !bad;
      (* Fan the boundary polygon around p.  Each boundary vertex
         starts exactly one directed boundary edge and ends exactly
         one, so indexing the fan triangles by the start and the end
         vertex of their boundary edge links the fan's internal
         adjacency in one pass. *)
      let fresh =
        List.map
          (fun (u, v, outer) ->
            let t = alloc mesh u v p in
            mesh.adj.(3 * t) <- outer;
            if outer >= 0 then begin
              (* Point the outer triangle back at the fan. *)
              let ob = 3 * outer in
              for e = 0 to 2 do
                if
                  mesh.vert.(ob + e) = v
                  && mesh.vert.(ob + ((e + 1) mod 3)) = u
                then mesh.adj.(ob + e) <- t
              done
            end;
            by_start.(u) <- t;
            by_end.(v) <- t;
            (t, u, v))
          !boundary
      in
      List.iter
        (fun (t, u, v) ->
          (* Edge 1 runs (v, p): its mate is the fan triangle whose
             boundary edge starts at v.  Edge 2 runs (p, u): mate ends
             at u. *)
          if by_start.(v) >= 0 then mesh.adj.((3 * t) + 1) <- by_start.(v);
          if by_end.(u) >= 0 then mesh.adj.((3 * t) + 2) <- by_end.(u))
        fresh;
      (* Reset only the entries this fan set, so the arrays are all -1
         again for the next insertion. *)
      List.iter
        (fun (_, u, v) ->
          by_start.(u) <- -1;
          by_end.(v) <- -1)
        fresh;
      (match fresh with (t, _, _) :: _ -> last := t | [] -> ())
    done;
    mesh
  end

(* Alive triangle with no super-triangle vertex. *)
let real_tri mesh n t =
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

(* Every triangulation edge between two real vertices, each exactly
   once, straight off the mesh adjacency: of the (at most two) fully
   real triangles sharing an edge, the one with the larger id owns and
   emits it.  No intermediate triangle list, no dedup sort. *)
let mesh_edges mesh n f =
  for t = 0 to mesh.ntri - 1 do
    if real_tri mesh n t then
      for e = 0 to 2 do
        let o = mesh.adj.((3 * t) + e) in
        if o < 0 || o < t || not (real_tri mesh n o) then begin
          let u = mesh.vert.((3 * t) + e)
          and v = mesh.vert.((3 * t) + ((e + 1) mod 3)) in
          f (min u v) (max u v)
        end
      done
  done

let edges ps =
  let n = Pointset.size ps in
  if n = 2 then [ (0, 1) ]
  else if n < 2 then []
  else begin
    let mesh = build_mesh ps in
    let acc = ref [] in
    mesh_edges mesh n (fun u v -> acc := (u, v) :: !acc);
    List.sort cmp_pair !acc
  end

(* A tiny local union-find: wa_graph depends on wa_geom, so the graph
   library's one is out of reach here. *)
let connects n candidate =
  let parent = Array.init n Fun.id in
  let size = Array.make n 1 in
  (* Path halving keeps chains near-flat without recursion; with
     union by size the whole check is effectively linear. *)
  let find i =
    let i = ref i in
    while parent.(!i) <> !i do
      parent.(!i) <- parent.(parent.(!i));
      i := parent.(!i)
    done;
    !i
  in
  let count = ref n in
  List.iter
    (fun (u, v) ->
      let ru = find u and rv = find v in
      if ru <> rv then begin
        let ru, rv = if size.(ru) >= size.(rv) then (ru, rv) else (rv, ru) in
        parent.(rv) <- ru;
        size.(ru) <- size.(ru) + size.(rv);
        decr count
      end)
    candidate;
  !count = 1

let spanning_edges ps =
  let n = Pointset.size ps in
  let candidate =
    if n < 3 then List.map (fun (u, v) -> (u, v, Pointset.dist ps u v)) (edges ps)
    else begin
      let mesh = build_mesh ps in
      let acc = ref [] in
      mesh_edges mesh n (fun u v -> acc := (u, v, Pointset.dist ps u v) :: !acc);
      !acc
    end
  in
  if n >= 2 && connects n (List.map (fun (u, v, _) -> (u, v)) candidate) then
    candidate
  else begin
    (* Degenerate input: fall back to the complete graph. *)
    let acc = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        acc := (u, v, Pointset.dist ps u v) :: !acc
      done
    done;
    !acc
  end

let is_delaunay ps tris =
  let n = Pointset.size ps in
  let coord i =
    let p = Pointset.get ps i in
    (p.Vec2.x, p.Vec2.y)
  in
  List.for_all
    (fun (a, b, c) ->
      match circumcircle (coord a) (coord b) (coord c) with
      | None -> false
      | Some (cx, cy, r2) ->
          let ok = ref true in
          for i = 0 to n - 1 do
            if i <> a && i <> b && i <> c then begin
              let px, py = coord i in
              let dx = px -. cx and dy = py -. cy in
              if (dx *. dx) +. (dy *. dy) < r2 *. (1.0 -. 1e-9) then ok := false
            end
          done;
          !ok)
    tris
