module Pointset = Wa_geom.Pointset

(* Prim with dense O(n^2) scan: best[v] is the cheapest connection of
   v to the growing tree. *)
let euclidean ps =
  let n = Pointset.size ps in
  if n <= 1 then []
  else begin
    let in_tree = Array.make n false in
    let best_dist = Array.make n infinity in
    let best_from = Array.make n (-1) in
    in_tree.(0) <- true;
    for v = 1 to n - 1 do
      best_dist.(v) <- Pointset.dist ps 0 v;
      best_from.(v) <- 0
    done;
    let edges = ref [] in
    for _ = 1 to n - 1 do
      (* Choose the cheapest fringe vertex; ties by smallest id. *)
      let pick = ref (-1) in
      for v = 0 to n - 1 do
        if (not in_tree.(v)) && (!pick = -1 || best_dist.(v) < best_dist.(!pick))
        then pick := v
      done;
      let v = !pick in
      in_tree.(v) <- true;
      let u = best_from.(v) in
      edges := (min u v, max u v) :: !edges;
      for w = 0 to n - 1 do
        if not in_tree.(w) then begin
          let d = Pointset.dist ps v w in
          if d < best_dist.(w) then begin
            best_dist.(w) <- d;
            best_from.(w) <- v
          end
        end
      done
    done;
    List.rev !edges
  end

(* Kruskal over flat candidate arrays.  The candidates are sorted by
   weight with a stable merge sort — equal weights keep their candidate
   order, as [List.sort] keeps list order — specialized to a float key
   array carried alongside the candidate positions, so no comparison
   goes through a closure and no key is boxed.  Runs of [run] are
   insertion-sorted first, then merged bottom-up between two buffers. *)
let run = 8

let[@wa.hot] insertion_runs (kw : float array) (kp : int array) m =
  let lo = ref 0 in
  while !lo < m do
    let hi = Int.min (!lo + run) m in
    for i = !lo + 1 to hi - 1 do
      let w = kw.(i) and p = kp.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && Float.compare kw.(!j) w > 0 do
        kw.(!j + 1) <- kw.(!j);
        kp.(!j + 1) <- kp.(!j);
        decr j
      done;
      kw.(!j + 1) <- w;
      kp.(!j + 1) <- p
    done;
    lo := hi
  done

(* Merge each pair of adjacent sorted runs of [width] from (sw, sp)
   into (dw, dp); the left run wins ties. *)
let[@wa.hot] merge_runs (sw : float array) (sp : int array) (dw : float array)
    (dp : int array) m width =
  let lo = ref 0 in
  while !lo < m do
    let mid = Int.min (!lo + width) m and hi = Int.min (!lo + (2 * width)) m in
    let i = ref !lo and j = ref mid in
    for k = !lo to hi - 1 do
      if !i < mid && (!j >= hi || Float.compare sw.(!j) sw.(!i) >= 0) then begin
        dw.(k) <- sw.(!i);
        dp.(k) <- sp.(!i);
        incr i
      end
      else begin
        dw.(k) <- sw.(!j);
        dp.(k) <- sp.(!j);
        incr j
      end
    done;
    lo := hi
  done

(* Sorts (kw, kp) by [kw], stably, using (tw, tp) as the second
   buffer; the result ends in (kw, kp). *)
let[@wa.hot] sort_by_weight kw kp tw (tp : int array) m =
  insertion_runs kw kp m;
  let width = ref run and in_t = ref false in
  while !width < m do
    if !in_t then merge_runs tw tp kw kp m !width else merge_runs kw kp tw tp m !width;
    in_t := not !in_t;
    width := 2 * !width
  done;
  if !in_t then
    for k = 0 to m - 1 do
      kp.(k) <- tp.(k)
    done

(* Scans the candidate positions [order] in sorted order and writes the
   [k]-th forest edge, as (min, max), to [tu.(k)], [tv.(k)]; returns
   the forest size. *)
let[@wa.hot] select uf us vs (order : int array) m (tu : int array) (tv : int array) =
  let k = ref 0 in
  for s = 0 to m - 1 do
    let u = us.(order.(s)) and v = vs.(order.(s)) in
    if Union_find.union uf u v then begin
      tu.(!k) <- Int.min u v;
      tv.(!k) <- Int.max u v;
      incr k
    end
  done;
  !k

(* Minimum spanning forest of the candidates, in Kruskal order, with
   its edge count. *)
let forest ~n (c : Wa_geom.Delaunay.candidates) =
  let m = c.count in
  let kw = Array.sub c.ws 0 m and kp = Array.init m Fun.id in
  sort_by_weight kw kp (Array.create_float m) (Array.make m 0) m;
  let tu = Array.make (max 0 (n - 1)) 0 and tv = Array.make (max 0 (n - 1)) 0 in
  let k = select (Union_find.create n) c.us c.vs kp m tu tv in
  let edges = ref [] in
  for s = k - 1 downto 0 do
    edges := (tu.(s), tv.(s)) :: !edges
  done;
  (!edges, k)

let euclidean_fast ps =
  let n = Pointset.size ps in
  if n <= 1 then []
  else
    (* Fewer than n − 1 unions: the triangulation of a degenerate input
       did not span, so take the complete graph instead. *)
    match forest ~n (Wa_geom.Delaunay.candidates ps) with
    | edges, k when k = n - 1 -> edges
    | _ -> fst (forest ~n (Wa_geom.Delaunay.complete ps))

let kruskal ~n weighted_edges =
  let m = List.length weighted_edges in
  let us = Array.make m 0 and vs = Array.make m 0 and ws = Array.create_float m in
  List.iteri
    (fun k (u, v, w) ->
      us.(k) <- u;
      vs.(k) <- v;
      ws.(k) <- w)
    weighted_edges;
  fst (forest ~n { Wa_geom.Delaunay.us; vs; ws; count = m })

let total_weight ps edges =
  List.fold_left (fun acc (u, v) -> acc +. Pointset.dist ps u v) 0.0 edges

let is_spanning_tree ~n edges =
  if List.length edges <> n - 1 then false
  else begin
    let uf = Union_find.create n in
    let acyclic = List.for_all (fun (u, v) -> Union_find.union uf u v) edges in
    acyclic && Union_find.count uf = 1
  end
