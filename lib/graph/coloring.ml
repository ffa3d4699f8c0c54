type t = { colors : int array; classes : int }

(* Smallest colour held by none of [adj]: stamp the neighbours'
   colours into [mark], then scan up from 0.  The stamp is unique per
   call, so [mark] is never cleared; a vertex has fewer distinct
   neighbour colours than [Array.length mark], so the scan stops. *)
let[@wa.hot] rec stamp_colors colors mark stamp adj =
  match adj with
  | [] -> ()
  | u :: rest ->
      let c = colors.(u) in
      if c >= 0 then mark.(c) <- stamp;
      stamp_colors colors mark stamp rest

let[@wa.hot] smallest_absent colors mark stamp adj =
  stamp_colors colors mark stamp adj;
  let c = ref 0 in
  while mark.(!c) = stamp do
    incr c
  done;
  !c

(* First-fit over [order]; returns the number of colours used. *)
let[@wa.hot] first_fit g order colors mark =
  let used = ref 0 in
  for k = 0 to Array.length order - 1 do
    let v = order.(k) in
    let c = smallest_absent colors mark (k + 1) (Graph.adjacent g v) in
    colors.(v) <- c;
    if c + 1 > !used then used := c + 1
  done;
  !used

let greedy ?order g =
  let n = Graph.vertex_count g in
  let order =
    match order with
    | None -> Array.init n (fun i -> i)
    | Some o ->
        if Array.length o <> n then invalid_arg "Coloring.greedy: bad order length";
        let seen = Array.make n false in
        Array.iter
          (fun v ->
            if v < 0 || v >= n || seen.(v) then
              invalid_arg "Coloring.greedy: order is not a permutation";
            seen.(v) <- true)
          o;
        o
  in
  let colors = Array.make n (-1) in
  let classes = first_fit g order colors (Array.make (n + 1) 0) in
  { colors; classes }

let dsatur g =
  let n = Graph.vertex_count g in
  let colors = Array.make n (-1) and mark = Array.make (n + 1) 0 in
  let used_max = ref 0 in
  let saturation v =
    let distinct = Hashtbl.create 8 in
    List.iter
      (fun u -> if colors.(u) >= 0 then Hashtbl.replace distinct colors.(u) ())
      (Graph.neighbors g v);
    Hashtbl.length distinct
  in
  for k = 1 to n do
    (* Pick the uncolored vertex with max saturation, then degree, then id. *)
    let best = ref (-1) and best_sat = ref (-1) and best_deg = ref (-1) in
    for v = 0 to n - 1 do
      if colors.(v) = -1 then begin
        let s = saturation v and d = Graph.degree g v in
        if s > !best_sat || (s = !best_sat && d > !best_deg) then begin
          best := v;
          best_sat := s;
          best_deg := d
        end
      end
    done;
    let v = !best in
    let c = smallest_absent colors mark k (Graph.adjacent g v) in
    colors.(v) <- c;
    if c + 1 > !used_max then used_max := c + 1
  done;
  { colors; classes = (if n = 0 then 0 else !used_max) }

let validate g t =
  let n = Graph.vertex_count g in
  Array.length t.colors = n
  && Array.for_all (fun c -> c >= 0 && c < t.classes) t.colors
  && (let proper = ref true in
      Graph.iter_edges (fun u v -> if t.colors.(u) = t.colors.(v) then proper := false) g;
      !proper)
  &&
  let seen = Array.make (max t.classes 1) false in
  Array.iter (fun c -> seen.(c) <- true) t.colors;
  (t.classes = 0 && n = 0) || Array.for_all Fun.id (Array.sub seen 0 t.classes)

let classes t =
  let buckets = Array.make t.classes [] in
  for v = Array.length t.colors - 1 downto 0 do
    buckets.(t.colors.(v)) <- v :: buckets.(t.colors.(v))
  done;
  buckets

let class_sizes t =
  let sizes = Array.make t.classes 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) t.colors;
  sizes

let trivial n = { colors = Array.init n (fun i -> i); classes = n }
