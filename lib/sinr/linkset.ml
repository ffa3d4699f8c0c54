module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Tree = Wa_graph.Tree

type t = {
  links : Link.t array;
  (* Flat struct-of-arrays mirror of [links]: sender and receiver
     coordinates in contiguous float arrays.  The hot pair kernels
     (affectance sums, pressure, gain matrices) index these instead of
     chasing [Link.t]/[Vec2.t] pointers; together with [Vec2.dist_xy]
     they produce bit-identical distances to the record path. *)
  sx : float array;
  sy : float array;
  rx : float array;
  ry : float array;
  lengths : float array;
  min_len : float;  (* cached at construction: length_class and the
                       experiments query these in inner loops, and a
                       fold over [lengths] per call is O(n) *)
  max_len : float;
  tree_children : int array option; (* child vertex per link id, for of_tree *)
  mutable pow_cache : (float * float array) option; [@wa.benign_race]
      (* lengths^alpha memo, keyed by alpha.  Benign race under
         domains: losers recompute the same identical array, and the
         single-field store is atomic in the OCaml memory model. *)
}

(* Takes ownership of [links]. *)
let of_owned links =
  let n = Array.length links in
  let sx = Array.make n 0.0
  and sy = Array.make n 0.0
  and rx = Array.make n 0.0
  and ry = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let l = links.(i) in
    let s = l.Link.src and r = l.Link.dst in
    sx.(i) <- s.Vec2.x;
    sy.(i) <- s.Vec2.y;
    rx.(i) <- r.Vec2.x;
    ry.(i) <- r.Vec2.y
  done;
  let lengths = Array.map Link.length links in
  {
    links;
    sx;
    sy;
    rx;
    ry;
    lengths;
    min_len = Array.fold_left Float.min infinity lengths;
    max_len = Array.fold_left Float.max 0.0 lengths;
    tree_children = None;
    pow_cache = None;
  }

let of_array arr =
  if Array.length arr = 0 then invalid_arg "Linkset.of_array: empty";
  of_owned (Array.copy arr)

let of_links l = of_array (Array.of_list l)

let of_tree ps tree =
  let edges = Array.of_list (Tree.directed_edges tree) in
  if Array.length edges = 0 then
    invalid_arg "Linkset.of_tree: single-vertex tree has no links";
  let links =
    Array.map (fun (c, p) -> Link.make (Pointset.get ps c) (Pointset.get ps p)) edges
  in
  { (of_owned links) with tree_children = Some (Array.map fst edges) }

let size t = Array.length t.links
let link t i = t.links.(i)
let[@wa.hot] length t i = t.lengths.(i)

let sender_xs t = t.sx
let sender_ys t = t.sy
let receiver_xs t = t.rx
let receiver_ys t = t.ry
let lengths t = t.lengths

let lengths_pow t (p : Params.t) =
  match t.pow_cache with
  | Some (a, arr) when Float.equal a p.alpha -> arr
  | _ ->
      let f = Params.alpha_pow p in
      let arr = Array.map f t.lengths in
      t.pow_cache <- Some (p.alpha, arr);
      arr

let tree_child t i =
  match t.tree_children with None -> None | Some c -> Some c.(i)

let min_length t = t.min_len
let max_length t = t.max_len

let diversity t = max_length t /. min_length t

(* Flat forms of the pairwise distances.  [Vec2.dist] is
   [dist_xy (ax -. bx) (ay -. by)], so computing the differences from
   the SoA arrays rounds identically to [Link.min_distance] /
   [Link.sender_to_receiver] on the records. *)
let[@wa.hot] dist t i j =
  let sxi = t.sx.(i) and syi = t.sy.(i) and rxi = t.rx.(i) and ryi = t.ry.(i) in
  let sxj = t.sx.(j) and syj = t.sy.(j) and rxj = t.rx.(j) and ryj = t.ry.(j) in
  let dx1 = sxi -. sxj and dy1 = syi -. syj in
  let dx2 = sxi -. rxj and dy2 = syi -. ryj in
  let dx3 = rxi -. sxj and dy3 = ryi -. syj in
  let dx4 = rxi -. rxj and dy4 = ryi -. ryj in
  let ss = (dx1 *. dx1) +. (dy1 *. dy1) in
  let sr = (dx2 *. dx2) +. (dy2 *. dy2) in
  let rs = (dx3 *. dx3) +. (dy3 *. dy3) in
  let rr = (dx4 *. dx4) +. (dy4 *. dy4) in
  let m = Float.min (Float.min ss sr) (Float.min rs rr) in
  (* sqrt is monotone and correctly rounded, so the min of the four
     roots equals the root of the min: one sqrt instead of four.  The
     guard routes anything subnormal, overflowing, or NaN through the
     four [Vec2.dist_xy] calls (whose hypot fallback the record path
     takes too), and keeps clear of the band near max_float where an
     overflowed square and a finite one have ambiguous ordering — so
     the fast path is bit-identical to [Link.min_distance]. *)
  if m >= 1e-300 && m < 1e300 then sqrt m
  else
    let ss = Vec2.dist_xy dx1 dy1 in
    let sr = Vec2.dist_xy dx2 dy2 in
    let rs = Vec2.dist_xy dx3 dy3 in
    let rr = Vec2.dist_xy dx4 dy4 in
    Float.min (Float.min ss sr) (Float.min rs rr)

let[@wa.hot] sender_to_receiver t i j =
  Vec2.dist_xy (t.sx.(i) -. t.rx.(j)) (t.sy.(i) -. t.ry.(j))

let sorted_ids t cmp =
  let ids = Array.init (size t) (fun i -> i) in
  Array.sort cmp ids;
  ids

let by_decreasing_length t =
  sorted_ids t (fun a b ->
      let c = Float.compare t.lengths.(b) t.lengths.(a) in
      if c <> 0 then c else Int.compare a b)

let by_increasing_length t =
  sorted_ids t (fun a b ->
      let c = Float.compare t.lengths.(a) t.lengths.(b) in
      if c <> 0 then c else Int.compare a b)

let iter f t = Array.iteri f t.links

let fold f t init =
  let acc = ref init in
  Array.iteri (fun i l -> acc := f i l !acc) t.links;
  !acc
