module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Link_index = Wa_sinr.Link_index
module Graph = Wa_graph.Graph
module Parallel = Wa_util.Parallel

(* Metric handles are resolved once at module init (registry lookups
   are mutex-guarded; doing them here keeps the per-link closures that
   run inside Parallel worker domains down to one atomic op). *)
let m_edges = Wa_obs.Metrics.counter "conflict.edges"
let m_builds = Wa_obs.Metrics.counter "conflict.builds"
let m_link_degree = Wa_obs.Metrics.histogram "conflict.link_degree"

type threshold =
  | Constant of float
  | Power_law of { gamma : float; delta : float }
  | Log_power of float

type engine = [ `Dense | `Indexed ]

let check_gamma gamma =
  if gamma <= 0.0 then invalid_arg "Conflict: gamma must be positive"

let constant ?(gamma = 1.0) () =
  check_gamma gamma;
  Constant gamma

let power_law ?(gamma = 2.0) ~tau () =
  check_gamma gamma;
  if tau <= 0.0 || tau >= 1.0 then
    invalid_arg "Conflict.power_law: tau must lie strictly in (0,1)";
  Power_law { gamma; delta = Float.max tau (1.0 -. tau) }

let log_power ?(gamma = 1.0) () =
  check_gamma gamma;
  Log_power gamma

let[@wa.hot] eval (p : Params.t) th x =
  if x < 1.0 then invalid_arg "Conflict.eval: length ratio below 1";
  match th with
  | Constant gamma -> gamma
  | Power_law { gamma; delta } -> gamma *. (x ** delta)
  | Log_power gamma ->
      (* Every construction of [Params.t] proves alpha > 2, so the
         whole-program field-bound summary discharges the exponent
         denominator here.  [log x /. log 2.0] is [Growth.log2]'s own
         body, written inline: across modules under [-opaque] the call
         would return its float boxed. *)
      gamma
      *. Float.max 1.0
           ((log x /. log 2.0) ** (2.0 /. (p.Params.alpha -. 2.0)))

(* [Linkset.dist], inlined over the struct-of-arrays: under [-opaque]
   the call would return every distance boxed.  The fast path is
   [Linkset.dist]'s own (the root of the least squared endpoint
   distance); anything outside its guard takes [Linkset.dist] itself,
   so the value is the same bits either way. *)
let[@inline] [@wa.hot] link_dist ls i j =
  let sx = Linkset.sender_xs ls and sy = Linkset.sender_ys ls in
  let rx = Linkset.receiver_xs ls and ry = Linkset.receiver_ys ls in
  let sxi = sx.(i) and syi = sy.(i) and rxi = rx.(i) and ryi = ry.(i) in
  let sxj = sx.(j) and syj = sy.(j) and rxj = rx.(j) and ryj = ry.(j) in
  let dx1 = sxi -. sxj and dy1 = syi -. syj in
  let dx2 = sxi -. rxj and dy2 = syi -. ryj in
  let dx3 = rxi -. sxj and dy3 = ryi -. syj in
  let dx4 = rxi -. rxj and dy4 = ryi -. ryj in
  let ss = (dx1 *. dx1) +. (dy1 *. dy1) in
  let sr = (dx2 *. dx2) +. (dy2 *. dy2) in
  let rs = (dx3 *. dx3) +. (dy3 *. dy3) in
  let rr = (dx4 *. dx4) +. (dy4 *. dy4) in
  let m = Float.min (Float.min ss sr) (Float.min rs rr) in
  if m >= 1e-300 && m < 1e300 then sqrt m else Linkset.dist ls i j

(* d/lmin <= f(lmax/lmin).  Every threshold has f >= gamma for finite
   ratios — [Constant] is gamma, and [Log_power]'s [max 1.0] makes the
   product at least gamma·1 under any rounding — so d/lmin <= gamma
   decides the pair without evaluating f.  [Power_law] keeps [eval]:
   its [**] may round below 1.  The [lmax] guard keeps the one
   non-finite case (both lengths infinite, ratio NaN) on [eval]. *)
let[@wa.hot] conflicting p th ls i j =
  if i = j then false
  else begin
    let lengths = Linkset.lengths ls in
    let li = lengths.(i) and lj = lengths.(j) in
    let lmin = Float.min li lj and lmax = Float.max li lj in
    let r = link_dist ls i j /. lmin in
    match th with
    | (Constant gamma | Log_power gamma) when r <= gamma && lmax < infinity -> true
    | _ -> r <= eval p th (lmax /. lmin)
  end

(* Safe over-estimate of the conflict distance between link [i] (length
   [li]) and any link of a class with lengths in [cmin, cmax]: with
   m = min lengths and M = max lengths of a pair, a conflict needs
   d <= m·f(M/m), and (f non-decreasing) m <= min(li, cmax),
   M/m <= max(li, cmax) / min(li, cmin).  The bound holds in exact
   arithmetic, but the floating evaluations of the distance and of
   m·f(M/m) each round independently, so on boundary pairs (e.g.
   d/lmin exactly at the threshold) the computed radius can land a few
   ulps below the computed distance.  The 1e-9 relative slack dwarfs
   that round-off while barely perturbing the query; candidates are
   then filtered by the exact predicate, so over-query never costs
   correctness. *)
let radius_slack = 1.0 +. 1e-9

let[@wa.hot] class_radius p th ~li ~cmin ~cmax =
  (* [li], [cmin] arrive from [Linkset.length] / class bounds, both
     positive by construction; the positivity preconditions on these
     parameters are collected by the summary pass and discharged at
     every call site. *)
  Float.min li cmax
  *. eval p th (Float.max li cmax /. Float.min li cmin)
  *. radius_slack

(* Radius of the candidate query for link [i] against class position
   [c] of the index. *)
let query_radius idx p th i c =
  class_radius p th
    ~li:(Linkset.length (Link_index.linkset idx) i)
    ~cmin:(Link_index.class_min_length idx c)
    ~cmax:(Link_index.class_max_length idx c)

let graph_dense p th ls =
  Wa_obs.Trace.with_span "conflict.build.dense" @@ fun () ->
  let n = Linkset.size ls in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if conflicting p th ls i j then Graph.add_edge g i j
    done
  done;
  Wa_obs.Metrics.incr m_builds;
  Wa_obs.Metrics.add m_edges (Graph.edge_count g);
  g

let graph_indexed ?index ?domains p th ls =
  Wa_obs.Trace.with_span "conflict.build.indexed" @@ fun () ->
  let idx = match index with Some idx -> idx | None -> Link_index.build ls in
  let n = Linkset.size ls in
  let nc = Link_index.class_count idx in
  (* Each unordered pair is emitted exactly once, from its lower-class
     endpoint (lower id within the same class): a link in a strictly
     higher class is strictly longer, so its own sweep never revisits
     the pair.  The per-link metric updates run on whichever worker
     domain computes the link — counters are atomic, so the totals are
     independent of the fan-out. *)
  let edges_of scratch i =
    let ci = Link_index.class_of_link idx i in
    let acc = ref [] in
    for c = nc - 1 downto ci do
      let k =
        Link_index.candidates idx scratch ~cls:c i ~radius:(query_radius idx p th i c)
      in
      for q = 0 to k - 1 do
        let j = Link_index.candidate scratch q in
        if (c > ci || j > i) && conflicting p th ls i j then acc := j :: !acc
      done
    done;
    let js = !acc in
    Wa_obs.Metrics.add m_edges (List.length js);
    Wa_obs.Metrics.observe m_link_degree (float_of_int (List.length js));
    js
  in
  (* Pairs are unique by construction, so the rows go straight into
     the adjacency. *)
  let g = Graph.of_rows n (Parallel.init_with ?domains n Link_index.scratch edges_of) in
  Wa_obs.Metrics.incr m_builds;
  g

let graph ?(engine = `Indexed) ?index ?domains p th ls =
  match engine with
  | `Dense -> graph_dense p th ls
  | `Indexed -> graph_indexed ?index ?domains p th ls

let describe = function
  | Constant gamma -> Format.asprintf "G1 (f = %g)" gamma
  | Power_law { gamma; delta } -> Format.asprintf "Gobl (f = %g * x^%g)" gamma delta
  | Log_power gamma -> Format.asprintf "Garb (f = %g * log^{2/(a-2)} x)" gamma

(* Maximum independent set of the conflict graph restricted to a small
   candidate list, by branch and bound: at each step branch on the
   first remaining candidate (take it and drop its conflictors, or
   skip it), pruning when the remainder cannot beat the incumbent.
   The remaining-count argument [len] keeps the pruning test O(1) —
   it always equals the length of the list argument. *)
let independence_of_candidates p th ls candidates =
  let conflicts i j = conflicting p th ls i j in
  let rec go best taken len = function
    | [] -> max best taken
    | c :: rest ->
        if taken + len <= best then best
        else begin
          let without_c = go best taken (len - 1) rest in
          let compatible, ncomp =
            List.fold_left
              (fun (acc, k) o ->
                if conflicts c o then (acc, k) else (o :: acc, k + 1))
              ([], 0) rest
          in
          go without_c (taken + 1) ncomp (List.rev compatible)
        end
  in
  go 0 0 (List.length candidates) candidates

(* Greedy independent-set lower bound for oversized neighborhoods. *)
let greedy_independence p th ls candidates =
  List.fold_left
    (fun chosen c ->
      if List.for_all (fun o -> not (conflicting p th ls c o)) chosen then
        c :: chosen
      else chosen)
    [] candidates
  |> List.length

let exact_independence_limit = 24

let independence_value p th ls candidates =
  if List.length candidates <= exact_independence_limit then
    independence_of_candidates p th ls candidates
  else greedy_independence p th ls candidates

(* Not-shorter conflicting neighbors of [i], in descending id order
   (the order the dense scan produces, so the greedy fallback of
   [independence_value] sees identical inputs on either engine). *)
let longer_neighbors_dense p th ls i =
  let li = Linkset.length ls i in
  let neighbors = ref [] in
  for j = 0 to Linkset.size ls - 1 do
    if j <> i && Linkset.length ls j >= li && conflicting p th ls i j then
      neighbors := j :: !neighbors
  done;
  !neighbors

let longer_neighbors_indexed idx p th i =
  let ls = Link_index.linkset idx in
  let li = Linkset.length ls i in
  let ci = Link_index.class_of_link idx i in
  let acc = ref [] in
  (* Ascending classes with ascending ids inside, then one reversal:
     descending-id order overall needs descending (class, id) — links
     of a higher class position always have longer lengths but not
     necessarily higher ids, so sort explicitly. *)
  let scratch = Link_index.scratch () in
  for c = ci to Link_index.class_count idx - 1 do
    let k =
      Link_index.candidates idx scratch ~cls:c i ~radius:(query_radius idx p th i c)
    in
    for q = 0 to k - 1 do
      let j = Link_index.candidate scratch q in
      if j <> i && Linkset.length ls j >= li && conflicting p th ls i j then
        acc := j :: !acc
    done
  done;
  List.sort (fun a b -> Int.compare b a) !acc

let inductive_independence ?(engine = `Indexed) ?index p th ls =
  Wa_obs.Trace.with_span "conflict.inductive_independence" @@ fun () ->
  let n = Linkset.size ls in
  let value_of =
    match engine with
    | `Dense -> fun i -> independence_value p th ls (longer_neighbors_dense p th ls i)
    | `Indexed ->
        let idx =
          match index with Some idx -> idx | None -> Link_index.build ls
        in
        fun i -> independence_value p th ls (longer_neighbors_indexed idx p th i)
  in
  let values = Parallel.init n value_of in
  Array.fold_left max 0 values
