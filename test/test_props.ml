(* Cross-cutting property-based tests: the invariants that tie the
   paper's machinery together, exercised on randomized instances. *)

module Params = Wa_sinr.Params
module Link = Wa_sinr.Link
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Feasibility = Wa_sinr.Feasibility
module Power_solver = Wa_sinr.Power_solver
module Affectance = Wa_sinr.Affectance
module Conflict = Wa_core.Conflict
module Refinement = Wa_core.Refinement
module Greedy_schedule = Wa_core.Greedy_schedule
module Schedule = Wa_core.Schedule
module Agg_tree = Wa_core.Agg_tree
module Simulator = Wa_core.Simulator
module Pipeline = Wa_core.Pipeline
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Grid_index = Wa_geom.Grid_index
module Mst = Wa_graph.Mst
module Rng = Wa_util.Rng
module Random_deploy = Wa_instances.Random_deploy
module Alt_trees = Wa_baseline.Alt_trees

let p = Params.default

(* Generators --------------------------------------------------------- *)

let gen_pointset =
  QCheck.make ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(
      map
        (fun (seed, n) -> (seed, 5 + (abs n mod 40)))
        (pair (int_bound 100000) int))

let pointset_of (seed, n) =
  Random_deploy.uniform_square (Rng.create seed) ~n ~side:500.0

let gen_linkset =
  QCheck.make ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(
      map
        (fun (seed, n) -> (seed, 3 + (abs n mod 10)))
        (pair (int_bound 100000) int))

let linkset_of (seed, n) =
  let rng = Rng.create (seed + 7919) in
  Linkset.of_links
    (List.init n (fun _ ->
         let sx = Rng.float rng 200.0 and sy = Rng.float rng 200.0 in
         let dx = Rng.float_range rng 1.0 10.0 and dy = Rng.float_range rng 0.0 5.0 in
         Link.make (Vec2.make sx sy) (Vec2.make (sx +. dx) (sy +. dy))))

(* Properties ---------------------------------------------------------- *)

let prop_mst_minimal_weight =
  QCheck.Test.make ~count:40 ~name:"MST weight <= random spanning tree weight"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let n = Pointset.size ps in
      let mst = Mst.euclidean ps in
      let rng = Rng.create (fst input + 1) in
      let alt = Alt_trees.random_spanning_tree rng ps in
      ignore n;
      Mst.total_weight ps mst <= Mst.total_weight ps alt +. 1e-9)

let prop_mst_edges_local =
  QCheck.Test.make ~count:40 ~name:"every point connects to its nearest neighbor"
    gen_pointset (fun input ->
      (* Cycle property corollary: the nearest-neighbor edge of every
         point is in the (unique, generic-position) MST. *)
      let ps = pointset_of input in
      let mst = Mst.euclidean ps in
      let has u v = List.mem (min u v, max u v) mst in
      let ok = ref true in
      for i = 0 to Pointset.size ps - 1 do
        let nn = Pointset.nearest_neighbor ps i in
        (* Ties could break this; tolerate by checking distance equal. *)
        if not (has i nn) then begin
          let connected_closer =
            List.exists
              (fun (u, v) ->
                (u = i || v = i)
                && Pointset.dist ps u v <= Pointset.dist ps i nn +. 1e-9)
              mst
          in
          if not connected_closer then ok := false
        end
      done;
      !ok)

let prop_feasible_subset_closed =
  QCheck.Test.make ~count:60 ~name:"subsets of oblivious-feasible sets stay feasible"
    gen_linkset (fun input ->
      let ls = linkset_of input in
      let n = Linkset.size ls in
      let all = List.init n Fun.id in
      let scheme = Power.Oblivious 0.5 in
      (* Take the first feasible slot the greedy scheduler produces and
         drop one element at a time; feasibility must persist (removing
         an interferer only raises everyone's SINR). *)
      let sched, _ = Greedy_schedule.schedule p ls (Greedy_schedule.Oblivious_power 0.5) in
      ignore all;
      Array.for_all
        (fun slot ->
          List.for_all
            (fun drop ->
              let sub = List.filter (fun i -> i <> drop) slot in
              sub = [] || Feasibility.is_feasible p ls ~power:scheme sub)
            slot)
        sched.Schedule.slots)

let prop_solver_subset_closed =
  QCheck.Test.make ~count:30 ~name:"subsets of solver-feasible sets stay feasible"
    gen_linkset (fun input ->
      let ls = linkset_of input in
      let n = Linkset.size ls in
      let all = List.init n Fun.id in
      if Power_solver.feasible p ls all then
        List.for_all
          (fun drop ->
            Power_solver.feasible p ls (List.filter (fun i -> i <> drop) all))
          all
      else QCheck.assume_fail ())

let prop_solver_witness_sound =
  QCheck.Test.make ~count:60 ~name:"solver witness always passes the SINR check"
    gen_linkset (fun input ->
      let ls = linkset_of input in
      let n = Linkset.size ls in
      let slot = List.init (min n 5) Fun.id in
      match (Power_solver.solve p ls slot).Power_solver.power with
      | Some witness ->
          Feasibility.is_feasible p ls ~power:(Power.Custom witness) slot
      | None -> true)

let prop_conflict_symmetric =
  QCheck.Test.make ~count:60 ~name:"conflict relation is symmetric" gen_linkset
    (fun input ->
      let ls = linkset_of input in
      let n = Linkset.size ls in
      let ths =
        [ Conflict.constant (); Conflict.power_law ~tau:0.4 (); Conflict.log_power () ]
      in
      List.for_all
        (fun th ->
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if Conflict.conflicting p th ls i j <> Conflict.conflicting p th ls j i
              then ok := false
            done
          done;
          !ok)
        ths)

let prop_refinement_buckets_independent =
  QCheck.Test.make ~count:40 ~name:"refinement buckets are G1-independent on MSTs"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let agg = Agg_tree.mst ps in
      let r = Refinement.refine p agg.Agg_tree.links in
      Refinement.buckets_g1_independent p agg.Agg_tree.links r)

let prop_pipeline_schedules_verified =
  QCheck.Test.make ~count:25 ~name:"pipeline schedules are always SINR-valid"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      List.for_all
        (fun mode ->
          let plan = Pipeline.plan ~params:p mode ps in
          plan.Pipeline.valid)
        [ `Global; `Oblivious 0.5; `Uniform ])

let prop_simulator_conserves_frames =
  QCheck.Test.make ~count:20 ~name:"simulator aggregates every frame correctly"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let plan = Pipeline.plan ~params:p (`Oblivious 0.5) ps in
      let r = Pipeline.simulate ~horizon_periods:30 plan in
      r.Simulator.aggregates_correct
      && r.Simulator.frames_delivered <= r.Simulator.frames_generated
      && r.Simulator.violations = 0)

let prop_simulator_latency_monotone_frames =
  QCheck.Test.make ~count:15 ~name:"delivered frame count grows with horizon"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let plan = Pipeline.plan ~params:p `Global ps in
      let sched = plan.Pipeline.schedule in
      let run periods =
        (Simulator.run plan.Pipeline.agg sched
           (Simulator.config ~horizon:(periods * Schedule.length sched) sched))
          .Simulator.frames_delivered
      in
      run 40 >= run 20)

let prop_schedule_partition =
  QCheck.Test.make ~count:30 ~name:"greedy schedules partition the links"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let agg = Agg_tree.mst ps in
      List.for_all
        (fun mode ->
          let sched, _ = Greedy_schedule.schedule p agg.Agg_tree.links mode in
          Schedule.covers sched agg.Agg_tree.links)
        [ Greedy_schedule.Global_power; Greedy_schedule.Oblivious_power 0.3 ])

let prop_affectance_feasibility_consistent =
  QCheck.Test.make ~count:40 ~name:"feasibility iff total relative interference <= 1/beta"
    gen_linkset (fun input ->
      let ls = linkset_of input in
      let n = Linkset.size ls in
      let slot = List.init (min n 4) Fun.id in
      let scheme = Power.Oblivious 0.5 in
      let vec = Power.vector p ls scheme in
      (* In the noise-free regime the SINR check and the relative
         interference sum are the same statement. *)
      let by_sinr = Feasibility.is_feasible p ls ~power:scheme slot in
      let by_affectance =
        List.for_all
          (fun i ->
            Affectance.relative_total p ls ~power:vec slot i
            <= (1.0 /. p.Params.beta) +. 1e-9)
          slot
      in
      by_sinr = by_affectance)

let prop_periodic_of_schedule_consistent =
  QCheck.Test.make ~count:30 ~name:"Periodic.of_schedule preserves rate and validity"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let agg = Agg_tree.mst ps in
      let ls = agg.Agg_tree.links in
      let sched, _ = Greedy_schedule.schedule p ls (Greedy_schedule.Oblivious_power 0.5) in
      let per = Wa_core.Periodic.of_schedule sched in
      Wa_core.Periodic.covers per ls
      && Float.abs (Wa_core.Periodic.rate per ls -. Schedule.rate sched) < 1e-12
      && Wa_core.Periodic.is_valid p ls per)

let prop_monoid_aggregation_correct =
  QCheck.Test.make ~count:20 ~name:"all monoids aggregate correctly" gen_pointset
    (fun input ->
      let ps = pointset_of input in
      let plan = Pipeline.plan ~params:p `Global ps in
      let sched = plan.Pipeline.schedule in
      List.for_all
        (fun aggregation ->
          let cfg =
            Simulator.config ~aggregation
              ~horizon:(25 * Schedule.length sched)
              sched
          in
          (Simulator.run plan.Pipeline.agg sched cfg).Simulator.aggregates_correct)
        [ Simulator.sum; Simulator.max_agg; Simulator.min_agg ])

let prop_kconnect_trees_disjoint_and_spanning =
  QCheck.Test.make ~count:15 ~name:"k-connectivity trees edge-disjoint and spanning"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let n = Pointset.size ps in
      if n < 8 then QCheck.assume_fail ()
      else begin
        let kc = Wa_core.K_connectivity.build ~k:2 ps in
        let all = List.concat kc.Wa_core.K_connectivity.trees in
        let distinct = List.sort_uniq compare all in
        List.length distinct = List.length all
        && List.for_all (Wa_graph.Mst.is_spanning_tree ~n)
             kc.Wa_core.K_connectivity.trees
      end)

let prop_multihop_spanning =
  QCheck.Test.make ~count:20 ~name:"multihop union is a spanning tree" gen_pointset
    (fun input ->
      let ps = pointset_of input in
      let n = Pointset.size ps in
      let mh = Wa_core.Multihop.build ~cell_factor:1.5 ~sink:0 ps in
      Wa_graph.Mst.is_spanning_tree ~n mh.Wa_core.Multihop.edges)

let prop_hierarchical_spanning_and_shallow =
  QCheck.Test.make ~count:20 ~name:"hierarchical tree spanning with bounded depth"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let n = Pointset.size ps in
      let h = Wa_core.Hierarchical.build ~sink:0 ps in
      Wa_graph.Mst.is_spanning_tree ~n h.Wa_core.Hierarchical.edges
      && Wa_core.Hierarchical.depth h <= h.Wa_core.Hierarchical.levels + 1)

let prop_selection_matches_sort =
  QCheck.Test.make ~count:10 ~name:"network selection equals sorted order statistic"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let n = Pointset.size ps in
      let plan = Pipeline.plan ~params:p `Global ps in
      let rng = Rng.create (fst input) in
      let values = Array.init n (fun _ -> Rng.int rng 500) in
      let readings node = values.(node) in
      let sorted = Array.copy values in
      Array.sort compare sorted;
      let k = 1 + Rng.int rng n in
      let r =
        Wa_core.Functions.select ~range:(0, 500) ~k ~readings plan.Pipeline.agg
          plan.Pipeline.schedule
      in
      r.Wa_core.Functions.value = sorted.(k - 1))

let prop_mst_bounded_matches_mst_at_threshold =
  QCheck.Test.make ~count:20 ~name:"bounded MST at the threshold equals the MST"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let threshold = Agg_tree.connectivity_threshold ps in
      let bounded = Agg_tree.mst_bounded ~max_link:threshold ps in
      let plain = Agg_tree.mst ps in
      Agg_tree.link_count bounded = Agg_tree.link_count plain)

let prop_inductive_independence_small =
  QCheck.Test.make ~count:15 ~name:"inductive independence stays constant on MSTs"
    gen_pointset (fun input ->
      let ps = pointset_of input in
      let agg = Agg_tree.mst ps in
      let ls = agg.Agg_tree.links in
      Conflict.inductive_independence p (Conflict.constant ()) ls <= 8
      && Conflict.inductive_independence p (Conflict.log_power ()) ls <= 10)

(* Tie order of the flat Kruskal.  The reference is the list-based
   Kruskal the flat one replaced: a stable [List.sort] by
   [Float.compare] and a union-find filter.  Weights come from a
   handful of values (with -0.0, which compares equal to 0.0, and NaN,
   which sorts first), so most candidates tie and the result depends
   on the sort keeping candidate order; lists run past one insertion
   run and several merge passes, and carry self-loops, repeated pairs
   and reversed endpoints. *)
let kruskal_reference ~n weighted_edges =
  let sorted =
    List.sort (fun (_, _, w1) (_, _, w2) -> Float.compare w1 w2) weighted_edges
  in
  let uf = Wa_graph.Union_find.create n in
  List.filter_map
    (fun (u, v, _) ->
      if Wa_graph.Union_find.union uf u v then Some (min u v, max u v) else None)
    sorted

let gen_tied_candidates =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map (fun (u, v, w) -> Printf.sprintf "(%d,%d,%g)" u v w) es)))
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      let weight =
        oneofl [ 0.0; -0.0; 1.0; 1.0; 1.0; 2.5; 2.5; -3.0; infinity; Float.nan ]
      in
      list_size (int_range 0 300)
        (triple (int_bound (n - 1)) (int_bound (n - 1)) weight)
      >|= fun es -> (n, es))

let prop_kruskal_matches_stable_reference =
  QCheck.Test.make ~count:200 ~name:"flat Kruskal keeps the stable list order on ties"
    gen_tied_candidates (fun (n, es) -> Mst.kruskal ~n es = kruskal_reference ~n es)

(* Delaunay–Kruskal on inputs full of ties and degeneracies, against
   dense Prim by weight: a grid (every edge tied), a line (no
   triangles, so the complete-graph fallback runs), and near-duplicate
   pairs (exact duplicates are not a pointset).  The fast path's tie
   choices may differ from Prim's, its total weight may not. *)
let gen_degenerate_points =
  QCheck.make
    ~print:(fun (seed, n, kind) ->
      Printf.sprintf "seed=%d n=%d kind=%s" seed n
        [| "grid"; "collinear"; "near-duplicate" |].(kind))
    QCheck.Gen.(
      map
        (fun (seed, n, kind) -> (seed, 4 + (abs n mod 60), abs kind mod 3))
        (triple (int_bound 100000) int int))

let degenerate_points (seed, n, kind) =
  let rng = Rng.create seed in
  match kind with
  | 0 ->
      let cols = 2 + (seed mod 7) in
      Random_deploy.grid ~rows:(max 2 (n / cols)) ~cols ~spacing:(1.0 +. float_of_int (seed mod 5))
  | 1 ->
      let dx = Rng.float_range rng 0.1 1.0 and dy = Rng.float rng 1.0 in
      let t = ref 0.0 in
      Pointset.of_list
        (List.init n (fun _ ->
             t := !t +. 1.0 +. float_of_int (Rng.int rng 3);
             Vec2.make (!t *. dx) (!t *. dy)))
  | _ ->
      Pointset.of_list
        (List.concat
           (List.init ((n + 1) / 2) (fun k ->
                let x = float_of_int (k mod 7) *. 10.0
                and y = float_of_int (k / 7) *. 10.0 in
                [ Vec2.make x y; Vec2.make (Float.succ x) y ])))

let prop_delaunay_mst_degenerate_weight =
  QCheck.Test.make ~count:60 ~name:"Delaunay MST weight equals Prim on degenerate inputs"
    gen_degenerate_points (fun input ->
      let ps = degenerate_points input in
      let n = Pointset.size ps in
      let fast = Mst.euclidean_fast ps in
      let w_fast = Mst.total_weight ps fast and w_prim = Mst.total_weight ps (Mst.euclidean ps) in
      Mst.is_spanning_tree ~n fast
      && Float.abs (w_fast -. w_prim) <= 1e-9 *. Float.max 1.0 w_prim)

(* Pressure-oracle instances: uniform square, tight Gaussian clusters,
   and collinear-degenerate deployments, with MST links.  The last two
   put links very close together and give the deployment zero extent
   in one dimension. *)
let gen_pressure_instance =
  QCheck.make
    ~print:(fun (seed, n, kind) ->
      Printf.sprintf "seed=%d n=%d kind=%s" seed n
        [| "uniform"; "clustered"; "collinear" |].(kind))
    QCheck.Gen.(
      map
        (fun (seed, n, kind) -> (seed, 8 + (abs n mod 60), abs kind mod 3))
        (triple (int_bound 100000) int int))

let pressure_linkset_of (seed, n, kind) =
  let rng = Rng.create (seed + (31 * kind)) in
  let ps =
    match kind with
    | 0 -> Random_deploy.uniform_square rng ~n ~side:500.0
    | 1 ->
        Random_deploy.clusters rng
          ~clusters:(1 + (n / 10))
          ~per_cluster:10 ~side:500.0 ~spread:2.0
    | _ -> Random_deploy.uniform_line rng ~n ~length:500.0
  in
  (Agg_tree.mst ps).Agg_tree.links

let prop_pressure_batch_matches_record =
  QCheck.Test.make ~count:60
    ~name:"batch pressure equals record sums in rank order bit-for-bit"
    gen_pressure_instance (fun input ->
      let ls = pressure_linkset_of input in
      let n = Linkset.size ls in
      let batch = Affectance.mst_longer_pressure_all p ls in
      (* Independent re-derivation of the batch contract: walk the
         descending-length order, keep summing record-based terms while
         the candidate is not shorter than the query link. *)
      let order = Linkset.by_decreasing_length ls in
      let ok = ref true in
      for r = 0 to n - 1 do
        let i = order.(r) in
        let li = Linkset.length ls i in
        let total = ref 0.0 in
        let q = ref 0 in
        while !q < n && Linkset.length ls order.(!q) >= li do
          if !q <> r then
            total := !total +. Affectance.additive p ls i order.(!q);
          incr q
        done;
        if not (Float.equal batch.(i) !total) then ok := false
      done;
      !ok)

(* Record-based reference of the slot solver: the gain matrix, the
   ground-truth SINR and every step of [Power_solver.solve] written over
   [Link.sender_to_receiver] and [Params.alpha_pow], with the
   one-row-at-a-time mat-vec and the closure-based folds the flat
   kernels replaced.  The flat paths must agree with it bit for bit:
   the same verdicts, the same radius bits, the same iteration counts,
   the same witnesses. *)
module Ref_solver = struct
  let pow_len p ls i = Params.alpha_pow p (Linkset.length ls i)

  let s_to_r ls j i = Link.sender_to_receiver (Linkset.link ls j) (Linkset.link ls i)

  let gain p ls ids =
    let k = Array.length ids in
    let pow = Params.alpha_pow p in
    let m = Array.make (k * k) 0.0 in
    for a = 0 to k - 1 do
      let la = pow_len p ls ids.(a) in
      for b = 0 to k - 1 do
        if a <> b then begin
          let d = s_to_r ls ids.(b) ids.(a) in
          m.((a * k) + b) <-
            (if d <= 0.0 then infinity else p.Params.beta *. la /. pow d)
        end
      done
    done;
    m

  let sinr p ls ~power ~concurrent i =
    let pow = Params.alpha_pow p in
    let signal = power.(i) /. pow_len p ls i in
    let interference =
      List.fold_left
        (fun acc j ->
          if j = i then acc
          else
            let d = s_to_r ls j i in
            if d > 0.0 then acc +. (power.(j) /. pow d) else infinity)
        0.0 concurrent
    in
    let denom = interference +. p.Params.noise in
    if Float.equal denom 0.0 then infinity else signal /. denom

  let row_sums_below_one p ls ids =
    let k = Array.length ids in
    let m = gain p ls ids in
    let ok = ref true in
    for a = 0 to k - 1 do
      let row = ref 0.0 in
      for b = 0 to k - 1 do
        if a <> b then
          if Float.equal m.((a * k) + b) infinity then ok := false
          else begin
            row := !row +. m.((a * k) + b);
            if !row >= 1.0 then ok := false
          end
      done
    done;
    !ok

  let mat_vec k m x y =
    for a = 0 to k - 1 do
      let acc = ref 0.0 in
      for b = 0 to k - 1 do
        acc := !acc +. (m.((a * k) + b) *. x.(b))
      done;
      y.(a) <- !acc
    done

  let inf_norm x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x

  let estimate_rho k m =
    if k = 0 then 0.0
    else if Array.exists (fun v -> not (Float.is_finite v)) m then infinity
    else begin
      let x = ref (Array.make k 1.0) and y = Array.make k 0.0 in
      let rho = ref 0.0 in
      (try
         for _ = 1 to 40 do
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

  type cw = Feasible of float array * float * int | Infeasible of float * int
          | Unknown of float * int

  let cw_decide k m =
    let x = Array.make k 1.0 and y = Array.make k 0.0 in
    let verdict = ref None and iters = ref 0 in
    let best_hi = ref infinity and best_lo = ref 0.0 and stall = ref 0 in
    while Option.is_none !verdict && !iters < 60 do
      incr iters;
      mat_vec k m x y;
      let lo = ref infinity and hi = ref 0.0 in
      for a = 0 to k - 1 do
        let r = y.(a) /. x.(a) in
        if r < !lo then lo := r;
        if r > !hi then hi := r
      done;
      if Float.is_nan !lo || Float.is_nan !hi then
        verdict := Some (Unknown (!best_lo, !iters))
      else if !hi < 1.0 then verdict := Some (Feasible (Array.copy x, !hi, !iters))
      else if !lo >= 1.0 then verdict := Some (Infeasible (!lo, !iters))
      else begin
        let improved = !hi < 0.999 *. !best_hi || !lo > 1.001 *. !best_lo in
        if !hi < !best_hi then best_hi := !hi;
        if !lo > !best_lo then best_lo := !lo;
        if improved then stall := 0
        else begin
          incr stall;
          if !stall >= 3 then verdict := Some (Unknown (!best_lo, !iters))
        end;
        if Option.is_none !verdict then begin
          let n = inf_norm y in
          if Float.equal n 0.0 then verdict := Some (Feasible (Array.copy x, 0.0, !iters))
          else begin
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
    Option.value ~default:(Unknown (!best_lo, 60)) !verdict

  let solve_linear k m c =
    let a =
      Array.init k (fun i ->
          Array.init (k + 1) (fun j ->
              if j = k then c.(i)
              else if i = j then 1.0 -. m.((i * k) + j)
              else -.m.((i * k) + j)))
    in
    let ok = ref true in
    (try
       for col = 0 to k - 1 do
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
        x.(i) <- !acc /. a.(i).(i)
      done;
      if Array.for_all Float.is_finite x then Some x else None
    end

  let outcome ~feasible ~rho ~iterations power =
    { Power_solver.feasible; spectral_radius = rho; iterations; power }

  let verified p ls slot ids x ~rho ~iterations =
    let full = Array.make (Linkset.size ls) 1.0 in
    Array.iteri (fun a id -> full.(id) <- x.(a)) ids;
    if
      List.for_all
        (fun i ->
          sinr p ls ~power:full ~concurrent:slot i
          >= p.Params.beta *. (1.0 -. 1e-9))
        slot
    then Some (outcome ~feasible:true ~rho ~iterations (Some full))
    else None

  let noise_scale p ls ids m x =
    if p.Params.noise <= 0.0 then 1.0
    else begin
      let k = Array.length ids in
      let y = Array.make k 0.0 in
      mat_vec k m x y;
      let s = ref 1.0 in
      for a = 0 to k - 1 do
        let slack = x.(a) -. y.(a) in
        if slack > 0.0 then
          s :=
            Float.max !s
              (p.Params.beta *. p.Params.noise *. pow_len p ls ids.(a) /. slack)
      done;
      2.0 *. !s
    end

  let solve_exact p ls slot ids m ~rho ~iterations =
    let k = Array.length ids in
    let c =
      Array.init k (fun a ->
          let la = pow_len p ls ids.(a) in
          Float.max (p.Params.beta *. p.Params.noise *. la) la)
    in
    let infeasible = outcome ~feasible:false ~rho ~iterations None in
    match solve_linear k m c with
    | Some x when Array.for_all (fun v -> v > 0.0) x ->
        Option.value ~default:infeasible (verified p ls slot ids x ~rho ~iterations)
    | Some _ | None -> infeasible

  let solve ~quick p ls slot =
    match List.sort_uniq Int.compare slot with
    | [] -> outcome ~feasible:true ~rho:0.0 ~iterations:0 None
    | slot -> (
        let ids = Array.of_list slot in
        let k = Array.length ids in
        let m = gain p ls ids in
        if Array.exists (fun v -> not (Float.is_finite v)) m then
          outcome ~feasible:false ~rho:infinity ~iterations:0 None
        else
          match cw_decide k m with
          | Infeasible (lo, it) -> outcome ~feasible:false ~rho:lo ~iterations:it None
          | Feasible (x, hi, it) when p.Params.noise <= 0.0 && hi <= 0.99 ->
              let full = Array.make (Linkset.size ls) 1.0 in
              Array.iteri (fun a id -> full.(id) <- x.(a)) ids;
              outcome ~feasible:true ~rho:hi ~iterations:it (Some full)
          | Feasible (x, hi, it) -> (
              let s = noise_scale p ls ids m x in
              let x = Array.map (fun v -> s *. v) x in
              match verified p ls slot ids x ~rho:hi ~iterations:it with
              | Some o -> o
              | None -> solve_exact p ls slot ids m ~rho:hi ~iterations:it)
          | Unknown (lo, it) when quick ->
              outcome ~feasible:false ~rho:lo ~iterations:it None
          | Unknown (_, it) ->
              solve_exact p ls slot ids m ~rho:(estimate_rho k m) ~iterations:it)
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_float_arrays a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* Slot-solver instances: the MST links of a pressure instance under one
   of four parameter sets (default, noisy, alpha = 4, alpha = 3.5), and
   as slots its greedy Garb color classes — mostly feasible, some close
   to rho = 1 — plus each class merged with the next, whole (links that
   share a node make the matrix infinite) and restricted to the links
   sharing no node with it (mostly infeasible, some undecided). *)
let gen_solver_instance =
  QCheck.make
    ~print:(fun ((seed, n, kind), pk) ->
      Printf.sprintf "seed=%d n=%d kind=%d params=%d" seed n kind pk)
    QCheck.Gen.(
      pair
        (map
           (fun (seed, n, kind) -> (seed, 8 + (abs n mod 60), abs kind mod 3))
           (triple (int_bound 100000) int int))
        (int_bound 3))

let solver_params = function
  | 0 -> Params.default
  | 1 -> Params.make ~noise:1e-7 ()
  | 2 -> Params.make ~alpha:4.0 ()
  | _ -> Params.make ~alpha:3.5 ~beta:1.5 ()

let solver_slots p ls =
  let g = Greedy_schedule.conflict_graph p ls Greedy_schedule.Global_power in
  let classes =
    Array.to_list
      (Wa_graph.Coloring.classes
         (Wa_graph.Coloring.greedy ~order:(Linkset.by_decreasing_length ls) g))
  in
  let apart a j =
    List.for_all
      (fun i ->
        not (Link.shares_endpoint (Linkset.link ls i) (Linkset.link ls j)))
      a
  in
  let rec unions = function
    | a :: (b :: _ as rest) ->
        (a @ b) :: (a @ List.filter (apart a) b) :: unions rest
    | [ _ ] | [] -> []
  in
  classes @ unions classes

let prop_gain_and_sinr_match_record =
  QCheck.Test.make ~count:60
    ~name:"flat gain matrix, row sums and SINR equal the record oracle bit-for-bit"
    gen_solver_instance (fun (input, pk) ->
      let p = solver_params pk in
      let ls = pressure_linkset_of input in
      let power = Array.init (Linkset.size ls) (fun i -> 1.0 +. float_of_int (i mod 7)) in
      List.for_all
        (fun slot ->
          let ids = Array.of_list (List.sort_uniq Int.compare slot) in
          let m, row_sums = Feasibility.gain_matrix p ls ids in
          let ref_m = Ref_solver.gain p ls ids in
          let ref_sums = Array.make (Array.length ids) 0.0 in
          Ref_solver.mat_vec (Array.length ids) ref_m
            (Array.make (Array.length ids) 1.0)
            ref_sums;
          same_float_arrays m ref_m
          && same_float_arrays row_sums ref_sums
          && Bool.equal
               (Feasibility.row_sums_below_one p ls ids)
               (Ref_solver.row_sums_below_one p ls ids)
          && List.for_all
               (fun i ->
                 same_bits
                   (Feasibility.sinr p ls ~power ~concurrent:slot i)
                   (Ref_solver.sinr p ls ~power ~concurrent:slot i))
               slot)
        (solver_slots p ls))

let prop_solve_matches_record =
  QCheck.Test.make ~count:60
    ~name:"Power_solver.solve equals the record-based solver bit-for-bit"
    gen_solver_instance (fun (input, pk) ->
      let p = solver_params pk in
      let ls = pressure_linkset_of input in
      List.for_all
        (fun slot ->
          List.for_all
            (fun quick ->
              let got = Power_solver.solve ~quick p ls slot in
              let want = Ref_solver.solve ~quick p ls slot in
              Bool.equal got.Power_solver.feasible want.Power_solver.feasible
              && same_bits got.Power_solver.spectral_radius
                   want.Power_solver.spectral_radius
              && got.Power_solver.iterations = want.Power_solver.iterations
              &&
              match (got.Power_solver.power, want.Power_solver.power) with
              | None, None -> true
              | Some a, Some b -> same_float_arrays a b
              | Some _, None | None, Some _ -> false)
            [ false; true ])
        (solver_slots p ls))

(* Grid oracle: point sets that stress a spatial hash — uniform,
   clustered, collinear, heavy duplicates, points sitting on cell
   edges (coordinates and radii integer multiples of the cell side),
   all straddling the origin so cells go negative, and points near
   ±1e18, whose cell coordinates lie beyond the grid's ±2^50 clamp. *)
let gen_grid_instance =
  QCheck.make
    ~print:(fun (seed, n, kind) -> Printf.sprintf "seed=%d n=%d kind=%d" seed n kind)
    QCheck.Gen.(
      map
        (fun (seed, n, kind) -> (seed, 1 + (abs n mod 80), abs kind mod 6))
        (triple (int_bound 100000) int int))

let grid_points (seed, n, kind) =
  let rng = Rng.create (seed + (97 * kind)) in
  let cell = Rng.float_range rng 0.5 20.0 in
  let u () = Rng.float_range rng (-50.0) 50.0 in
  let pts =
    match kind with
    | 0 -> Array.init n (fun _ -> Vec2.make (u ()) (u ()))
    | 1 ->
        let centers = Array.init 3 (fun _ -> Vec2.make (u ()) (u ())) in
        Array.init n (fun _ ->
            let c = Rng.pick rng centers in
            Vec2.make
              (c.Vec2.x +. (0.3 *. Rng.gaussian rng))
              (c.Vec2.y +. (0.3 *. Rng.gaussian rng)))
    | 2 ->
        Array.init n (fun _ ->
            let t = u () in
            Vec2.make t ((-0.5 *. t) +. 3.0))
    | 3 ->
        let base = Array.init (1 + (n / 8)) (fun _ -> Vec2.make (u ()) (u ())) in
        Array.init n (fun _ -> Rng.pick rng base)
    | 4 ->
        let edge () = cell *. float_of_int (Rng.int rng 11 - 5) in
        Array.init n (fun _ -> Vec2.make (edge ()) (edge ()))
    | _ ->
        (* 128 is the float spacing at 1e18. *)
        let far () =
          (if Rng.bool rng then 1e18 else -1e18)
          +. (128.0 *. float_of_int (Rng.int rng 4))
        in
        Array.init n (fun _ -> Vec2.make (far ()) (far ()))
  in
  let radii =
    [ 0.0; cell; 2.0 *. cell; Rng.float rng (3.0 *. cell); Rng.float rng 200.0 ]
  in
  let probes =
    Array.to_list pts
    @ List.init 6 (fun _ -> Vec2.make (u ()) (u ()))
    @ [ Vec2.make (-.cell) cell; Vec2.make 0.0 0.0; Vec2.make 1e18 (-1e18) ]
  in
  (Grid_index.build ~cell_size:cell pts, pts, radii, probes)

let brute_within pts q r =
  List.filter (fun i -> Vec2.dist pts.(i) q <= r) (List.init (Array.length pts) Fun.id)

let prop_grid_matches_brute =
  QCheck.Test.make ~count:200
    ~name:"flat grid range and nearest queries equal a brute-force scan"
    gen_grid_instance (fun input ->
      let g, pts, radii, probes = grid_points input in
      let n = Array.length pts in
      let within_ok =
        List.for_all
          (fun q ->
            List.for_all
              (fun r ->
                List.equal Int.equal
                  (List.sort Int.compare (Grid_index.neighbors_within g q r))
                  (brute_within pts q r))
              radii)
          probes
      in
      let either_ok =
        List.for_all
          (fun (q1, q2) ->
            List.for_all
              (fun r ->
                let got = ref [] in
                Grid_index.iter_within_either g q1.Vec2.x q1.Vec2.y q2.Vec2.x
                  q2.Vec2.y r (fun i -> got := i :: !got);
                List.equal Int.equal (List.sort Int.compare !got)
                  (List.sort_uniq Int.compare
                     (brute_within pts q1 r @ brute_within pts q2 r)))
              radii)
          (List.combine probes (List.rev probes))
      in
      let nearest_ok =
        List.for_all
          (fun i ->
            let others = List.filter (fun j -> j <> i) (List.init n Fun.id) in
            match (Grid_index.nearest g ~exclude:i pts.(i), others) with
            | None, [] -> true
            | Some j, _ :: _ ->
                j <> i
                && Float.equal (Vec2.dist pts.(i) pts.(j))
                     (List.fold_left
                        (fun acc o -> Float.min acc (Vec2.dist pts.(i) pts.(o)))
                        infinity others)
            | None, _ :: _ | Some _, [] -> false)
          (List.init n Fun.id)
      in
      within_ok && either_ok && nearest_ok)

let prop_tdma_always_valid =
  QCheck.Test.make ~count:30 ~name:"naive TDMA is always valid" gen_pointset
    (fun input ->
      let ps = pointset_of input in
      let agg = Agg_tree.mst ps in
      let sched = Wa_baseline.Naive.tdma agg.Agg_tree.links in
      Schedule.is_valid p agg.Agg_tree.links sched)

let () =
  Alcotest.run "wa_props"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mst_minimal_weight;
            prop_mst_edges_local;
            prop_feasible_subset_closed;
            prop_solver_subset_closed;
            prop_solver_witness_sound;
            prop_conflict_symmetric;
            prop_refinement_buckets_independent;
            prop_pipeline_schedules_verified;
            prop_simulator_conserves_frames;
            prop_simulator_latency_monotone_frames;
            prop_schedule_partition;
            prop_affectance_feasibility_consistent;
            prop_pressure_batch_matches_record;
            prop_tdma_always_valid;
            prop_gain_and_sinr_match_record;
            prop_solve_matches_record;
            prop_grid_matches_brute;
            prop_periodic_of_schedule_consistent;
            prop_monoid_aggregation_correct;
            prop_kconnect_trees_disjoint_and_spanning;
            prop_multihop_spanning;
            prop_hierarchical_spanning_and_shallow;
            prop_selection_matches_sort;
            prop_mst_bounded_matches_mst_at_threshold;
            prop_kruskal_matches_stable_reference;
            prop_delaunay_mst_degenerate_weight;
            prop_inductive_independence_small;
          ] );
    ]
