(* The spatial-indexed conflict-graph engine and its supporting
   machinery: Link_index range queries, dense/indexed equivalence
   across all threshold kinds and instance families, parallel
   determinism, the Grid_index ring-budget clamp, Linkset length
   caching, and the branch-and-bound pruning rewrite. *)

module Params = Wa_sinr.Params
module Link = Wa_sinr.Link
module Linkset = Wa_sinr.Linkset
module Link_index = Wa_sinr.Link_index
module Conflict = Wa_core.Conflict
module Schedule = Wa_core.Schedule
module Agg_tree = Wa_core.Agg_tree
module Pipeline = Wa_core.Pipeline
module Pointset = Wa_geom.Pointset
module Grid_index = Wa_geom.Grid_index
module Vec2 = Wa_geom.Vec2
module Parallel = Wa_util.Parallel
module Rng = Wa_util.Rng
module Random_deploy = Wa_instances.Random_deploy

let p = Params.default

let v = Vec2.make

let thresholds =
  [
    ("constant", Conflict.constant ());
    ("power_law", Conflict.power_law ~tau:0.4 ());
    ("log_power", Conflict.log_power ());
  ]

let mst_links ps = (Agg_tree.mst ps).Agg_tree.links

let sorted_edges g = List.sort compare (Wa_graph.Graph.edges g)

let graphs_equal a b =
  Wa_graph.Graph.vertex_count a = Wa_graph.Graph.vertex_count b
  && sorted_edges a = sorted_edges b

(* Instance families ---------------------------------------------------- *)

let uniform_ls seed n =
  mst_links (Random_deploy.uniform_square (Rng.create seed) ~n ~side:1000.0)

let clustered_ls seed =
  mst_links
    (Random_deploy.clusters (Rng.create seed) ~clusters:5 ~per_cluster:10
       ~side:2000.0 ~spread:8.0)

let exp_line_ls () =
  let tau = 0.5 in
  let n = min 8 (Wa_instances.Exp_line.max_float_points p ~tau) in
  mst_links (Wa_instances.Exp_line.pointset p ~tau ~n)

(* Arbitrary (non-tree) linksets stress same-length classes and
   duplicate geometry more than MSTs do. *)
let random_ls seed n =
  let rng = Rng.create (seed + 31) in
  Linkset.of_links
    (List.init n (fun _ ->
         let sx = Rng.float rng 300.0 and sy = Rng.float rng 300.0 in
         let dx = Rng.float_range rng 0.5 40.0
         and dy = Rng.float_range rng 0.0 10.0 in
         Link.make (v sx sy) (v (sx +. dx) (sy +. dy))))

(* Unit tests ----------------------------------------------------------- *)

let test_link_index_candidates_exact () =
  let ls = uniform_ls 7 80 in
  let idx = Link_index.build ls in
  let n = Linkset.size ls in
  let s = Link_index.scratch () in
  for i = 0 to n - 1 do
    for c = 0 to Link_index.class_count idx - 1 do
      let radius = 120.0 in
      let count = Link_index.candidates idx s ~cls:c i ~radius in
      let got = List.init count (Link_index.candidate s) in
      let want =
        Array.to_list (Link_index.class_members idx c)
        |> List.filter (fun j -> Linkset.dist ls i j <= radius)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "candidates link %d class %d" i c)
        want got
    done
  done

let test_link_index_classes_partition () =
  let ls = clustered_ls 3 in
  let idx = Link_index.build ls in
  let seen = Array.make (Linkset.size ls) 0 in
  for c = 0 to Link_index.class_count idx - 1 do
    let cmin = Link_index.class_min_length idx c
    and cmax = Link_index.class_max_length idx c in
    Alcotest.(check bool) "class bounds ordered" true (cmin <= cmax);
    Array.iter
      (fun i ->
        seen.(i) <- seen.(i) + 1;
        let l = Linkset.length ls i in
        Alcotest.(check bool) "member length inside class bounds" true
          (cmin <= l && l <= cmax);
        Alcotest.(check int) "class_of_link consistent" c
          (Link_index.class_of_link idx i))
      (Link_index.class_members idx c)
  done;
  Alcotest.(check bool) "every link in exactly one class" true
    (Array.for_all (fun c -> c = 1) seen)

let test_grid_ring_budget_clamp () =
  (* Doubly-exponential gaps: cell size is dwarfed by the query radius,
     so the old unclamped sweep would loop over ~1e150 cells.  The
     budget must kick in and still return the exact answer. *)
  let points =
    Array.init 12 (fun i -> v (if i = 0 then 0.0 else 10.0 ** (12.0 *. float_of_int i)) 0.0)
  in
  let g = Grid_index.build ~cell_size:1.0 points in
  let got = List.sort compare (Grid_index.neighbors_within g (v 0.0 0.0) 1e140) in
  let want =
    Array.to_list points
    |> List.mapi (fun i q -> (i, q))
    |> List.filter (fun (_, q) -> Vec2.dist (v 0.0 0.0) q <= 1e140)
    |> List.map fst
  in
  Alcotest.(check (list int)) "clamped sweep is exact" want got;
  let inf_r = List.sort compare (Grid_index.neighbors_within g (v 0.0 0.0) infinity) in
  Alcotest.(check (list int)) "infinite radius returns everything"
    (List.init 12 Fun.id) inf_r

let test_linkset_cached_extrema () =
  let ls = random_ls 5 40 in
  let naive_min = ref infinity and naive_max = ref 0.0 in
  for i = 0 to Linkset.size ls - 1 do
    naive_min := Float.min !naive_min (Linkset.length ls i);
    naive_max := Float.max !naive_max (Linkset.length ls i)
  done;
  Alcotest.(check (float 0.0)) "min_length" !naive_min (Linkset.min_length ls);
  Alcotest.(check (float 0.0)) "max_length" !naive_max (Linkset.max_length ls);
  Alcotest.(check (float 1e-12)) "diversity" (!naive_max /. !naive_min)
    (Linkset.diversity ls)

let test_parallel_init_matches_sequential () =
  let f i = (i * 7919) mod 1001 in
  List.iter
    (fun n ->
      let seq = Array.init n f in
      Alcotest.(check bool)
        (Printf.sprintf "init n=%d, forced 4 domains" n)
        true
        (Parallel.init ~domains:4 ~threshold:1 n f = seq);
      Alcotest.(check bool)
        (Printf.sprintf "init n=%d, single domain" n)
        true
        (Parallel.init ~domains:1 n f = seq);
      (* Each chunk writes its own scratch between reads, so a scratch
         shared across chunks would tear the results. *)
      let g s i =
        s.(0) <- i;
        for _ = 1 to 100 do
          s.(0) <- s.(0) + 1
        done;
        f (s.(0) - 100)
      in
      Alcotest.(check bool)
        (Printf.sprintf "init_with n=%d, forced 4 domains" n)
        true
        (Parallel.init_with ~domains:4 ~threshold:1 n (fun () -> Array.make 1 0) g = seq))
    [ 0; 1; 2; 31; 32; 33; 257 ];
  let hits = Array.make 100 0 in
  Parallel.iter ~domains:3 ~threshold:1 100 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "iter touches every index once" true
    (Array.for_all (fun c -> c = 1) hits)

(* Fan-outs draw their domains from one budget, nested ones included:
   a [Parallel.init ~domains:2] inside each chunk of a
   [Parallel.iter ~domains:2] returns the sequential array, and outer
   and inner chunks together never run on more domains than there are
   CPUs.  Without the budget the two inner fan-outs would each spawn a
   domain of their own, four in all. *)
let test_parallel_nested_within_budget () =
  let n = 100 in
  let seq = Array.init n (fun i -> i * i) in
  let seen = Atomic.make [] in
  let rec note d =
    let l = Atomic.get seen in
    if not (List.mem d l || Atomic.compare_and_set seen l (d :: l)) then note d
  in
  let ok = Array.make 2 false in
  Parallel.iter ~domains:2 ~threshold:1 2 (fun k ->
      note (Domain.self () :> int);
      let inner =
        Parallel.init ~domains:2 ~threshold:1 n (fun i ->
            note (Domain.self () :> int);
            i * i)
      in
      ok.(k) <- inner = seq);
  Alcotest.(check bool) "both inner inits match sequential" true
    (Array.for_all Fun.id ok);
  let domains = List.length (Atomic.get seen) in
  Alcotest.(check bool)
    (Printf.sprintf "%d domain(s) ran chunks, at most %d" domains
       (Parallel.available_domains ()))
    true
    (domains <= Parallel.available_domains ())

let test_branch_and_bound_pruning () =
  (* The O(1) remaining-count prune must not change exact values:
     compare against the greedy lower bound and a no-pruning oracle on
     seeded neighborhoods. *)
  let rec oracle conflicts = function
    | [] -> 0
    | c :: rest ->
        let without = oracle conflicts rest in
        let with_c =
          1 + oracle conflicts (List.filter (fun o -> not (conflicts c o)) rest)
        in
        max without with_c
  in
  List.iter
    (fun seed ->
      let ls = random_ls seed 18 in
      let candidates = List.init (Linkset.size ls) Fun.id in
      List.iter
        (fun (name, th) ->
          let conflicts i j = Conflict.conflicting p th ls i j in
          let exact = Conflict.independence_of_candidates p th ls candidates in
          let greedy = Conflict.greedy_independence p th ls candidates in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: matches unpruned oracle" name seed)
            (oracle conflicts candidates)
            exact;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: exact >= greedy bound" name seed)
            true (exact >= greedy))
        thresholds)
    [ 1; 2; 3; 4; 5 ]

let test_pipeline_engines_agree () =
  let ps = Random_deploy.uniform_square (Rng.create 23) ~n:60 ~side:800.0 in
  List.iter
    (fun mode ->
      let dense = Pipeline.plan ~params:p ~engine:`Dense mode ps in
      let indexed = Pipeline.plan ~params:p ~engine:`Indexed mode ps in
      Alcotest.(check bool) "both plans valid" true
        (dense.Pipeline.valid && indexed.Pipeline.valid);
      Alcotest.(check int) "same slot count"
        (Pipeline.slots dense) (Pipeline.slots indexed))
    [ `Global; `Oblivious 0.5; `Uniform ]

(* Property tests ------------------------------------------------------- *)

let gen_seeded name =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "%s seed=%d n=%d" name seed n)
    QCheck.Gen.(
      map (fun (seed, n) -> (seed, 5 + (abs n mod 60))) (pair (int_bound 100000) int))

let equivalence_on name linkset_of =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "indexed graph == dense graph (%s)" name)
    (gen_seeded name)
    (fun input ->
      let ls = linkset_of input in
      List.for_all
        (fun (_, th) ->
          graphs_equal (Conflict.graph_dense p th ls)
            (Conflict.graph_indexed p th ls))
        thresholds)

let prop_equiv_uniform = equivalence_on "uniform MST" (fun (s, n) -> uniform_ls s n)

let prop_equiv_random_links =
  equivalence_on "random non-tree links" (fun (s, n) -> random_ls s n)

let prop_equiv_clustered =
  equivalence_on "clustered MST" (fun (s, _) -> clustered_ls s)

let prop_equiv_adversarial =
  QCheck.Test.make ~count:6 ~name:"indexed graph == dense graph (exp_line, nested)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 2))
    (fun level ->
      let instances =
        [
          exp_line_ls ();
          mst_links
            (Wa_instances.Nested.pointset
               (Wa_instances.Nested.build p ~level:(1 + level)));
        ]
      in
      List.for_all
        (fun ls ->
          List.for_all
            (fun (_, th) ->
              graphs_equal (Conflict.graph_dense p th ls)
                (Conflict.graph_indexed p th ls))
            thresholds)
        instances)

let prop_parallel_deterministic =
  QCheck.Test.make ~count:20 ~name:"parallel and sequential builds agree"
    (gen_seeded "determinism")
    (fun (seed, n) ->
      let ls = uniform_ls seed n in
      let idx = Link_index.build ls in
      List.for_all
        (fun (_, th) ->
          (* Two runs of the fan-out build (whatever the domain count)
             plus the sequential dense build must yield one identical
             structure: results may not depend on scheduling. *)
          let g1 = Conflict.graph_indexed ~index:idx p th ls in
          let g2 = Conflict.graph_indexed ~index:idx p th ls in
          graphs_equal g1 g2
          && graphs_equal g1 (Conflict.graph_dense p th ls)
          && Conflict.inductive_independence ~engine:`Dense p th ls
             = Conflict.inductive_independence ~engine:`Indexed ~index:idx p th ls)
        thresholds)

let prop_indexed_schedule_valid =
  QCheck.Test.make ~count:15 ~name:"indexed-engine pipeline schedules stay SINR-valid"
    (gen_seeded "pipeline")
    (fun (seed, n) ->
      let ps =
        Random_deploy.uniform_square (Rng.create seed) ~n:(max 8 n) ~side:900.0
      in
      let plan = Pipeline.plan ~params:p ~engine:`Indexed `Global ps in
      plan.Pipeline.valid
      && Schedule.covers plan.Pipeline.schedule (mst_links ps))

let () =
  Alcotest.run "wa_index"
    [
      ( "link-index",
        [
          Alcotest.test_case "candidates_within exact" `Quick
            test_link_index_candidates_exact;
          Alcotest.test_case "classes partition links" `Quick
            test_link_index_classes_partition;
        ] );
      ( "grid",
        [
          Alcotest.test_case "ring budget clamp" `Quick test_grid_ring_budget_clamp;
        ] );
      ( "linkset",
        [
          Alcotest.test_case "cached extrema" `Quick test_linkset_cached_extrema;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "init/iter match sequential" `Quick
            test_parallel_init_matches_sequential;
          Alcotest.test_case "nested calls stay within the budget" `Quick
            test_parallel_nested_within_budget;
        ] );
      ( "independence",
        [
          Alcotest.test_case "pruned branch-and-bound exact" `Quick
            test_branch_and_bound_pruning;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "engines agree" `Quick test_pipeline_engines_agree;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_equiv_uniform;
            prop_equiv_random_links;
            prop_equiv_clustered;
            prop_equiv_adversarial;
            prop_parallel_deterministic;
            prop_indexed_schedule_valid;
          ] );
    ]
