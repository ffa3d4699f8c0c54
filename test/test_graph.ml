module Union_find = Wa_graph.Union_find
module Graph = Wa_graph.Graph
module Mst = Wa_graph.Mst
module Traversal = Wa_graph.Traversal
module Tree = Wa_graph.Tree
module Coloring = Wa_graph.Coloring
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Rng = Wa_util.Rng

let v = Vec2.make

(* ----------------------------------------------------------- Union_find *)

let test_uf_basics () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial count" 5 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union repeat" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "connected" true (Union_find.connected uf 0 1);
  Alcotest.(check bool) "not connected" false (Union_find.connected uf 0 2);
  Alcotest.(check int) "count after union" 4 (Union_find.count uf);
  Alcotest.(check int) "size" 2 (Union_find.size_of uf 0)

let test_uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "0~3" true (Union_find.connected uf 0 3);
  Alcotest.(check int) "size 4" 4 (Union_find.size_of uf 3)

(* ---------------------------------------------------------------- Graph *)

let test_graph_edges () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "vertices" 4 (Graph.vertex_count g);
  Alcotest.(check int) "edges" 3 (Graph.edge_count g);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "mem sym" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "not mem" false (Graph.mem_edge g 0 3);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  Alcotest.(check (list (pair int int))) "edge list" [ (0, 1); (1, 2); (2, 3) ]
    (Graph.edges g)

let test_graph_rejects () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> Graph.add_edge g 1 0)

let test_graph_of_rows () =
  (* The rows build the graph [add_edge] builds from the same pair
     sequence, neighbour order included. *)
  let rows = [| [ 3; 1 ]; [ 2 ]; []; [ 2 ] |] in
  let g = Graph.of_rows 4 rows in
  let h = Graph.create 4 in
  Array.iteri (fun u row -> List.iter (fun v -> Graph.add_edge h u v) row) rows;
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  for v = 0 to 3 do
    Alcotest.(check (list int)) "neighbours" (Graph.neighbors h v) (Graph.neighbors g v)
  done;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_rows: self-loop")
    (fun () -> ignore (Graph.of_rows 2 [| [ 0 ]; [] |]))

(* ------------------------------------------------------------------ MST *)

let line5 () =
  Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.5 0.0; v 3.0 0.0; v 10.0 0.0 ]

let test_mst_line () =
  (* On a line the MST is the chain of consecutive points. *)
  let edges = Mst.euclidean (line5 ()) in
  Alcotest.(check (list (pair int int))) "chain"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.sort compare edges)

let test_mst_is_spanning () =
  let rng = Rng.create 5 in
  let pts = Array.init 40 (fun _ -> v (Rng.float rng 10.0) (Rng.float rng 10.0)) in
  let ps = Pointset.of_array pts in
  let edges = Mst.euclidean ps in
  Alcotest.(check bool) "spanning tree" true (Mst.is_spanning_tree ~n:40 edges)

let test_mst_matches_kruskal () =
  let rng = Rng.create 21 in
  for _ = 1 to 10 do
    let n = 30 in
    let pts = Array.init n (fun _ -> v (Rng.float rng 100.0) (Rng.float rng 100.0)) in
    let ps = Pointset.of_array pts in
    let prim = Mst.euclidean ps in
    let all_edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        all_edges := (i, j, Pointset.dist ps i j) :: !all_edges
      done
    done;
    let kruskal = Mst.kruskal ~n !all_edges in
    let w1 = Mst.total_weight ps prim and w2 = Mst.total_weight ps kruskal in
    if Float.abs (w1 -. w2) > 1e-6 then
      Alcotest.failf "prim %g <> kruskal %g" w1 w2
  done

let test_mst_singleton () =
  Alcotest.(check (list (pair int int))) "no edges" []
    (Mst.euclidean (Pointset.of_list [ v 0.0 0.0 ]))

let test_mst_not_spanning_detection () =
  Alcotest.(check bool) "cycle rejected" false
    (Mst.is_spanning_tree ~n:3 [ (0, 1); (1, 2); (0, 2) ]);
  Alcotest.(check bool) "too few" false (Mst.is_spanning_tree ~n:3 [ (0, 1) ]);
  Alcotest.(check bool) "disconnected" false
    (Mst.is_spanning_tree ~n:4 [ (0, 1); (0, 1) ] = true)

(* ------------------------------------------------------------ Traversal *)

let path_graph n = Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_bfs_depths () =
  let g = path_graph 5 in
  Alcotest.(check (array int)) "depths from 0" [| 0; 1; 2; 3; 4 |]
    (Traversal.bfs_depths g 0);
  Alcotest.(check (array int)) "depths from 2" [| 2; 1; 0; 1; 2 |]
    (Traversal.bfs_depths g 2)

let test_components () =
  let g = Graph.of_edges 5 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "3 components" 3 (Traversal.component_count g);
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g);
  Alcotest.(check bool) "path connected" true (Traversal.is_connected (path_graph 4))

let test_diameter () =
  Alcotest.(check int) "path diameter" 4 (Traversal.diameter_hops (path_graph 5));
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "disconnected" (-1) (Traversal.diameter_hops g)

(* ----------------------------------------------------------------- Tree *)

let test_tree_rooting () =
  (* Star: 0 in the center; root at leaf 1. *)
  let t = Tree.root ~n:4 ~sink:1 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check int) "sink" 1 (Tree.sink t);
  Alcotest.(check (option int)) "parent of 0" (Some 1) (Tree.parent t 0);
  Alcotest.(check (option int)) "parent of 2" (Some 0) (Tree.parent t 2);
  Alcotest.(check (option int)) "parent of sink" None (Tree.parent t 1);
  Alcotest.(check int) "depth of 3" 2 (Tree.depth t 3);
  Alcotest.(check int) "height" 2 (Tree.height t);
  Alcotest.(check int) "subtree of 0" 3 (Tree.subtree_size t 0);
  Alcotest.(check int) "subtree of sink" 4 (Tree.subtree_size t 1);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf t 2);
  Alcotest.(check bool) "not leaf" false (Tree.is_leaf t 0)

let test_tree_directed_edges () =
  let t = Tree.root ~n:4 ~sink:0 [ (0, 1); (1, 2); (1, 3) ] in
  Alcotest.(check (list (pair int int))) "child->parent"
    [ (1, 0); (2, 1); (3, 1) ]
    (Tree.directed_edges t)

let test_tree_bottom_up () =
  let t = Tree.root ~n:5 ~sink:0 [ (0, 1); (1, 2); (2, 3); (2, 4) ] in
  let order = Tree.bottom_up_order t in
  let position = Hashtbl.create 5 in
  List.iteri (fun idx node -> Hashtbl.add position node idx) order;
  let pos n = Hashtbl.find position n in
  Alcotest.(check bool) "children before parents" true
    (pos 3 < pos 2 && pos 4 < pos 2 && pos 2 < pos 1 && pos 1 < pos 0)

let test_tree_rejects_non_tree () =
  Alcotest.check_raises "not a tree"
    (Invalid_argument "Tree.root: edges do not form a spanning tree") (fun () ->
      ignore (Tree.root ~n:3 ~sink:0 [ (0, 1) ]))

(* ------------------------------------------------------------- Coloring *)

let test_greedy_path () =
  let g = path_graph 6 in
  let c = Coloring.greedy g in
  Alcotest.(check bool) "proper" true (Coloring.validate g c);
  Alcotest.(check int) "two colors" 2 c.Coloring.classes

let test_greedy_complete () =
  let n = 5 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  let g = Graph.of_edges n !edges in
  let c = Coloring.greedy g in
  Alcotest.(check int) "K5 needs 5" 5 c.Coloring.classes;
  Alcotest.(check bool) "proper" true (Coloring.validate g c)

let test_greedy_custom_order () =
  let g = path_graph 4 in
  let c = Coloring.greedy ~order:[| 3; 2; 1; 0 |] g in
  Alcotest.(check bool) "proper" true (Coloring.validate g c)

let test_greedy_rejects_bad_order () =
  let g = path_graph 3 in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Coloring.greedy: order is not a permutation") (fun () ->
      ignore (Coloring.greedy ~order:[| 0; 0; 1 |] g))

let test_dsatur () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  let c = Coloring.dsatur g in
  Alcotest.(check bool) "proper" true (Coloring.validate g c);
  Alcotest.(check int) "triangle forces 3" 3 c.Coloring.classes

let test_classes_partition () =
  let g = path_graph 5 in
  let c = Coloring.greedy g in
  let classes = Coloring.classes c in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 classes in
  Alcotest.(check int) "partition" 5 total;
  let sizes = Coloring.class_sizes c in
  Alcotest.(check int) "sizes sum" 5 (Array.fold_left ( + ) 0 sizes)

let test_trivial_coloring () =
  let c = Coloring.trivial 4 in
  Alcotest.(check int) "n colors" 4 c.Coloring.classes;
  let g = path_graph 4 in
  Alcotest.(check bool) "proper" true (Coloring.validate g c)

let test_validate_rejects_improper () =
  let g = path_graph 3 in
  let bad = { Coloring.colors = [| 0; 0; 1 |]; classes = 2 } in
  Alcotest.(check bool) "improper" false (Coloring.validate g bad)

let qcheck_tests =
  let random_graph_gen =
    QCheck.make
      (QCheck.Gen.map
         (fun (n, seed) ->
           let n = 2 + (n mod 30) in
           let rng = Rng.create seed in
           let edges = ref [] in
           for i = 0 to n - 1 do
             for j = i + 1 to n - 1 do
               if Rng.int rng 100 < 30 then edges := (i, j) :: !edges
             done
           done;
           (n, !edges))
         QCheck.Gen.(pair small_nat int))
  in
  [
    QCheck.Test.make ~count:100 ~name:"greedy always proper" random_graph_gen
      (fun (n, edges) ->
        let g = Graph.of_edges n edges in
        Coloring.validate g (Coloring.greedy g));
    QCheck.Test.make ~count:100 ~name:"dsatur always proper" random_graph_gen
      (fun (n, edges) ->
        let g = Graph.of_edges n edges in
        Coloring.validate g (Coloring.dsatur g));
    QCheck.Test.make ~count:100 ~name:"greedy bounded by maxdeg+1" random_graph_gen
      (fun (n, edges) ->
        let g = Graph.of_edges n edges in
        (Coloring.greedy g).Coloring.classes <= Graph.max_degree g + 1);
    QCheck.Test.make ~count:50 ~name:"mst spanning on random points"
      QCheck.(int_bound 10000)
      (fun seed ->
        let rng = Rng.create seed in
        let n = 2 + Rng.int rng 40 in
        let pts =
          Array.init n (fun _ -> v (Rng.float rng 100.0) (Rng.float rng 100.0))
        in
        match Pointset.of_array pts with
        | ps -> Mst.is_spanning_tree ~n (Mst.euclidean ps)
        | exception Invalid_argument _ -> QCheck.assume_fail ());
  ]

let () =
  Alcotest.run "wa_graph"
    [
      ( "union_find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basics;
          Alcotest.test_case "transitive" `Quick test_uf_transitive;
        ] );
      ( "graph",
        [
          Alcotest.test_case "edges" `Quick test_graph_edges;
          Alcotest.test_case "rejects" `Quick test_graph_rejects;
          Alcotest.test_case "of_rows" `Quick test_graph_of_rows;
        ] );
      ( "mst",
        [
          Alcotest.test_case "line chain" `Quick test_mst_line;
          Alcotest.test_case "spanning" `Quick test_mst_is_spanning;
          Alcotest.test_case "prim = kruskal weight" `Quick test_mst_matches_kruskal;
          Alcotest.test_case "singleton" `Quick test_mst_singleton;
          Alcotest.test_case "non-tree detection" `Quick test_mst_not_spanning_detection;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs depths" `Quick test_bfs_depths;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "diameter" `Quick test_diameter;
        ] );
      ( "tree",
        [
          Alcotest.test_case "rooting" `Quick test_tree_rooting;
          Alcotest.test_case "directed edges" `Quick test_tree_directed_edges;
          Alcotest.test_case "bottom-up order" `Quick test_tree_bottom_up;
          Alcotest.test_case "rejects non-tree" `Quick test_tree_rejects_non_tree;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "greedy path" `Quick test_greedy_path;
          Alcotest.test_case "greedy complete" `Quick test_greedy_complete;
          Alcotest.test_case "custom order" `Quick test_greedy_custom_order;
          Alcotest.test_case "bad order rejected" `Quick test_greedy_rejects_bad_order;
          Alcotest.test_case "dsatur" `Quick test_dsatur;
          Alcotest.test_case "classes partition" `Quick test_classes_partition;
          Alcotest.test_case "trivial" `Quick test_trivial_coloring;
          Alcotest.test_case "validate improper" `Quick test_validate_rejects_improper;
        ]
        @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
    ]
