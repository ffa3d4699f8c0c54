module Vec2 = Wa_geom.Vec2
module Bbox = Wa_geom.Bbox
module Pointset = Wa_geom.Pointset
module Grid_index = Wa_geom.Grid_index
module Rng = Wa_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let v = Vec2.make

(* ----------------------------------------------------------------- Vec2 *)

let test_vec2_arith () =
  let a = v 1.0 2.0 and b = v 3.0 5.0 in
  check_float "add.x" 4.0 (Vec2.add a b).Vec2.x;
  check_float "add.y" 7.0 (Vec2.add a b).Vec2.y;
  check_float "sub.x" (-2.0) (Vec2.sub a b).Vec2.x;
  check_float "dot" 13.0 (Vec2.dot a b);
  check_float "scale" 2.0 (Vec2.scale 2.0 a).Vec2.x;
  check_float "neg" (-1.0) (Vec2.neg a).Vec2.x

let test_vec2_dist () =
  check_float "3-4-5" 5.0 (Vec2.dist (v 0.0 0.0) (v 3.0 4.0));
  check_float "dist2" 25.0 (Vec2.dist2 (v 0.0 0.0) (v 3.0 4.0));
  check_float "self" 0.0 (Vec2.dist (v 1.0 1.0) (v 1.0 1.0))

let test_vec2_midpoint_lerp () =
  let m = Vec2.midpoint (v 0.0 0.0) (v 2.0 4.0) in
  check_float "mid.x" 1.0 m.Vec2.x;
  check_float "mid.y" 2.0 m.Vec2.y;
  let l = Vec2.lerp 0.25 (v 0.0 0.0) (v 4.0 8.0) in
  check_float "lerp.x" 1.0 l.Vec2.x

let test_vec2_compare () =
  Alcotest.(check bool) "lex order" true (Vec2.compare (v 1.0 9.0) (v 2.0 0.0) < 0);
  Alcotest.(check bool) "y tiebreak" true (Vec2.compare (v 1.0 1.0) (v 1.0 2.0) < 0);
  Alcotest.(check bool) "equal" true (Vec2.equal (v 1.0 1.0) (v 1.0 1.0))

(* ----------------------------------------------------------------- Bbox *)

let test_bbox () =
  let b = Bbox.of_points [| v 1.0 2.0; v (-1.0) 5.0; v 0.0 0.0 |] in
  check_float "min_x" (-1.0) b.Bbox.min_x;
  check_float "max_y" 5.0 b.Bbox.max_y;
  check_float "width" 2.0 (Bbox.width b);
  check_float "height" 5.0 (Bbox.height b);
  Alcotest.(check bool) "contains" true (Bbox.contains b (v 0.5 1.0));
  Alcotest.(check bool) "not contains" false (Bbox.contains b (v 5.0 1.0));
  let e = Bbox.expand 1.0 b in
  check_float "expanded" (-2.0) e.Bbox.min_x

let test_bbox_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Bbox.of_points: empty array")
    (fun () -> ignore (Bbox.of_points [||]))

(* ------------------------------------------------------------- Pointset *)

let square4 () = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 0.0 1.0; v 1.0 1.0 ]

let test_pointset_basic () =
  let ps = square4 () in
  Alcotest.(check int) "size" 4 (Pointset.size ps);
  check_float "dist" 1.0 (Pointset.dist ps 0 1);
  check_float "diag" (sqrt 2.0) (Pointset.dist ps 0 3)

let test_pointset_coincident_rejected () =
  Alcotest.check_raises "coincident"
    (Invalid_argument "Pointset.of_array: coincident points") (fun () ->
      ignore (Pointset.of_list [ v 1.0 1.0; v 1.0 1.0 ]))

let test_pointset_diversity () =
  let ps = square4 () in
  check_float "delta" (sqrt 2.0) (Pointset.diversity ps);
  check_float "min pairwise" 1.0 (Pointset.min_pairwise_distance ps);
  check_float "max pairwise" (sqrt 2.0) (Pointset.max_pairwise_distance ps)

let brute_min ps =
  let n = Pointset.size ps in
  let best = ref infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      best := Float.min !best (Pointset.dist ps i j)
    done
  done;
  !best

let test_pointset_min_distance_large () =
  (* Exercise the grid-accelerated path (n > 64) against brute force. *)
  let rng = Rng.create 99 in
  for trial = 1 to 5 do
    let pts =
      Array.init 200 (fun _ -> v (Rng.float rng 100.0) (Rng.float rng 100.0))
    in
    let ps = Pointset.of_array pts in
    let got = Pointset.min_pairwise_distance ps in
    let expect = brute_min ps in
    if Float.abs (got -. expect) > 1e-9 then
      Alcotest.failf "trial %d: grid %g <> brute %g" trial got expect
  done

let test_pointset_nearest_neighbor () =
  let ps = Pointset.of_list [ v 0.0 0.0; v 10.0 0.0; v 10.5 0.0 ] in
  Alcotest.(check int) "nn of 0" 1 (Pointset.nearest_neighbor ps 0);
  Alcotest.(check int) "nn of 1" 2 (Pointset.nearest_neighbor ps 1);
  Alcotest.(check int) "nn of 2" 1 (Pointset.nearest_neighbor ps 2)

let test_pointset_transform () =
  let ps = square4 () in
  let moved = Pointset.translate (v 5.0 5.0) ps in
  check_float "translated" 5.0 (Pointset.get moved 0).Vec2.x;
  let scaled = Pointset.scale 3.0 ps in
  check_float "scaled diversity unchanged" (Pointset.diversity ps)
    (Pointset.diversity scaled);
  Alcotest.check_raises "scale 0"
    (Invalid_argument "Pointset.scale: factor must be positive") (fun () ->
      ignore (Pointset.scale 0.0 ps))

let test_pointset_fold () =
  let ps = square4 () in
  let count = Pointset.fold (fun _ _ acc -> acc + 1) ps 0 in
  Alcotest.(check int) "fold visits all" 4 count

(* ----------------------------------------------------------- Grid_index *)

let test_grid_neighbors_within () =
  let pts = [| v 0.0 0.0; v 1.0 0.0; v 3.0 0.0; v 0.5 0.5 |] in
  let g = Grid_index.build ~cell_size:1.0 pts in
  let near = List.sort compare (Grid_index.neighbors_within g (v 0.0 0.0) 1.2) in
  Alcotest.(check (list int)) "within 1.2" [ 0; 1; 3 ] near

let test_grid_nearest () =
  let pts = [| v 0.0 0.0; v 5.0 0.0; v 5.2 0.0 |] in
  let g = Grid_index.build ~cell_size:1.0 pts in
  Alcotest.(check (option int)) "nearest to p1 skipping itself" (Some 2)
    (Grid_index.nearest g ~exclude:1 pts.(1))

let test_grid_nearest_matches_brute () =
  let rng = Rng.create 7 in
  let pts = Array.init 150 (fun _ -> v (Rng.float rng 50.0) (Rng.float rng 50.0)) in
  let g = Grid_index.build ~cell_size:2.0 pts in
  for i = 0 to 149 do
    let brute = ref (-1) and brute_d = ref infinity in
    for j = 0 to 149 do
      if j <> i then begin
        let d = Vec2.dist pts.(i) pts.(j) in
        if d < !brute_d then begin
          brute_d := d;
          brute := j
        end
      end
    done;
    match Grid_index.nearest g ~exclude:i pts.(i) with
    | Some j ->
        if Float.abs (Vec2.dist pts.(i) pts.(j) -. !brute_d) > 1e-9 then
          Alcotest.failf "point %d: grid %d (%g) brute %d (%g)" i j
            (Vec2.dist pts.(i) pts.(j)) !brute !brute_d
    | None -> Alcotest.fail "nearest returned None"
  done

let test_grid_pairs_within () =
  let pts = [| v 0.0 0.0; v 1.0 0.0; v 10.0 0.0 |] in
  let g = Grid_index.build ~cell_size:1.0 pts in
  let pairs = ref [] in
  Grid_index.iter_pairs_within g 2.0 (fun i j -> pairs := (i, j) :: !pairs);
  Alcotest.(check (list (pair int int))) "one close pair" [ (0, 1) ] !pairs

let test_grid_rejects_bad_cell () =
  Alcotest.check_raises "cell 0"
    (Invalid_argument "Grid_index.build: cell_size must be positive and finite")
    (fun () -> ignore (Grid_index.build ~cell_size:0.0 [| v 0.0 0.0 |]))

(* ------------------------------------------------------------- Delaunay *)

module Delaunay = Wa_geom.Delaunay

let random_pointset seed n span =
  let rng = Rng.create seed in
  Pointset.of_array
    (Array.init n (fun _ -> v (Rng.float rng span) (Rng.float rng span)))

let test_delaunay_property () =
  List.iter
    (fun seed ->
      let ps = random_pointset seed 60 100.0 in
      let tris = Delaunay.triangles ps in
      Alcotest.(check bool) "nonempty" true (tris <> []);
      Alcotest.(check bool) "empty circumcircles" true (Delaunay.is_delaunay ps tris))
    [ 1; 2; 3 ]

let test_delaunay_edge_count () =
  (* Planar graph: |E| <= 3n - 6. *)
  let ps = random_pointset 5 100 200.0 in
  let es = Delaunay.edges ps in
  Alcotest.(check bool) "planar bound" true (List.length es <= (3 * 100) - 6);
  Alcotest.(check bool) "at least n-1" true (List.length es >= 99)

let test_delaunay_contains_mst () =
  List.iter
    (fun seed ->
      let ps = random_pointset (100 + seed) 80 500.0 in
      let prim = Wa_graph.Mst.euclidean ps in
      let fast = Wa_graph.Mst.euclidean_fast ps in
      Alcotest.(check bool) "fast MST spans" true
        (Wa_graph.Mst.is_spanning_tree ~n:80 fast);
      let w1 = Wa_graph.Mst.total_weight ps prim in
      let w2 = Wa_graph.Mst.total_weight ps fast in
      if Float.abs (w1 -. w2) > 1e-6 *. w1 then
        Alcotest.failf "seed %d: prim %.9g <> delaunay %.9g" seed w1 w2)
    [ 1; 2; 3; 4; 5 ]

let test_delaunay_collinear_fallback () =
  (* No triangles exist; the fast MST must fall back to the complete
     graph and still be the chain. *)
  let ps = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.5 0.0; v 7.0 0.0 ] in
  Alcotest.(check (list (pair int int))) "chain"
    [ (0, 1); (1, 2); (2, 3) ]
    (List.sort compare (Wa_graph.Mst.euclidean_fast ps))

let test_delaunay_small_inputs () =
  Alcotest.(check (list (pair int int))) "two points" [ (0, 1) ]
    (Delaunay.edges (Pointset.of_list [ v 0.0 0.0; v 1.0 0.0 ]));
  Alcotest.(check bool) "one point no tris" true
    (Delaunay.triangles (Pointset.of_list [ v 0.0 0.0 ]) = [])

let test_delaunay_grid () =
  (* Cocircular degeneracies galore: must still triangulate something
     spanning with the empty-circle property up to tolerance. *)
  let pts =
    Array.init 25 (fun k -> v (float_of_int (k mod 5)) (float_of_int (k / 5)))
  in
  let ps = Pointset.of_array pts in
  let fast = Wa_graph.Mst.euclidean_fast ps in
  Alcotest.(check bool) "spans" true (Wa_graph.Mst.is_spanning_tree ~n:25 fast);
  let w1 = Wa_graph.Mst.total_weight ps (Wa_graph.Mst.euclidean ps) in
  let w2 = Wa_graph.Mst.total_weight ps fast in
  Alcotest.(check (float 1e-6)) "same weight" w1 w2

let () =
  Alcotest.run "wa_geom"
    [
      ( "vec2",
        [
          Alcotest.test_case "arith" `Quick test_vec2_arith;
          Alcotest.test_case "dist" `Quick test_vec2_dist;
          Alcotest.test_case "midpoint/lerp" `Quick test_vec2_midpoint_lerp;
          Alcotest.test_case "compare" `Quick test_vec2_compare;
        ] );
      ( "bbox",
        [
          Alcotest.test_case "basic" `Quick test_bbox;
          Alcotest.test_case "empty rejected" `Quick test_bbox_empty_rejected;
        ] );
      ( "pointset",
        [
          Alcotest.test_case "basic" `Quick test_pointset_basic;
          Alcotest.test_case "coincident rejected" `Quick test_pointset_coincident_rejected;
          Alcotest.test_case "diversity" `Quick test_pointset_diversity;
          Alcotest.test_case "min distance (grid path)" `Quick test_pointset_min_distance_large;
          Alcotest.test_case "nearest neighbor" `Quick test_pointset_nearest_neighbor;
          Alcotest.test_case "transform" `Quick test_pointset_transform;
          Alcotest.test_case "fold" `Quick test_pointset_fold;
        ] );
      ( "delaunay",
        [
          Alcotest.test_case "empty circumcircle" `Quick test_delaunay_property;
          Alcotest.test_case "edge counts" `Quick test_delaunay_edge_count;
          Alcotest.test_case "contains MST" `Quick test_delaunay_contains_mst;
          Alcotest.test_case "collinear fallback" `Quick test_delaunay_collinear_fallback;
          Alcotest.test_case "small inputs" `Quick test_delaunay_small_inputs;
          Alcotest.test_case "grid degeneracy" `Quick test_delaunay_grid;
        ] );
      ( "grid_index",
        [
          Alcotest.test_case "neighbors within" `Quick test_grid_neighbors_within;
          Alcotest.test_case "nearest" `Quick test_grid_nearest;
          Alcotest.test_case "nearest vs brute" `Quick test_grid_nearest_matches_brute;
          Alcotest.test_case "pairs within" `Quick test_grid_pairs_within;
          Alcotest.test_case "bad cell size" `Quick test_grid_rejects_bad_cell;
        ] );
    ]
