module Pointset = Wa_geom.Pointset
module Mst = Wa_graph.Mst
module Tree = Wa_graph.Tree
module Union_find = Wa_graph.Union_find
module Linkset = Wa_sinr.Linkset
module Link = Wa_sinr.Link
module Params = Wa_sinr.Params

type t = {
  points : Pointset.t;
  trees : (int * int) list list;
  links : Linkset.t;
}

let build ?(sink = 0) ~k points =
  if k < 1 then invalid_arg "K_connectivity.build: k must be >= 1";
  let n = Pointset.size points in
  if n < 2 then invalid_arg "K_connectivity.build: need at least two nodes";
  if 2 * k > n then
    invalid_arg
      (Printf.sprintf "K_connectivity.build: k = %d too large for %d nodes" k n);
  let used = Hashtbl.create (k * n) in
  let key u v = (min u v, max u v) in
  let residual_edges () =
    let acc = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (Hashtbl.mem used (key u v)) then
          acc := (u, v, Pointset.dist points u v) :: !acc
      done
    done;
    !acc
  in
  let trees =
    List.init k (fun stage ->
        let forest = Mst.kruskal ~n (residual_edges ()) in
        if not (Mst.is_spanning_tree ~n forest) then
          invalid_arg
            (Printf.sprintf
               "K_connectivity.build: residual graph disconnected at stage %d"
               (stage + 1));
        List.iter (fun (u, v) -> Hashtbl.replace used (key u v) ()) forest;
        forest)
  in
  (* Orient each tree toward the sink and concatenate the directed
     links. *)
  let links =
    List.concat_map
      (fun edges ->
        let tree = Tree.root ~n ~sink edges in
        List.map
          (fun (c, parent) ->
            Link.make (Pointset.get points c) (Pointset.get points parent))
          (Tree.directed_edges tree))
      trees
  in
  { points; trees; links = Linkset.of_links links }

let redundancy t = List.length t.trees

let union_edges t = List.concat t.trees

let connected_without t removed =
  let n = Pointset.size t.points in
  let uf = Union_find.create n in
  List.iter
    (fun (u, v) -> if not (List.mem (u, v) removed) then ignore (Union_find.union uf u v))
    (union_edges t);
  Union_find.count uf = 1

let is_k_edge_connected t =
  let k = redundancy t in
  let edges = union_edges t in
  if k = 1 then connected_without t []
  else if k = 2 then
    List.for_all (fun e -> connected_without t [ e ]) edges
  else if k = 3 then
    List.for_all
      (fun e1 ->
        List.for_all
          (fun e2 -> connected_without t [ e1; e2 ])
          edges)
      edges
  else begin
    (* Sampled check for larger k: random (k-1)-subsets. *)
    let rng = Wa_util.Rng.create 4242 in
    let arr = Array.of_list edges in
    let ok = ref true in
    for _ = 1 to 200 do
      let removed = List.init (k - 1) (fun _ -> Wa_util.Rng.pick rng arr) in
      if not (connected_without t removed) then ok := false
    done;
    !ok
  end

let schedule ?gamma p t mode = Greedy_schedule.schedule ?gamma p t.links mode
