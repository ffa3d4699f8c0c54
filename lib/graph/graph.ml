type t = {
  adj : int list array;
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { adj = Array.make n []; edges = 0 }

let vertex_count t = Array.length t.adj
let edge_count t = t.edges

let check_vertex t v =
  if v < 0 || v >= vertex_count t then invalid_arg "Graph: vertex out of range"

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  List.mem v t.adj.(u)

let add_edge t u v =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if mem_edge t u v then invalid_arg "Graph.add_edge: duplicate edge";
  t.adj.(u) <- v :: t.adj.(u);
  t.adj.(v) <- u :: t.adj.(v);
  t.edges <- t.edges + 1

let of_edges n edge_list =
  let t = create n in
  List.iter (fun (u, v) -> add_edge t u v) edge_list;
  t

let of_rows n rows =
  if Array.length rows <> n then invalid_arg "Graph.of_rows: row count";
  let t = create n in
  Array.iteri
    (fun u row ->
      List.iter
        (fun v ->
          check_vertex t v;
          if u = v then invalid_arg "Graph.of_rows: self-loop";
          t.adj.(u) <- v :: t.adj.(u);
          t.adj.(v) <- u :: t.adj.(v);
          t.edges <- t.edges + 1)
        row)
    rows;
  t

let neighbors t v =
  check_vertex t v;
  List.rev t.adj.(v)

let degree t v =
  check_vertex t v;
  List.length t.adj.(v)

let max_degree t =
  let best = ref 0 in
  for v = 0 to vertex_count t - 1 do
    best := max !best (List.length t.adj.(v))
  done;
  !best

let iter_edges f t =
  for u = 0 to vertex_count t - 1 do
    List.iter (fun v -> if u < v then f u v) t.adj.(u)
  done

let edges t =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) t;
  List.rev !acc

let fold_neighbors f t v init = List.fold_left (fun acc u -> f u acc) init t.adj.(v)

let adjacent t v =
  check_vertex t v;
  t.adj.(v)
