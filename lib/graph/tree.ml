type t = {
  sink : int;
  parent : int array; (* parent.(sink) = -1 *)
  children : int list array;
  depth : int array;
  subtree : int array;
  order : int list; (* bottom-up *)
}

(* Rooting is one breadth-first pass over a flat adjacency: vertex
   [u]'s neighbours are [adj.(start.(u)) .. adj.(start.(u + 1) - 1)],
   in edge-list order (the order [Graph.neighbors] lists them), and the
   BFS queue is the order array itself.  Exactly n − 1 edges that reach
   every vertex from the sink form a spanning tree. *)
let root ~n ~sink edges =
  let not_tree () = invalid_arg "Tree.root: edges do not form a spanning tree" in
  if List.compare_length_with edges (n - 1) <> 0 then not_tree ();
  if sink < 0 || sink >= n then invalid_arg "Tree.root: sink out of range";
  let start = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then not_tree ();
      start.(u + 1) <- start.(u + 1) + 1;
      start.(v + 1) <- start.(v + 1) + 1)
    edges;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let adj = Array.make (2 * (n - 1)) 0 and fill = Array.sub start 0 n in
  List.iter
    (fun (u, v) ->
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  let parent = Array.make n (-1) and depth = Array.make n (-1) in
  let order = Array.make n sink in
  depth.(sink) <- 0;
  let tail = ref 1 in
  for head = 0 to n - 1 do
    if head < !tail then begin
      let u = order.(head) in
      for s = start.(u) to start.(u + 1) - 1 do
        let v = adj.(s) in
        if depth.(v) = -1 then begin
          depth.(v) <- depth.(u) + 1;
          parent.(v) <- u;
          order.(!tail) <- v;
          incr tail
        end
      done
    end
  done;
  if !tail < n then not_tree ();
  let children = Array.make n [] in
  for u = 0 to n - 1 do
    for s = start.(u + 1) - 1 downto start.(u) do
      let v = adj.(s) in
      if v <> parent.(u) then children.(u) <- v :: children.(u)
    done
  done;
  let subtree = Array.make n 1 in
  for k = n - 1 downto 1 do
    let v = order.(k) in
    subtree.(parent.(v)) <- subtree.(parent.(v)) + subtree.(v)
  done;
  let bottom_up = Array.fold_left (fun acc v -> v :: acc) [] order in
  { sink; parent; children; depth; subtree; order = bottom_up }

let size t = Array.length t.parent
let sink t = t.sink

let parent t v = if v = t.sink then None else Some t.parent.(v)

let children t v = t.children.(v)
let depth t v = t.depth.(v)

let height t = Array.fold_left max 0 t.depth

let subtree_size t v = t.subtree.(v)

let directed_edges t =
  let acc = ref [] in
  for v = size t - 1 downto 0 do
    if v <> t.sink then acc := (v, t.parent.(v)) :: !acc
  done;
  !acc

let bottom_up_order t = t.order

let is_leaf t v = List.is_empty t.children.(v)
