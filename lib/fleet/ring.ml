(* Consistent-hash ring with virtual nodes.

   Every node contributes [vnodes] points on a 62-bit hash circle;
   a key is owned by the node of the first point clockwise from the
   key's hash.  Removing a node only moves the arcs its own points
   covered (they fall to each arc's successor), and adding one only
   claims the arcs its new points cut — the "minimal moved arc"
   property the qcheck suite pins down.

   Hashes come from MD5 (already in the trusted base as the cache's
   content address), folded to a non-negative int.  The ring is
   immutable: membership changes build a new ring, so the router can
   swap it atomically under its own discipline. *)

type t = {
  names : string array;  (* distinct node names, creation order *)
  hashes : int array;  (* vnode positions, sorted ascending *)
  owners : int array;  (* owners.(i): index into names of hashes.(i) *)
  vnodes : int;
}

let default_vnodes = 64

let hash_string s =
  let d = Digest.string s in
  (* Fold the first 8 digest bytes into a non-negative int. *)
  let b = Bytes.unsafe_of_string d in
  Int64.to_int (Bytes.get_int64_le b 0) land max_int

let vnode_hash name i = hash_string (Printf.sprintf "%s#%d" name i)

let create ?(vnodes = default_vnodes) names =
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if n = "" then invalid_arg "Ring.create: empty node name";
      if Hashtbl.mem seen n then
        invalid_arg ("Ring.create: duplicate node " ^ n);
      Hashtbl.add seen n ())
    names;
  let names = Array.of_list names in
  let points =
    Array.init
      (Array.length names * vnodes)
      (fun i ->
        let node = i / vnodes and v = i mod vnodes in
        (vnode_hash names.(node) v, node))
  in
  (* Ties between vnode hashes are broken by owner index so the ring
     is independent of insertion order. *)
  Array.sort
    (fun (h1, o1) (h2, o2) ->
      match Int.compare h1 h2 with 0 -> Int.compare o1 o2 | c -> c)
    points;
  {
    names;
    hashes = Array.map fst points;
    owners = Array.map snd points;
    vnodes;
  }

let is_empty t = Array.length t.names = 0

(* Index of the first vnode with hash >= h, wrapping to 0. *)
let successor_index t h =
  let n = Array.length t.hashes in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.hashes.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let lookup t key =
  if is_empty t then None
  else Some t.names.(t.owners.(successor_index t (hash_string key)))

(* Distinct owners in ring order starting from the key's position —
   the failover order: if the first is down, the second inherits the
   key's arc, and so on. *)
let lookup_order t key =
  if is_empty t then []
  else begin
    let n = Array.length t.hashes in
    let node_count = Array.length t.names in
    let seen = Array.make node_count false in
    let out = ref [] in
    let found = ref 0 in
    let start = successor_index t (hash_string key) in
    let i = ref 0 in
    while !found < node_count && !i < n do
      let owner = t.owners.((start + !i) mod n) in
      if not seen.(owner) then begin
        seen.(owner) <- true;
        out := t.names.(owner) :: !out;
        incr found
      end;
      incr i
    done;
    List.rev !out
  end

(* The node's gossip neighborhood: the first [k] distinct other nodes
   clockwise from the node's first vnode. *)
let successors t name k =
  match Array.length t.names with
  | 0 | 1 -> []
  | _ ->
      let order = lookup_order t (Printf.sprintf "%s#%d" name 0) in
      List.filter (fun n -> n <> name) order |> List.filteri (fun i _ -> i < k)

let add t name =
  if Array.exists (fun n -> n = name) t.names then t
  else create ~vnodes:t.vnodes (Array.to_list t.names @ [ name ])

let remove t name =
  create ~vnodes:t.vnodes
    (Array.to_list t.names |> List.filter (fun n -> n <> name))
