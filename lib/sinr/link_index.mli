(** Spatial index of a link set, bucketed by dyadic length class.

    The paper's conflict graphs only join links whose link-to-link
    distance is below [f(l_max/l_min) · l_min] — a small multiple of
    the shorter link's length.  Bucketing links by {!Length_class} and
    indexing each class's endpoints in a {!Wa_geom.Grid_index} whose
    cell side is the class length scale turns the dense O(n²) pairwise
    scan into near-linear per-class range queries (cf.
    Halldórsson–Tonoyan's length-class conflict-graph machinery): for
    each link, only the few candidate links of each not-shorter class
    within the conflict radius are ever touched.

    The index is immutable once built, so it is safe to share across
    domains for parallel queries. *)

type t

val build : Linkset.t -> t
(** Partition the links into dyadic length classes and build one
    endpoint grid per non-empty class.  O(n) grid insertions. *)

val linkset : t -> Linkset.t
(** The link set the index was built over. *)

val class_count : t -> int
(** Number of non-empty length classes. *)

val class_of_link : t -> int -> int
(** Position (in [0 .. class_count - 1], ascending length) of the
    class holding the link.  Positions order classes by length:
    every link in a higher position is strictly longer than every
    link in a lower one. *)

val class_dyadic : t -> int -> int
(** Dyadic index ({!Length_class.class_of_link}) of the class at a
    position. *)

val class_members : t -> int -> int array
(** Link ids of the class at a position, ascending.  Do not mutate. *)

val class_min_length : t -> int -> float
(** Exact shortest link length in the class (not the dyadic lower
    bound — safe for threshold-radius arithmetic). *)

val class_max_length : t -> int -> float
(** Exact longest link length in the class. *)

val iter_candidates :
  t -> cls:int -> int -> radius:float -> (int -> unit) -> unit
(** [iter_candidates t ~cls i ~radius f] calls [f] once on every link
    [j] of the class at position [cls] with link-to-link distance
    [d(i,j) <= radius], in ascending id order; [i] itself is included
    when it qualifies.  Exact (the grid distance-filters endpoint
    candidates), including for infinite radii, where the grid's
    brute-force fallback takes over.  Safe to call from several
    domains at once: each query allocates its own hit buffer. *)
