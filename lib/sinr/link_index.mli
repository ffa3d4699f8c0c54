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

val class_members : t -> int -> int array
(** Link ids of the class at a position, ascending.  Do not mutate. *)

val class_min_length : t -> int -> float
(** Exact shortest link length in the class (not the dyadic lower
    bound — safe for threshold-radius arithmetic). *)

val class_max_length : t -> int -> float
(** Exact longest link length in the class. *)

type scratch
(** A reusable candidate buffer.  Not shareable across domains: give
    each domain its own (see {!Wa_util.Parallel.init_with}). *)

val scratch : unit -> scratch

val candidates : t -> scratch -> cls:int -> int -> radius:float -> int
(** [candidates t s ~cls i ~radius] finds every link [j] of the class
    at position [cls] with link-to-link distance [d(i,j) <= radius],
    stores them in [s] in ascending id order and returns their count;
    [i] itself is included when it qualifies.  Exact (the grid
    distance-filters endpoint candidates), including for infinite
    radii, where the grid's brute-force fallback takes over.  The
    query allocates nothing once [s] has grown to the largest hit
    count; the next query on [s] overwrites the result. *)

val candidate : scratch -> int -> int
(** [candidate s k] is the [k]-th link found by the last query on [s]. *)
