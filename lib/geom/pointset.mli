(** Finite sets of plane points — the network deployments of the paper.

    A pointset is an immutable array of {!Vec2.t}; point ids are array
    indices.  The central quantity is the {e length diversity}
    [Δ = d_max / d_min], the ratio of the largest to the smallest
    inter-point distance (Sec. 2), which parameterizes all the paper's
    bounds. *)

type t

val of_array : Vec2.t array -> t
(** Takes ownership of a copy.  Raises [Invalid_argument] if fewer
    than one point or if two points coincide exactly (zero minimum
    distance would make Δ undefined). *)

val of_list : Vec2.t list -> t

val size : t -> int
val get : t -> int -> Vec2.t
val points : t -> Vec2.t array
(** A fresh copy of the underlying array. *)

val dist : t -> int -> int -> float
(** Distance between two points by id. *)

val bbox : t -> Bbox.t

val min_pairwise_distance : t -> float
(** Closest-pair distance.  Grid-accelerated expected O(n) after an
    O(n log n)-style pass; exact. *)

val max_pairwise_distance : t -> float
(** Diameter of the pointset (O(n²) on small sets, convex-hull-free
    but exact). *)

val diversity : t -> float
(** [Δ = max_pairwise_distance / min_pairwise_distance]. *)

val fold : (int -> Vec2.t -> 'a -> 'a) -> t -> 'a -> 'a

val nearest_neighbor : t -> int -> int
(** [nearest_neighbor t i] is the id of the point closest to point
    [i] (ties broken by id).  Raises [Invalid_argument] on singleton
    sets. *)

val translate : Vec2.t -> t -> t
val scale : float -> t -> t
(** Uniform scaling about the origin; factor must be positive. *)
