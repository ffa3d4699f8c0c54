(** Indexed sets of links.

    A linkset fixes ids [0 .. n-1] for a collection of links (Sec. 2
    numbers links 1..n); schedules, colorings and conflict graphs all
    speak in these ids.  Pairwise geometric quantities are cached on
    demand. *)

type t

val of_links : Link.t list -> t
val of_array : Link.t array -> t

val of_tree : Wa_geom.Pointset.t -> Wa_graph.Tree.t -> t
(** Convergecast links of a rooted tree: one link per non-sink vertex,
    directed [child -> parent].  Link ids follow ascending child id;
    {!tree_child} recovers the mapping. *)

val size : t -> int
val link : t -> int -> Link.t
val length : t -> int -> float

(** {2 Flat (struct-of-arrays) view}

    Contiguous coordinate and length arrays for the hot pair kernels.
    The arrays are the linkset's own storage — callers must not
    mutate them.  Distances formed from these via
    {!Wa_geom.Vec2.dist_xy} are bit-identical to the record-based
    {!Link.min_distance} / {!Link.sender_to_receiver}. *)

val sender_xs : t -> float array
val sender_ys : t -> float array
val receiver_xs : t -> float array
val receiver_ys : t -> float array

val lengths : t -> float array
(** All link lengths, indexed by id.  Same storage caveat. *)

val lengths_pow : t -> Params.t -> float array
(** [l_i^alpha] for every link, computed with {!Params.alpha_pow} and
    memoized per alpha.  Same storage caveat. *)

val tree_child : t -> int -> int option
(** For linksets built by {!of_tree}, the child vertex whose uplink
    this is; [None] otherwise. *)

val min_length : t -> float
(** Cached at construction; O(1). *)

val max_length : t -> float
(** Cached at construction; O(1). *)

val diversity : t -> float
(** Ratio of longest to shortest link length (the paper's Δ(L));
    O(1), from the cached extrema. *)

val dist : t -> int -> int -> float
(** [dist t i j] is the link-to-link distance [d(i,j)] (min endpoint
    distance). *)

val sender_to_receiver : t -> int -> int -> float
(** [sender_to_receiver t i j = d_ij = d(s_i, r_j)]. *)

val by_decreasing_length : t -> int array
(** Link ids sorted by non-increasing length (ties by id) — the
    processing order of the paper's greedy algorithms. *)

val by_increasing_length : t -> int array

val iter : (int -> Link.t -> unit) -> t -> unit
val fold : (int -> Link.t -> 'a -> 'a) -> t -> 'a -> 'a
