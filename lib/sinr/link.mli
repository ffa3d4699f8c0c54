(** Directed communication links (Sec. 2).

    A link is a sender/receiver pair of plane points.  Links are
    compared by id inside a {!Linkset}; this module holds the purely
    geometric operations. *)

type t = { src : Wa_geom.Vec2.t; dst : Wa_geom.Vec2.t }

val make : Wa_geom.Vec2.t -> Wa_geom.Vec2.t -> t
(** Raises [Invalid_argument] if sender and receiver coincide. *)

val length : t -> float
(** [l_i = d(s_i, r_i)]. *)

val sender_to_receiver : t -> t -> float
(** [sender_to_receiver i j] is [d_ij = d(s_i, r_j)] — the distance
    from the sender of the first link to the receiver of the second,
    the denominator of the interference term [I_ij]. *)

val min_distance : t -> t -> float
(** [d(i,j)]: minimum distance among the four endpoint pairs — the
    link-to-link distance used by the conflict graphs and the additive
    operator [I].  Zero when the links share an endpoint. *)

val shares_endpoint : t -> t -> bool

val equal : t -> t -> bool
(** Endpoint-wise {!Wa_geom.Vec2.equal}: NaN-safe (a link equals
    itself even with NaN coordinates) and the comparator the wa-lint
    [float-eq] rule demands instead of polymorphic [=] on links. *)

val compare : t -> t -> int
(** Lexicographic on (src, dst) via {!Wa_geom.Vec2.compare}
    (NaN-safe total order). *)

val reverse : t -> t
