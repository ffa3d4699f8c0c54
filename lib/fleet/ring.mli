(** Consistent-hash ring with virtual nodes.

    Each node contributes [vnodes] points on a hash circle (MD5-based,
    62-bit); a key belongs to the node owning the first point
    clockwise from the key's hash.  Membership changes move only the
    minimal arc: removing a node reassigns exactly the arcs its own
    points covered, adding one claims exactly the arcs its new points
    cut — the qcheck suite in [test/test_fleet.ml] pins both down.

    Rings are immutable; {!add}/{!remove} build a new ring so the
    router swaps membership atomically on its event loop. *)

type t

val default_vnodes : int
(** 64. *)

val create : ?vnodes:int -> string list -> t
(** Raises [Invalid_argument] on duplicate or empty names, or
    [vnodes < 1].  The ring is independent of name order. *)

val lookup : t -> string -> string option
(** Owner of a key; [None] on an empty ring. *)

val lookup_order : t -> string -> string list
(** Every node, in ring order from the key's position: the failover
    order — if the head is down the next inherits the key's arc. *)

val successors : t -> string -> int -> string list
(** [successors t name k]: the first [k] distinct {e other} nodes
    clockwise from [name]'s first vnode — its gossip neighborhood. *)

val add : t -> string -> t
(** No-op if already a member. *)

val remove : t -> string -> t
(** No-op if not a member. *)
