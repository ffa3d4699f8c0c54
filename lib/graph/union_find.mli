(** Disjoint-set forest with union by rank and path compression. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val union : t -> int -> int -> bool
(** Merge the two sets; returns [false] if they were already one. *)

val connected : t -> int -> int -> bool

val count : t -> int
(** Number of disjoint sets remaining. *)

val size_of : t -> int -> int
(** Size of the set containing the element. *)
