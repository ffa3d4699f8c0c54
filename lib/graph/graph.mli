(** Undirected graphs on integer vertices [0 .. n-1].

    Used both for spanning-tree computation on deployments and as the
    representation of the conflict graphs of Appendix A (vertices are
    then {e links}, not nodes). *)

type t

val create : int -> t
(** Graph with [n] vertices and no edges. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] adds each undirected edge once; self-loops and
    duplicates are rejected with [Invalid_argument]. *)

val of_rows : int -> int list array -> t
(** [of_rows n rows] adds the edge [(u, v)] for every [v] in
    [rows.(u)], in row order — the graph [add_edge] builds from the
    same sequence — without the duplicate scan: the caller guarantees
    that each unordered pair appears at most once across all rows.
    Self-loops and out-of-range vertices are rejected with
    [Invalid_argument]. *)

val vertex_count : t -> int
val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** Idempotent is {e not} guaranteed; adding an existing edge raises
    [Invalid_argument], as does a self-loop. *)

val mem_edge : t -> int -> int -> bool
val neighbors : t -> int -> int list
(** Neighbors in insertion order. *)

val degree : t -> int -> int
val max_degree : t -> int

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each undirected edge visited once with [u < v]. *)

val edges : t -> (int * int) list

val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val adjacent : t -> int -> int list
(** Neighbours in reverse insertion order, without a copy: for loops
    whose result does not depend on the order. *)
