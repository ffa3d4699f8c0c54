(** Minimum spanning trees.

    The paper's aggregation tree is simply the Euclidean MST of the
    deployment (Theorem 1); these are the construction algorithms.
    [euclidean] is Prim's algorithm run on the implicit complete
    geometric graph in O(n²) time and O(n) space, which comfortably
    covers the experiment sizes.  [kruskal] handles explicit edge
    lists (used for reduced graphs under power limitations, and as a
    cross-check oracle in tests). *)

val euclidean : Wa_geom.Pointset.t -> (int * int) list
(** Edges of an MST of the pointset, each pair [(u, v)] with [u < v].
    For a singleton set the list is empty.  Ties are broken
    deterministically (by point id), so the result is reproducible;
    when all pairwise distances are distinct the MST is unique. *)

val euclidean_fast : Wa_geom.Pointset.t -> (int * int) list
(** MST via Kruskal over the Delaunay edges (which always contain an
    MST) — near-linear instead of O(n²), for large deployments.  When
    the triangulation of a degenerate input does not span, Kruskal
    reruns on the complete graph, so the result always spans.  Weight
    ties are broken by {!Wa_geom.Delaunay.candidates}' order. *)

val kruskal : n:int -> (int * int * float) list -> (int * int) list
(** [kruskal ~n weighted_edges] returns a minimum spanning forest of
    the explicit graph: edges stably sorted by weight ([Float.compare];
    equal weights keep list order), merged with union-find, in that
    order.  Pairs are returned with [u < v]. *)

val total_weight : Wa_geom.Pointset.t -> (int * int) list -> float
(** Sum of Euclidean lengths of the given edges. *)

val is_spanning_tree : n:int -> (int * int) list -> bool
(** Checks the edge set is acyclic, connected, and covers
    [0 .. n-1]. *)
