(** Delaunay triangulation (Bowyer–Watson).

    The Euclidean MST is a subgraph of the Delaunay triangulation, so
    Kruskal over the O(n) Delaunay edges replaces the O(n²) complete
    graph for large deployments.  {!Wa_graph.Mst} stays the oracle;
    the cross-check lives in the test suite.

    The incremental construction uses floating-point incircle
    predicates; on degenerate inputs (e.g. fully collinear pointsets,
    which have no triangles at all) {!edges} and {!candidates} can
    fail to span — {!Wa_graph.Mst.euclidean_fast} detects this and
    falls back to {!complete}. *)

val triangles : Pointset.t -> (int * int * int) list
(** Triangles of the Delaunay triangulation, each a sorted triple of
    point ids.  Empty for fewer than 3 points or fully degenerate
    inputs. *)

val edges : Pointset.t -> (int * int) list
(** Unique undirected edges of the triangulation (plus the single
    edge for 2-point inputs), each with [u < v]. *)

(** Weighted candidate edges in flat arrays: edge [k < count] joins
    [us.(k) < vs.(k)] and has length [ws.(k)] ([Pointset.dist]).  The
    arrays may be longer than [count]. *)
type candidates = { us : int array; vs : int array; ws : float array; count : int }

val candidates : Pointset.t -> candidates
(** The triangulation's edges (the single edge for 2 points, none for
    fewer), which contain an MST whenever they connect the pointset.
    Kruskal breaks weight ties by this order, so it is part of the
    contract: the reverse of the order in which the mesh adjacency
    emits the edges (triangles by ascending slot, edges by slot
    position). *)

val complete : Pointset.t -> candidates
(** Every pair [u < v], in reverse lexicographic order: the fallback
    candidate set for degenerate inputs whose triangulation does not
    span. *)

val is_delaunay : Pointset.t -> (int * int * int) list -> bool
(** Checks the empty-circumcircle property of every triangle against
    every point (O(T·n); for tests). *)
