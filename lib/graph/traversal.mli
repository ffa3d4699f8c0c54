(** Graph traversals and connectivity queries. *)

val bfs_depths : Graph.t -> int -> int array
(** Hop distance from the source; [-1] for unreachable vertices. *)

val component_count : Graph.t -> int

val is_connected : Graph.t -> bool
(** True for the empty graph on one vertex; false on zero vertices. *)

val diameter_hops : Graph.t -> int
(** Largest BFS eccentricity over all vertices; [-1] if the graph is
    disconnected.  O(n·(n+m)). *)
