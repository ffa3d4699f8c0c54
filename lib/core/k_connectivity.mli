(** k-edge-connected aggregation structures (Remark 2).

    The paper notes that its scheduling results extend from spanning
    trees to k-edge-connected spanning subgraphs, with the Lemma-1
    sparsity constant growing from O(1) to O(k⁴).  This module builds
    such subgraphs as unions of k successive edge-disjoint spanning
    trees (each an MST of the complete geometric graph with the
    previously used edges removed) and exposes them as a schedulable
    link set, so experiment T12 can measure how slot counts and the
    sparsity constant actually grow with k. *)

type t = {
  points : Wa_geom.Pointset.t;
  trees : (int * int) list list;
      (** k pairwise edge-disjoint spanning trees; the first is the
          MST. *)
  links : Wa_sinr.Linkset.t;
      (** All tree edges as directed links.  The first tree is
          oriented toward the sink (a valid convergecast tree); the
          backup trees are oriented toward the sink along their own
          rooted structure. *)
}

val build : ?sink:int -> k:int -> Wa_geom.Pointset.t -> t
(** Raises [Invalid_argument] if [k < 1] or [k] exceeds what edge
    disjointness allows ([k <= n/2] is always safe on complete
    graphs; the constructor checks connectivity of every residual
    stage and fails cleanly otherwise). *)

val redundancy : t -> int
(** The k it was built with. *)

val is_k_edge_connected : t -> bool
(** Checks the defining property directly: the union stays connected
    after removing any [k-1] edges.  Exponential in k — intended for
    the small k of the experiments (k <= 3 is checked exactly;
    larger k fall back to a sampled check). *)

val schedule :
  ?gamma:float ->
  Wa_sinr.Params.t ->
  t ->
  Greedy_schedule.mode ->
  Schedule.t * int
(** Greedy coloring + verification/repair of all k·(n-1) links. *)
