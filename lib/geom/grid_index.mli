(** Uniform-grid spatial index over a flat spatial hash.

    Buckets points into square cells of a fixed side so that
    near-neighbor queries touch only a constant number of cells.  The
    cells are hashed into a counting-sorted bucket array (no hash
    table, no tuple keys), so a range probe reads contiguous arrays and
    allocates nothing.  Used to accelerate closest-pair computation
    and the per-length-class conflict queries of {!Wa_sinr.Link_index}. *)

type t

val build : cell_size:float -> Vec2.t array -> t
(** [build ~cell_size points] indexes [points] (indices into the
    array are the point ids).  [cell_size] must be positive. *)

val iter_within_either :
  t -> float -> float -> float -> float -> float -> (int -> unit) -> unit
(** [iter_within_either t x1 y1 x2 y2 r f] calls [f] once on the id of
    every indexed point within distance [r] of [(x1, y1)] or of
    [(x2, y2)] (including a point equal to either), in unspecified
    order — the candidate query of a segment whose endpoints are the
    two centers; pass one center twice for a disk.  Exact: candidates
    from the cells covering the query disks are distance-filtered, and
    when [r / cell_size] outgrows a fixed ring budget (or the swept
    cell count outgrows the point count) the sweep falls back to a
    brute-force scan — so the query stays correct and at worst linear
    even on instances with doubly-exponential coordinate spreads or an
    infinite radius.  The budget overrun is logged once per process. *)

val neighbors_within : t -> Vec2.t -> float -> int list
(** [neighbors_within t p r] returns ids of all indexed points within
    distance [r] of [p] (including a point equal to [p] itself), in
    unspecified order: [iter_within_either] around [p] alone. *)

val nearest : t -> exclude:int -> Vec2.t -> int option
(** [nearest t ~exclude p] is the id of the indexed point nearest to
    [p], ignoring id [exclude]; [None] if no other point exists.
    Searches rings of cells outward, so it is exact. *)

val iter_pairs_within : t -> float -> (int -> int -> unit) -> unit
(** [iter_pairs_within t r f] calls [f i j] (with [i < j]) for every
    pair of indexed points at distance <= [r]. *)
