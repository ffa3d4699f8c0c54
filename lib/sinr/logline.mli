(** Line instances in log-domain coordinates.

    The lower-bound constructions of Sec. 4.1 place points with
    doubly-exponentially growing gaps; beyond a dozen points the
    coordinates overflow IEEE doubles.  This module stores an ordered
    line pointset as the sequence of its consecutive {e gaps} as
    {!Wa_util.Logfloat} values, so distances (contiguous gap sums) and
    the oblivious-power SINR test evaluate without overflow or
    catastrophic cancellation.

    Points are indexed left to right, [0 .. size-1]. *)

type t

type link = { src : int; dst : int }
(** A directed link between two point indices. *)

val of_gaps : Wa_util.Logfloat.t array -> t
(** [of_gaps g] has [Array.length g + 1] points with
    [dist i (i+1) = g.(i)].  All gaps must be strictly positive. *)

val size : t -> int

val dist : t -> int -> int -> Wa_util.Logfloat.t
(** Distance between two point indices ([zero] iff equal). *)

val diversity : t -> Wa_util.Logfloat.t
(** Span divided by the minimum gap — the Δ of the instance. *)

val mst_links : ?toward:[ `Left | `Right ] -> t -> link array
(** The line MST: one link per consecutive pair, all directed toward
    the given side (default [`Right]). *)

val set_feasible : Params.t -> tau:float -> t -> link list -> bool
(** Noise-free Pτ-feasibility: for every link of the set, the total
    relative interference is at most [1/beta]. *)

val pair_feasible : Params.t -> tau:float -> t -> link -> link -> bool

val max_schedulable_pairs : Params.t -> tau:float -> t -> link array -> int
(** Number of unordered pairs of the given links that are
    Pτ-feasible together — 0 on the Sec. 4.1 instances (Prop. 1's
    "no two links can share a slot"). *)

val greedy_schedule : Params.t -> tau:float -> t -> link array -> int list list
(** First-fit scheduling in non-increasing length order with exact
    log-domain Pτ-feasibility per slot: the paper's greedy, usable on
    instances whose coordinates overflow floats.  Returns slots of
    indices into the input array. *)
