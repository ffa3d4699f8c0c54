(** The doubly-exponential line instances of Sec. 4.1 (Fig. 2).

    [n] points on a line whose consecutive gaps grow as
    [g_t = x^{(1/τ')^t}] with [τ' = min(τ, 1-τ)]: the oblivious-power
    lower bound.  Under {e any} [Pτ] scheme no two MST links of this
    instance can share a slot (Prop. 1), so every aggregation schedule
    needs [n-1 = Θ(log log Δ)] slots.

    The same pointset doubles as the uniform-power baseline of
    experiment T3: with the sink at the left end every MST link points
    left, and under uniform power any shorter link's sender drowns any
    longer link's receiver.

    Instances exist in two resolutions: float coordinates (for the
    full SINR/solver machinery; the doubly-exponential growth caps the
    size — see {!max_float_points}) and log-domain gaps (arbitrary
    [n], used with {!Wa_sinr.Logline}). *)

val max_float_points : ?x:float -> Wa_sinr.Params.t -> tau:float -> int
(** Largest [n] whose coordinates stay below 1e280 in floats. *)

val pointset :
  ?x:float -> Wa_sinr.Params.t -> tau:float -> n:int -> Wa_geom.Pointset.t
(** Float instance on the x-axis, leftmost point at the origin.
    Raises [Invalid_argument] if [n < 2], [tau] outside (0,1), or the
    coordinates would overflow. *)

val max_logline_points : ?x:float -> Wa_sinr.Params.t -> tau:float -> int
(** Largest [n] for which the log-domain representation itself stays
    numerically trustworthy: the stored logarithms grow as
    [(1/τ')^t·ln x], and once they exceed ~1e12 the float epsilon on
    a logarithm outweighs the O(1) quantities the SINR comparison
    cancels down to.  (For [τ = 0.5] this is ~42 points; for extreme
    [τ] it shrinks.) *)

val logline : ?x:float -> Wa_sinr.Params.t -> tau:float -> n:int -> Wa_sinr.Logline.t
(** Log-domain instance with the same gap structure.  Raises
    [Invalid_argument] beyond {!max_logline_points}. *)

val diversity_float : ?x:float -> Wa_sinr.Params.t -> tau:float -> n:int -> float
(** Δ of the float instance (span over the smallest gap). *)
