(** Feasibility under arbitrary (global) power control.

    The paper leans on Kesselheim's result that suitable power
    assignments {e exist} for independent sets of the conflict graph
    [Garb].  Here we decide feasibility exactly and constructively:
    writing [M_ij = beta·l_i^alpha / d_ji^alpha] (the normalized gain
    matrix of a candidate slot) and [c_i = beta·N·l_i^alpha], a slot
    admits a feasible power assignment iff the spectral radius of [M]
    is below 1, in which case the fixed point of [P = M·P + c] (with
    [c_i = l_i^alpha] when noise is zero) is an explicit witness.

    The decision runs in two tiers.  First, Collatz–Wielandt bounds
    around a power iteration: for any positive [x],
    [min_a (Mx)_a/x_a <= rho(M) <= max_a (Mx)_a/x_a], so the iterate
    certifies feasibility (upper bound < 1, with [x] itself the power
    witness) or infeasibility (lower bound >= 1) in O(k²) per round.
    Only slots whose spectral radius the bounds cannot separate from 1
    fall back to the O(k³) elimination of [(I - M)·P = c] — the
    solution is entrywise positive iff [rho(M) < 1] (M-matrix theory).
    A feasible answer either carries a Collatz–Wielandt certificate
    with at least a 1% margin (whose float error, bounded by the
    k-term summation, is orders of magnitude smaller) or has been
    verified against the {!Feasibility} ground truth. *)

type outcome = {
  feasible : bool;
  spectral_radius : float;
      (** A certified Collatz–Wielandt bound on [rho(M)] when the fast
          tier decided (upper bound if feasible, lower bound if not),
          the power-iteration estimate on the elimination fallback;
          [infinity] when two slot links touch. *)
  iterations : int;
      (** Iteration rounds used by the deciding tier. *)
  power : float array option;
      (** On success, a full-length power vector (indexed by link id
          of the whole linkset; links outside the slot carry the
          neutral value 1.0 and are never read). *)
}

val solve : ?quick:bool -> Params.t -> Linkset.t -> int list -> outcome
(** Decide feasibility of the slot and produce a witness power
    vector.

    [quick] (default [false]) makes the undecided case conservative
    instead of exact: when the Collatz–Wielandt bounds stall without
    separating [rho(M)] from 1, the slot is reported infeasible
    rather than falling back to the O(k³) elimination.  One-sided by
    construction — everything [quick] accepts carries the same CW
    certificate as the exact mode — so it suits repair-style callers
    for whom a false negative merely splits a slot. *)

val feasible : ?quick:bool -> Params.t -> Linkset.t -> int list -> bool
(** [solve] and drop the witness. *)

val row_sum_feasible : Params.t -> Linkset.t -> int list -> bool
(** One-round sufficient test: [true] certifies feasibility via
    [rho(M) <= ||M||_inf < 1] (max row sum below 1, uniform power as
    witness); [false] only means this cheap certificate failed.  O(k²)
    with early bail-out and no matrix allocation — built for
    high-volume candidate screening such as repair's merge pass. *)

val spectral_radius : Params.t -> Linkset.t -> int list -> float
(** Power-iteration estimate of [rho(M)] alone. *)

val power_scheme : Params.t -> Linkset.t -> int list list -> Power.scheme option
(** Given a full partition of the linkset into slots, solve every slot
    and combine the witnesses into one [Power.Custom] assignment
    (valid because each link transmits only in its own slot).  [None]
    if any slot is infeasible. *)
