(** The first-fit refinement behind Theorem 2.

    Processing links in non-increasing length order, each link [i] is
    placed in the first bucket [S_k] with [I(i, S_k) < kappa] (the
    paper uses [kappa = 1]).  On an MST, Lemma 1 bounds
    [I(i, T⁺_i) = O(1)], so the number of buckets is a constant; and
    every bucket is an independent set of the unit conflict graph
    [G1], which proves [χ(G1(MST)) = O(1)].

    This module both runs the refinement and measures the constants
    the theorem hides (experiment T2). *)

type t = {
  buckets : int list array;  (** Link ids per bucket, ascending id. *)
  bucket_of : int array;  (** Bucket index per link. *)
  kappa : float;
}

val refine : ?kappa:float -> Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> t
(** [kappa] defaults to 1. *)

val bucket_count : t -> int

val longer_pressure : Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> float
(** [max_i I(i, T⁺_i)] — the measured Lemma-1 constant of the link
    set, the maximum of {!Wa_sinr.Affectance.mst_longer_pressure_all}
    (exact).  Runs in span ["affectance.pressure"] and records gauge
    ["affectance.max_pressure"].  A plan never reads it: experiments,
    [plan --audit] and [kconnect] call it themselves. *)

val buckets_g1_independent : Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> t -> bool
(** Checks the Theorem-2 argument concretely: every bucket is an
    independent set of the constant-threshold graph [G_γ] with
    [γ = kappa^{-1/alpha}] (each pairwise term of the insertion test
    being below [kappa] forces [d(i,j) > l_min·kappa^{-1/alpha}]).
    With the default [kappa = 1] this is plain [G1]-independence. *)
