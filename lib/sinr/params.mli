(** Physical (SINR) model parameters (Sec. 2 of the paper).

    A transmission on link [i] succeeds, concurrently with the links
    of a set [S], iff

    {v S_i >= beta * ( sum_{j in S\{i}} I_ji + noise ) v}

    where [S_i = P(i)/l_i^alpha] is the received signal and
    [I_ji = P(j)/d_ji^alpha] the interference from sender [j] at
    receiver [i]. *)

type t = {
  alpha : float;
      (** Path-loss exponent; the paper requires [alpha > 2]. *)
  beta : float;  (** Minimum SINR threshold; [> 0]. *)
  noise : float;
      (** Ambient noise [N >= 0].  [0.] models the interference-limited
          regime the paper assumes (Sec. 2: setting N = 0 affects only
          constant factors). *)
  epsilon : float;
      (** Power-margin constant of the interference-limited assumption
          [P(i) >= (1+epsilon)·beta·N·l_i^alpha]; [> 0]. *)
}

val default : t
(** [alpha = 3], [beta = 1], [noise = 0], [epsilon = 0.5]. *)

val make :
  ?alpha:float -> ?beta:float -> ?noise:float -> ?epsilon:float -> unit -> t
(** Validated constructor; raises [Invalid_argument] on out-of-range
    values ([alpha <= 2], [beta <= 0], [noise < 0],
    [epsilon <= 0]). *)

val strict : t -> t
(** The same parameters with [beta] raised to [3^alpha] — the
    threshold used by the paper's lower-bound arguments (Thm. 3 and
    Sec. 5), under which pairwise separation implies distance at least
    the longer link length. *)

val alpha_pow : t -> float -> float
(** [alpha_pow t] is [fun x -> x ** t.alpha], specialized to repeated
    multiplication for the small integer exponents the paper's
    deployments use.  Resolve it once outside a pair loop (partial
    application returns the specialized closure).  All SINR evaluators
    — record-based and flat — share this function or its closure-free
    twin {!pow_apply}, keeping their floating-point results
    bit-identical across representations. *)

val pow_apply : t -> float -> float
(** [pow_apply t x = alpha_pow t x], bit-for-bit, without allocating
    the branch closure.  This is the form the [\[@wa.hot\]]
    allocation-certified kernels use; [wa_check]'s [hot-alloc] pass
    verifies it (and everything it reaches) performs no heap
    allocation. *)
