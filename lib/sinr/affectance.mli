(** Interference operators.

    Two additive operators drive all the paper's arguments:

    - the power-independent operator
      [I(j,i) = min(1, l_j^alpha / d(i,j)^alpha)] (Sec. 3.2), measured
      with the symmetric link-to-link distance [d(i,j)], which
      quantifies how much link [j] can disturb link [i] no matter the
      power; and
    - the {e relative interference}
      [I_P(j,i) = (P(j)·l_i^alpha) / (P(i)·d_ji^alpha)] (Sec. 4.1),
      the interference-to-signal ratio under a concrete power
      assignment [P], measured sender-to-receiver.

    In the noise-free regime a set [S] is [P]-feasible iff
    [sum_{j in S} I_P(j,i) <= 1/beta] for every [i in S]. *)

val additive : Params.t -> Linkset.t -> int -> int -> float
(** [additive p ls j i = I(j,i)]; [0.] when [j = i]; [1.] when the
    links touch ([d(i,j) = 0]). *)

val additive_on_set : Params.t -> Linkset.t -> int list -> int -> float
(** [additive_on_set p ls s i = I(i, s) = sum_{j in s} I(i,j)] — the
    total outgoing interference pressure of link [i] on the set, the
    quantity bounded by Lemma 1 (MST sparsity). *)

val additive_from_set : Params.t -> Linkset.t -> int list -> int -> float
(** [additive_from_set p ls s i = I(s, i) = sum_{j in s} I(j,i)] —
    incoming pressure, the quantity bounded by Theorem 3 for feasible
    sets. *)

val relative : Params.t -> Linkset.t -> power:float array -> int -> int -> float
(** [relative p ls ~power j i = I_P(j,i)]; [0.] when [j = i];
    [infinity] when the sender of [j] sits on the receiver of [i]. *)

val relative_total :
  Params.t -> Linkset.t -> power:float array -> int list -> int -> float
(** Sum of {!relative} over a set (the receiving link excluded). *)

val mst_longer_pressure_all : Params.t -> Linkset.t -> float array
(** Exact Lemma-1 pressure of every link at once, indexed by link id:
    the one production evaluator (see [Refinement.longer_pressure]).
    Visits links in {!Linkset.by_decreasing_length} order so each
    link's longer-set is a prefix of the order (ties grouped): n²/2
    pair kernels total instead of the n² of n independent
    {!mst_longer_pressure} calls.  Each term is {!additive}'s value
    bit for bit; each sum runs over the prefix in rank order, which is
    the float summation order the batch qcheck oracle reproduces. *)

val mst_longer_pressure : Params.t -> Linkset.t -> int -> float
(** [I(i, T⁺_i)]: the pressure of link [i] on all strictly longer (or
    equal-length, other) links — the quantity Lemma 1 bounds by O(1)
    on MSTs.  The dense record-based oracle, summed in ascending link
    id: tests check {!mst_longer_pressure_all} against it. *)
