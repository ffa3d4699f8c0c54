(** SINR feasibility of link sets under a concrete power assignment.

    This is the ground-truth check of the whole library: every
    schedule the library emits is validated slot-by-slot against the
    physical-model inequality (1) of the paper. *)

type violation = {
  link : int;  (** Offending link id. *)
  sinr : float;  (** Its achieved SINR. *)
  required : float;  (** The threshold beta. *)
}

type verdict = Feasible | Infeasible of violation list

val sinr :
  Params.t -> Linkset.t -> power:float array -> concurrent:int list -> int -> float
(** [sinr p ls ~power ~concurrent i] is the signal-to-interference-
    plus-noise ratio at the receiver of [i] when all links of
    [concurrent] transmit simultaneously ([i] itself is excluded from
    the interference sum whether or not it is listed).  [infinity]
    when there is neither interference nor noise; [0.] when some
    interferer sits on the receiver. *)

val check :
  Params.t -> Linkset.t -> power:Power.scheme -> int list -> verdict
(** Full SINR check of the given slot.  Violations are reported in
    ascending link id. *)

val is_feasible :
  Params.t -> Linkset.t -> power:Power.scheme -> int list -> bool

val pair_feasible : Params.t -> Linkset.t -> power:Power.scheme -> int -> int -> bool
(** Can the two links share a slot under the scheme? *)

val margin :
  Params.t -> Linkset.t -> power:float array -> int list -> float
(** Minimum over the slot of [sinr/beta]; >= 1 iff feasible.  Useful
    for reporting how close a slot is to the threshold. *)

val gain_matrix : Params.t -> Linkset.t -> int array -> float array * float array
(** [gain_matrix p ls ids] is the normalized gain matrix [M] of the
    slot [ids] under power control, flat row-major (k·k floats, k = the
    length of [ids]): entry [a*k + b] is [beta·l_a^alpha / d(s_b, r_a)^alpha],
    the interference unit power on [ids.(b)] causes at the receiver of
    [ids.(a)] relative to its own signal, [infinity] when that sender
    sits on the receiver, and [0.] on the diagonal — paired with its
    row sums [M·1], each summed in ascending column order.  [ids] must
    hold distinct link ids. *)

val row_sums_below_one : Params.t -> Linkset.t -> int array -> bool
(** [true] iff every row of [gain_matrix p ls ids] sums below 1 (no
    entry infinite), evaluated row by row without building the matrix
    and stopping at the first failing row. *)
