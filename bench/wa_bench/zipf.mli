(** Seeded Zipf sampler over ranks [0 .. n-1]: rank [r] is drawn with
    probability proportional to [1 / (r + 1) ** s].  The draw is one
    uniform variate and a binary search over the cumulative weights,
    so a given {!Wa_util.Rng.t} stream always yields the same ranks. *)

type t

val create : s:float -> int -> t
(** Raises [Invalid_argument] unless [n >= 1] and [s >= 0]. *)

val size : t -> int

val probability : t -> int -> float
(** Exact probability of one rank. *)

val draw : t -> Wa_util.Rng.t -> int
