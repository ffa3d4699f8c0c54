(** Descriptive statistics over float samples.

    Used by the experiment harness to summarize repeated runs
    (multiple random seeds per configuration). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val mean : float list -> float
val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]]; linear interpolation
    between order statistics. *)
