(** Order statistics over one metric's samples.

    Percentiles use the nearest-rank definition: the [p]-th percentile
    of [n] samples is the smallest sample with at least [p]% of the
    samples at or below it, so every reported value is a sample that
    was actually measured.  A percentile is only as good as the number
    of samples beyond it, which {!beyond} and {!tail_percentile} make
    explicit. *)

type t

val of_list : float list -> t
val of_array : float array -> t
(** Copies and sorts; NaN samples are rejected with [Invalid_argument]. *)

val count : t -> int

val percentile : t -> float -> float
(** [percentile t p], [p] in [\[0, 100\]].  Raises [Invalid_argument] on
    an empty sample or [p] out of range. *)

val beyond : t -> float -> int
(** Samples ranked strictly above the [p]-th percentile's rank. *)

val tail_percentile : t -> float option
(** The highest of p50, p90, p99 and p99.9 with at least ten samples
    beyond it; [None] when not even the median qualifies. *)

val median : t -> float

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] of a list of at least two values, computed
    exactly as Python's [statistics.quantiles(values, n=4)] (the
    default "exclusive" method) and [statistics.median] compute them,
    so a calibration here matches one made from the printed values. *)

val relative_iqr : float list -> float
(** [(q3 - q1) / median] by {!quartiles}: the run-to-run spread of a
    metric as a share of its median ([nan] when the median is 0). *)
