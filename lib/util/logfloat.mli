(** Non-negative reals in log-domain representation.

    The lower-bound instances of the paper (Sec. 4.1 and Sec. 4.2)
    have length diversities that are doubly or triply exponential in
    the number of nodes; their coordinates overflow IEEE doubles after
    a handful of points.  This module represents a non-negative real
    [v] by [log v] (with [neg_infinity] for zero) so that all SINR
    comparisons on those instances remain exact to float precision.

    Addition and subtraction use the log-sum-exp trick; products,
    quotients and powers are exact translations.  Values are ordered
    as the reals they denote. *)

type t
(** A non-negative extended real.  Immutable. *)

val zero : t
val one : t

val of_float : float -> t
(** [of_float v] represents [v].  Raises [Invalid_argument] if
    [v < 0.] or [v] is NaN. *)

val of_log : float -> t
(** [of_log x] represents [exp x] without evaluating the
    exponential. *)

val to_float : t -> float
(** Closest float; [infinity] if the value overflows. *)

val log_value : t -> float
(** The stored logarithm ([neg_infinity] for {!zero}). *)

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument]
    otherwise. *)

val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] when [b] is {!zero} and [a]
    is not. *)

val pow : t -> float -> t
(** [pow a x] is [a] raised to the real exponent [x]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val sum : t list -> t
(** Numerically careful sum (accumulates against the running
    maximum). *)

val is_zero : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [v] when it fits a float, else as [exp(x)]. *)
