(** Power assignments (Sec. 2).

    Two modes are distinguished by the paper: {e oblivious} schemes
    [Pτ(i) = C·l_i^{τα}] whose value depends only on the link's own
    length, and {e global} (arbitrary) power control where powers may
    depend on the whole instance — represented here by [Custom]
    vectors, typically produced by {!Power_solver}. *)

type scheme =
  | Uniform  (** [P0]: every sender uses the same power. *)
  | Linear  (** [P1(i) = C·l_i^alpha]: received signal is constant. *)
  | Oblivious of float
      (** [Oblivious tau = Pτ]; [tau] in [\[0,1\]].  [Uniform] and
          [Linear] are the endpoints. *)
  | Custom of float array
      (** Explicit per-link powers, indexed by link id. *)

val tau : scheme -> float option
(** The exponent of an oblivious scheme ([Uniform] is 0, [Linear] is
    1); [None] for [Custom]. *)

val is_oblivious : scheme -> bool

val value : Params.t -> Linkset.t -> scheme -> int -> float
(** [value params ls scheme i] is the transmission power of link [i].
    Oblivious schemes are normalized so that every link meets the
    interference-limited assumption
    [P(i) >= (1+eps)·beta·N·l_i^alpha]; with zero noise the scale
    constant is chosen so the longest link has unit received power.
    Raises [Invalid_argument] if a [Custom] array has the wrong
    length or a non-positive entry. *)

val vector : Params.t -> Linkset.t -> scheme -> float array
(** All powers by link id. *)

val describe : scheme -> string
