(** Coloring schedules and their SINR validation.

    A schedule is a partition of the link set into slots; repeating it
    periodically yields an aggregation schedule of rate [1/length]
    (Sec. 2).  [validate] is the ground truth: each slot is checked
    against the physical model under the schedule's power mode, and
    [repair] restores feasibility by splitting offending slots — so
    the library never reports an infeasible schedule as valid. *)

type power_mode =
  | Scheme of Wa_sinr.Power.scheme
      (** Every slot must be feasible under this one assignment. *)
  | Arbitrary
      (** Each slot may use its own power vector (global power
          control); feasibility decided by {!Wa_sinr.Power_solver}. *)

type t = {
  slots : int list array;  (** Link ids per slot; a partition. *)
  power_mode : power_mode;
}

val of_coloring : Wa_graph.Coloring.t -> power_mode -> t
(** Slot [k] = color class [k].  Raises [Invalid_argument] if the
    coloring is empty. *)

val of_slots : int list list -> power_mode -> t

val length : t -> int
(** Number of slots — the schedule length; the rate is its
    reciprocal. *)

val rate : t -> float

val covers : t -> Wa_sinr.Linkset.t -> bool
(** Partition check: every link appears in exactly one slot. *)

val slot_of_link : t -> int -> int
(** Slot index of a link.  Raises [Not_found] if absent. *)

val is_valid : Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> t -> bool
(** [covers] and no infeasible slot. *)

val repair : Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> t -> t * int
(** Splits every infeasible slot by first-fit over links in
    non-increasing length order (each sub-slot kept feasible by
    construction; singletons are always feasible in the
    interference-limited regime).  Returns the repaired schedule and
    the number of slots added.  Feasible slots are left untouched. *)

val repair_validated :
  Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> t -> t * int * bool
(** [repair] fused with validation: the boolean is the {!is_valid}
    verdict on the repaired schedule, derived from the same per-slot
    feasibility checks repair already runs (untouched slots were just
    checked; every multi-link part of a split was accepted by the
    check that formed it, and only singleton parts get their O(1)
    noise-floor check) plus a [covers] sweep — each slot solved once
    instead of the twice that [repair] followed by [is_valid] costs.
    The verdict can only be [false] when some link is infeasible even
    in a singleton slot (noise floor) or the input partition was
    malformed. *)

val reorder_for_latency : Wa_graph.Tree.t -> Wa_sinr.Linkset.t -> t -> t
(** Permutes the slots (feasibility and rate are order-invariant) so
    that slots carrying deeper links come earlier in the period: a
    fresh frame can then climb several hops within a single period
    instead of waiting a full period per hop.  The slot order is by
    decreasing mean depth of the slot's sender nodes.  Experiment T20
    measures the latency this buys. *)

val witness_power :
  Wa_sinr.Params.t -> Wa_sinr.Linkset.t -> t -> Wa_sinr.Power.scheme option
(** A single concrete power assignment under which every slot is
    feasible: the scheme itself for [Scheme], a solved [Custom]
    vector for [Arbitrary].  [None] if some slot is infeasible. *)

val pp : Format.formatter -> t -> unit
