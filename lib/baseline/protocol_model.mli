(** Protocol (graph/disk) interference model baseline.

    The classical alternative to the physical model (Sec. 1): two
    links conflict when either receiver lies within the interference
    range of the other sender, the range being the link length scaled
    by a constant factor [(1 + guard)].  Scheduling is the same greedy
    length-ordered coloring, so the comparison isolates the
    interference model. *)

val conflicting : guard:float -> Wa_sinr.Linkset.t -> int -> int -> bool
(** [guard >= 0]; links sharing an endpoint always conflict. *)

val schedule : ?guard:float -> Wa_sinr.Linkset.t -> Wa_core.Schedule.t
(** Greedy coloring of the protocol-model conflict graph ([guard]
    defaults to 1).  The schedule's power mode is uniform — the
    protocol model knows nothing of power — and it is {e not}
    SINR-validated: experiment T1 measures how its slot counts relate
    to physical-model schedules. *)
