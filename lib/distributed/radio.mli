(** A round-based physical-layer radio network.

    Nodes act in synchronized rounds; per round, every node either
    transmits one message at a chosen power or listens.  A listener
    decodes a transmitter iff the exact SINR inequality holds against
    {e all} concurrent transmissions (the same condition the rest of
    the library schedules for).  Listeners that decode nothing can
    distinguish a busy medium from silence (collision detection, as
    assumed by the Sec.-3.3 round bounds).

    In the paper's interference-limited regime ([N = 0]) a lone
    transmitter is decodable at any distance; spatial reuse emerges
    from relative interference, not from a hard radio range.  Pass
    positive noise in the parameters for range-limited radios. *)

type 'msg action =
  | Transmit of { power : float; payload : 'msg }
  | Listen

type 'msg reception =
  | Received of { from : int; payload : 'msg }
      (** Exactly one transmitter satisfied the SINR condition at this
          listener. *)
  | Collision
      (** Transmissions were audible but none decodable. *)
  | Silence  (** Nothing audible above the noise floor. *)

type t

val create : ?params:Wa_sinr.Params.t -> Wa_geom.Pointset.t -> t

val rounds_used : t -> int
(** Rounds executed so far — the protocol's cost meter. *)

val round : t -> (int -> 'msg action) -> 'msg reception array
(** Execute one round: [action v] is node [v]'s behaviour; the result
    is what each node observed (transmitters observe their own
    transmission as {!Silence} — half-duplex radios hear nothing). *)
