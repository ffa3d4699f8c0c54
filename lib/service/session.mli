(** Stateful churn sessions: {!Wa_core.Dynamic} networks behind
    integer handles.

    A client creates a session (a network containing only the sink),
    streams [add_node]/[remove_node] operations against its handle,
    and reads back the incremental repair statistics — the serving
    face of Sec. 3.1's "robustness and temporal variability".

    Operations on one session serialize on a per-session lock;
    distinct sessions proceed in parallel on different pool workers.
    The live-session count is published as the [service.sessions]
    gauge. *)

type t

val create : ?max_sessions:int -> unit -> t
(** [max_sessions] (default 64) bounds concurrently open sessions. *)

val open_session :
  t ->
  ?params:Wa_sinr.Params.t ->
  ?gamma:float ->
  sink:Wa_geom.Vec2.t ->
  Wa_core.Pipeline.power_mode ->
  (int, [ `Limit ]) result
(** Allocate a fresh handle; [`Limit] when at capacity. *)

val with_session :
  t -> int -> (Wa_core.Dynamic.t -> 'a) -> ('a, [ `Unknown ]) result
(** Run [f] under the session's lock.  Exceptions from [f] propagate
    (after the lock is released).  A close racing with [f] lets [f]
    finish on the detached network. *)

val close : t -> int -> bool
(** [false] when the handle was unknown. *)

val count : t -> int
val close_all : t -> unit
