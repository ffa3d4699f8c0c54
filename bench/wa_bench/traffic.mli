(** Load generation over raw protocol connections.

    Requests are pre-encoded by the caller and sent as lines with the
    correlation id spliced in front ([{"v":1,"id":<id>] followed by
    the caller's tail), so the generator spends its time in the kernel
    rather than in JSON.  Responses are matched back to requests by
    that id, which every response line carries first. *)

val now : unit -> float
(** Monotonic clock, in seconds. *)

type conn

val connect : ?host:string -> port:int -> unit -> conn
(** TCP connect with [TCP_NODELAY], then read and check the server
    greeting.  Raises [Failure] on a bad greeting. *)

val close : conn -> unit

val request_line : id:int -> string -> string
(** [request_line ~id tail]: the complete request line (no newline). *)

val split_response : string -> (int * string) option
(** The correlation id of a response line and the rest of the line
    after it (identical for every hit on one cached plan); [None] when
    the line does not start with the id envelope. *)

val call : conn -> string -> string
(** Closed-loop round trip: send one complete request line and block
    for the next response line.  Raises [Failure] when the connection
    closes. *)

type outcome = {
  latency_ms : float array;
      (** Per request, from the time it was {e due} to the time its
          response was read, so a stall anywhere — in the system or in
          the generator itself — inflates every request due during it.
          [nan] when no response arrived before the timeout. *)
  late_ms : float array;
      (** Per request, how long after its due time it was written:
          the generator's own lateness.  [nan] if never sent. *)
  unmatched : int;  (** Response lines that matched no outstanding request. *)
}

val open_loop :
  conns:conn array ->
  due:float array ->
  tail:(int -> string) ->
  on_response:(int -> string -> unit) ->
  timeout_s:float ->
  outcome
(** Send request [i] (id [i + 1], on connection [i mod] the connection
    count) at [due.(i)] seconds after the start, whatever the state of
    earlier requests, and read responses as they arrive; [due] must be
    non-decreasing.  [on_response i line] runs for each matched
    response, on the generator's one thread — time it spends delays
    later sends, and that lateness is charged to their latency.
    Returns once every request is answered or [timeout_s] seconds
    after the last due time. *)

val poisson_schedule : Wa_util.Rng.t -> rate:float -> seconds:float -> float array
(** Due times of a Poisson arrival process at [rate] per second over
    [\[0, seconds)]: independent users, so bursts happen. *)
