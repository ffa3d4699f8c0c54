(** Span tracer: monotonic-clock timing with nesting and per-thread
    buffers.

    [with_span "conflict.build" f] times [f ()] and records a span
    when telemetry is enabled; when disabled it is a single atomic
    read plus the call to [f].  Spans nest — [depth] counts enclosing
    spans on the recording thread — and each thread buffers locally,
    merging into the global list under a mutex on depth-0 closes,
    buffer overflow, and {!Wa_util.Parallel} chunk boundaries (the
    Parallel hook wraps chunks in a depth-0 span, so worker domains
    always flush before terminating).  Systhreads of one domain keep
    separate depths, buffers and collectors. *)

type span = {
  name : string;
  start_ns : int64;  (** Monotonic clock at open. *)
  dur_ns : int64;
  depth : int;  (** 0 = outermost on its thread. *)
  domain : int;  (** Id of the recording domain. *)
}

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  Exceptions still close (and
    record) the span before propagating. *)

val with_collector : (unit -> 'a) -> 'a * span list
(** [with_collector f] runs [f] while additionally capturing, into a
    private accumulator, every span that closes on the calling thread
    — the request-scoped trace a server returns for one traced
    request.  The captured spans (sorted by start time) are returned
    alongside [f]'s result; they still flow into the global list as
    usual.  Collectors nest (innermost wins until it exits); spans
    recorded by other threads or domains are not captured; the list
    is empty when telemetry is disabled.  Exceptions restore the
    previous collector before propagating. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed name f] is [(f (), elapsed milliseconds)], measured on the
    monotonic clock whether or not telemetry is enabled; the span
    itself is recorded only when enabled.  Drop-in replacement for
    hand-rolled wall-clock timers. *)

val spans : unit -> span list
(** All recorded spans, flushing the calling thread's buffer first,
    sorted by start time (ties broken outermost first).  Spans
    recorded by Parallel worker domains are already merged by the time
    the fan-out returns. *)

val reset : unit -> unit
(** Drop all recorded spans (global list and this thread's buffer). *)

val ms_of : span -> float
(** Duration in milliseconds. *)

(** Explicit-state view of the per-thread buffer machinery, for the
    systematic interleaving checker: each [state] behaves exactly like
    one thread's buffer (including the auto-flush on depth-0
    records and on overflow), but several can be driven from a single
    scheduler domain.  Flushes merge into the same global span list
    that {!spans} reads. *)
module Model : sig
  type state

  val create : unit -> state
  (** A fresh simulated thread buffer. *)

  val record : state -> span -> unit
  (** Buffer a span; auto-flushes when [span.depth = 0] or the buffer
      reaches its size cap — the same policy as the production
      {!with_span} path. *)

  val flush : state -> unit
  (** Merge this buffer into the global list (mutex-protected). *)

  val buffered : state -> int
  (** Spans currently buffered (not yet merged). *)
end
