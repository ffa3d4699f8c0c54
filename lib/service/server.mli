(** The plan server: a TCP endpoint speaking the JSON-lines
    {!Protocol} and fanning requests out across a persistent
    {!Wa_util.Parallel.Pool} of workers.  Workers are domains while
    the process stays within one domain per CPU and systhreads of the
    creating domain beyond that, so a server on one CPU plans on a
    thread beside its event loop (no idle domain stalls its
    stop-the-world collections); the gossip sender is a thread too.

    Life cycle: {!create} binds and listens (and starts the pool);
    {!run} is the blocking accept/read/dispatch loop — call it on the
    domain that created the server, or create and run it inside
    [Domain.spawn] for in-process use.  The
    loop exits through the graceful path in exactly two ways: a
    [shutdown] request from a client, or {!stop} from another domain
    (the CLI wires SIGINT/SIGTERM to it).  Either way the server
    first stops reading, lets every already-accepted request run to
    completion and flush its reply, answers the shutdown request
    itself, and only then closes connections and joins the workers —
    accepted work is never dropped.

    Backpressure is explicit: when the bounded queue is full a
    request is answered with an [overloaded] error envelope
    immediately instead of queueing without bound.  Requests whose
    [deadline_ms] expires while queued are answered
    [deadline_exceeded] without being run.

    Telemetry: every request runs in a ["service.request"] span;
    counters [service.requests]/[service.responses]/
    [service.overloaded]/[service.deadline_misses], gauges
    [service.queue_depth]/[service.inflight_peak]/[service.sessions],
    cache series [service.cache_*], histograms [service.request_ms]
    and per-op [service.op_ms.<op>].  {!create} enables [Wa_obs]
    permanently — a resident server is observable by design: the
    event loop rolls a {!Wa_obs.Live} window ring every [window_s]
    (feeding the [telemetry] op's rolling per-op quantiles and the
    slow-request exemplars), ticks the runtime gauges, prunes the
    global span list (per-request spans are served through traced
    responses, not accumulated), and — with [prom_out] set — rewrites
    the Prometheus text exposition every [prom_interval_s].  A
    request with [trace = true] additionally returns its own span
    tree in the response envelope. *)

type config = {
  host : string;
  port : int;  (** [0] binds an ephemeral port; see {!port}. *)
  name : string;
      (** Shard name when serving inside a fleet: the gossip origin
          echoed in [cache_advertise] lines.  [""] outside a fleet. *)
  workers : int option;
      (** [None]: pool default (CPUs - 1, at least 1).  Workers beyond
          the domain budget are threads ({!Wa_util.Parallel.Pool.create}). *)
  queue_capacity : int;
  cache_entries : int;
  cache_bytes : int;
  max_sessions : int;
  max_line : int;  (** Reject request lines beyond this many bytes. *)
  window_s : float;  (** Live telemetry window length. *)
  windows : int;  (** Live window ring capacity. *)
  prom_out : string option;
      (** Rewrite the Prometheus text exposition here periodically. *)
  prom_interval_s : float;
  peers : (string * int) list;
      (** Cache-gossip neighbors ([host, port]), normally this shard's
          ring successors; [[]] disables the gossip sender entirely. *)
}

val default_config : config
(** 127.0.0.1:7461, queue 128, cache 128 entries / 256 MiB,
    64 sessions, 8 MiB lines, 60 × 1 s live windows, no prom dump
    (5 s interval when enabled), no name, no gossip peers. *)

type t

val create : config -> t
(** Bind, listen, spawn the worker pool.  Raises [Unix.Unix_error]
    when the address is unavailable.  Also ignores SIGPIPE: a dead
    peer must surface as a per-connection error. *)

val port : t -> int
(** The actually-bound port (useful with [port = 0]). *)

val run : t -> unit
(** Serve until [shutdown] or {!stop}; returns after the graceful
    drain completed and the pool is joined. *)

val stop : t -> unit
(** Request the graceful drain from any domain; picked up within one
    event-loop tick (≤ 0.1 s). *)

val summary : t -> string
(** One line of served/overloaded/deadline/peak counters. *)
