(** The fleet front tier: one select-loop domain that proxies the
    JSON-lines protocol onto a consistent-hash ring of [wa_service]
    backends.

    Plan-shaped requests ([plan]/[describe]/[simulate]/[cache_peek])
    route by the spec's canonical content digest — the same key the
    backends' plan caches use, so each shard's cache serves a stable
    arc of the key space and the fleet's aggregate cache capacity
    scales with its size.  Broadcast ops ([stats]/[telemetry]) fan out
    to every healthy backend and merge ({!Merge}); [telemetry]
    additionally carries the router's per-shard table
    ({!Wa_service.Protocol.fleet_summary}).  Churn sessions are pinned
    to one shard with the session id remapped at the boundary.

    Health: a stats probe rides to every backend each
    [probe_interval_s]; [fail_threshold] consecutive failures
    circuit-break a backend (reconnects back off exponentially), its
    pending idempotent requests drain onto the ring survivors, and a
    reroute may first consult peer caches ([cache_peek]) so
    gossip-replicated plans are found warm. *)

type backend_addr = { a_name : string; a_host : string; a_port : int }

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port}. *)
  backends : backend_addr list;
  vnodes : int;
  probe_interval_s : float;
  probe_timeout_s : float;
  request_timeout_s : float;
  fail_threshold : int;
      (** Consecutive probe/request failures before a backend is
          circuit-broken. *)
  max_attempts : int;  (** Forward attempts per request, across reroutes. *)
  peek_on_reroute : bool;
      (** Probe survivors for a warm replica before failing over. *)
  max_line : int;
  window_s : float;
  windows : int;
  prom_out : string option;
  prom_interval_s : float;
}

val default_config : backends:backend_addr list -> config

type t

val create : config -> t
(** Bind the listen socket and start the dialer thread (a systhread
    of the calling domain).  Backends are dialed (and health-probed)
    from the run loop; health is earned by the first probe reply.
    @raise Invalid_argument with no backends. *)

val port : t -> int
(** The actually-bound port (differs from [config.port] when 0). *)

val run : t -> unit
(** Drive the event loop until {!stop} or a [shutdown] request has
    drained the pending table.  Single caller; run it in its own
    domain to use the router in-process. *)

val stop : t -> unit
(** Ask the loop to exit (thread-safe).  Unlike a [shutdown] request
    this does not wait for in-flight requests. *)

val summary : t -> string
(** One-line request/reroute accounting, for CLI exit messages. *)
