(** Request execution: the bridge from protocol bodies to the
    pipeline, the plan cache and the churn sessions.

    One engine is shared by every worker of a server; all state it
    holds (cache, session registry) is thread-safe, so {!handle} may
    be called concurrently from any number of pool workers — which is
    exactly what the server does.  [Stats], [Telemetry] and
    [Shutdown] are the ops answered by the server itself (they need
    pool and lifecycle state); {!handle} answers them with a
    [bad_request] envelope. *)

type t

val create :
  ?cache_entries:int ->
  ?cache_bytes:int ->
  ?max_sessions:int ->
  unit ->
  t

val handle : t -> Protocol.request_body -> Protocol.response_body
(** Never raises: pipeline [Invalid_argument]/[Failure] map to
    [bad_request], unknown churn ids to [no_such_session] or
    [bad_request], anything else to [internal].  A spec naming the
    [`Dense] engine, the O(n²) reference scan, is a [bad_request]. *)

val peek : t -> string -> Protocol.response_body
(** Answer [cache_peek]: local presence (no LRU touch, no hit/miss
    accounting) plus the gossip origin hint if one is recorded.
    Lock-bounded and compute-free — safe to answer inline on the
    server's event loop. *)

val advertise :
  t -> origin:string -> invalidate:bool -> string list -> Protocol.response_body
(** Record (or, with [invalidate], retract) gossip warm hints from
    [origin].  Hints are bounded ({i warm_bound} = 4096); past the
    bound new keys are refused, reflected in the accepted count.
    Retraction only drops hints that still name [origin]. *)

val set_gossip :
  t -> on_fill:(string -> unit) -> on_invalidate:(string list -> unit) -> unit
(** Install the gossip taps: [on_fill key] fires on the worker that
    completed a computed cache fill; [on_invalidate keys] fires after
    capacity evictions (cache lock released).  Both must not block —
    the fleet wiring hands the keys to a bounded queue that drops on
    overflow (the channel is advisory). *)

val cached_plan_line : t -> Protocol.plan_spec -> id:int -> string option
(** Fast path for a [plan] request whose spec is already cached: the
    complete response line ([Plan_r] with [cached = true]), built by
    splicing [id] onto a memoized per-key line tail.  [None] on miss
    or when the spec says [no_cache].  Event-loop safe. *)

val spec_key : Protocol.plan_spec -> string
(** The content-addressed cache key of a plan spec:
    {!Cache.content_key} of {!Protocol.spec_canonical_json}. *)

val pointset_of_spec : Protocol.plan_spec -> Wa_geom.Pointset.t
(** Resolve the deployment (inline points or generated family).
    Raises [Invalid_argument] on unknown kinds or bad pointsets. *)

val obtain_plan : t -> Protocol.plan_spec -> Wa_core.Pipeline.plan * bool * float
(** [(plan, cached, compute_ms)] — the caching path behind [plan],
    [describe] and [simulate]; exposed for the cache-equality tests.
    May raise (unlike {!handle}, which wraps it). *)

val sessions : t -> Session.t

val cache_summary : t -> Protocol.cache_summary
(** Cache stats in wire form, shared by [stats] and [telemetry]. *)

val session_count : t -> int
