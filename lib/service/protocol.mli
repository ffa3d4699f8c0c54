(** Versioned JSON-lines wire protocol of the plan server.

    One request per line, one response per line; responses carry the
    request's [id] so a client may pipeline many requests over one
    connection and match replies out of order.  Every message carries
    the protocol [version] in ["v"] (omitted ["v"] means version 1);
    the server additionally sends {!greeting_line} on connect.

    Each message shape is declared once, as a list of members in wire
    order, and both its encoder and its decoder are read off that one
    declaration, so [decode (encode m) = Ok m] holds by construction
    (the qcheck round-trip properties in [test/test_service.ml] guard
    the one thing left to get right: that members reach their record
    constructor in order).  Malformed input decodes to [Error] rather
    than raising.  A golden corpus in [test/protocol_corpus.jsonl] pins
    the wire bytes. *)

(* Requests ------------------------------------------------------------- *)

type deploy_spec =
  | Points of Wa_geom.Vec2.t array  (** Inline coordinates. *)
  | Generate of { kind : string; n : int; seed : int; side : float }
      (** Server-side deployment: [kind] is one of the CLI families
          (uniform, disk, grid, clusters, line). *)

type plan_spec = {
  deploy : deploy_spec;
  power : Wa_core.Pipeline.power_mode;
  alpha : float;
  beta : float;
  gamma : float option;  (** [None]: the mode-specific default. *)
  engine : Wa_core.Conflict.engine;
      (** The wire carries ["dense"] too, but the server answers a
          [`Dense] spec with [bad_request]: that engine is the O(n²)
          reference scan that tests check [`Indexed] against. *)
  no_cache : bool;
      (** Bypass the plan cache entirely (no lookup, no store); used
          to force cold computations, e.g. by the benchmark's cold
          workloads. *)
}

type request_body =
  | Ping
  | Plan of plan_spec
  | Describe of plan_spec
  | Simulate of { spec : plan_spec; periods : int }
  | Churn_create of {
      sink : Wa_geom.Vec2.t;
      power : Wa_core.Pipeline.power_mode;
      alpha : float;
      beta : float;
      gamma : float option;
    }
  | Churn_add of { session : int; point : Wa_geom.Vec2.t }
  | Churn_remove of { session : int; node : int }
  | Churn_info of { session : int }
  | Churn_close of { session : int }
  | Stats
  | Telemetry
      (** Live snapshot: rolling per-op latency quantiles, cache and
          pool gauges, slow-request exemplars, GC counters.  Answered
          inline on the server's event loop — never queued behind the
          worker pool — so scrapes survive any compute load. *)
  | Shutdown
  | Cache_peek of { key : string }
      (** Non-authoritative warm-replica probe: does this backend hold
          a plan under content key [key]?  Never computes, never
          blocks; answered inline like [Stats]. *)
  | Cache_advertise of { origin : string; invalidate : bool; keys : string list }
      (** Gossip from a peer backend: [origin] filled (or, with
          [invalidate] set, dropped) these cache [keys].  Advisory
          only — the receiver records hints / evicts local copies and
          acknowledges; correctness never depends on delivery. *)

type request = {
  id : int;  (** Client correlation id, echoed in the response. *)
  deadline_ms : float option;
      (** Per-request budget from arrival at the server; a request
          still queued when it expires is answered
          [deadline_exceeded] instead of being run. *)
  trace : bool;
      (** Collect the per-stage spans of this one request on the
          worker that runs it and return them in the response
          envelope ([rtrace]). *)
  body : request_body;
}

val op_name : request_body -> string
(** The wire name of the op ("ping", "plan", ...). *)

(* Responses ------------------------------------------------------------ *)

type plan_summary = {
  nodes : int;
  links : int;
  slots : int;
  rate : float;
  raw_colors : int;
  repair_added : int;
  plan_valid : bool;
  point_diversity : float;
  link_diversity : float;
  description : string;
  cached : bool;  (** Served from the plan cache. *)
  compute_ms : float;  (** Compute time; ~0 on cache hits. *)
}

type sim_summary = {
  sim_slots : int;
  frames_generated : int;
  frames_delivered : int;
  achieved_rate : float;
  steady_rate : float;
  mean_latency : float;
  max_latency : int;
  max_buffer : int;
  aggregates_correct : bool;
  violations : int;
  idle_slots : int;
  plan_cached : bool;
}

type churn_summary = {
  session : int;
  node : int option;  (** Id allocated by an [add]. *)
  links_total : int;
  links_kept : int;
  links_recolored : int;
  churn_slots : int;
  recompute_slots : int;
}

type session_info = {
  info_session : int;
  size : int;
  info_slots : int;
  info_valid : bool;
}

type error_code =
  | Bad_request
  | Bad_version
  | Overloaded  (** Bounded request queue at capacity; retry later. *)
  | Deadline_exceeded
  | No_such_session
  | Shutting_down
  | Internal

(* Telemetry ------------------------------------------------------------ *)

type trace_span = {
  t_name : string;
  t_start_ns : int;
      (** Relative to the first captured span of the request. *)
  t_dur_ns : int;
  t_depth : int;  (** Nesting depth, 0 = outermost captured span. *)
}

type cache_summary = {
  cs_entries : int;
  cs_bytes : int;
  cs_hits : int;
  cs_misses : int;
  cs_coalesced : int;
  cs_evictions : int;
}

type stats_summary = {
  st_requests : int;
  st_responses : int;
  st_overloaded : int;
  st_deadline_misses : int;
  st_inflight_peak : int;
  st_draining : bool;
  st_workers : int;
  st_queue_depth : int;
  st_queue_capacity : int;
  st_in_flight : int;
  st_cache : cache_summary;
  st_sessions : int;
}

type op_latency = {
  ol_op : string;
  ol_count : int;
  ol_p50_ms : float;  (** [nan] encodes as null on the wire. *)
  ol_p90_ms : float;
  ol_p99_ms : float;
  ol_max_ms : float;
}

type exemplar = { ex_op : string; ex_id : int; ex_ms : float }

type gc_summary = {
  gc_heap_words : int;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_compactions : int;
}

type backend_row = {
  be_name : string;
  be_healthy : bool;
  be_draining : bool;
  be_queue_depth : int;
  be_in_flight : int;
  be_requests : int;  (** Requests the router sent this backend. *)
  be_failures : int;  (** Connection/timeout failures observed. *)
  be_hit_ratio : float;  (** Cache hit ratio from the last probe; nan
                             while the first probe is pending. *)
  be_p50_ms : float;  (** Router-side latency digest ([nan] = empty). *)
  be_p99_ms : float;
}

type fleet_summary = {
  fl_backends : backend_row list;
  fl_rerouted : int;  (** Requests moved off their home shard. *)
  fl_peek_hits : int;  (** Reroutes that found a warm replica. *)
  fl_gossip_keys : int;  (** Warm-hint keys currently tracked. *)
}

type telemetry_summary = {
  tel_uptime_s : float;
  tel_window_s : float;  (** Seconds covered by the merged windows. *)
  tel_windows : int;
  tel_in_flight : int;
  tel_queue_depth : int;
  tel_ops : op_latency list;  (** Rolling latency digest per op. *)
  tel_cache : cache_summary;
  tel_sessions : int;
  tel_exemplars : exemplar list;  (** Slowest recent requests. *)
  tel_gc : gc_summary;
  tel_fleet : fleet_summary option;
      (** Router-side per-shard view; [None] on a plain backend (the
          field is omitted from the wire line entirely). *)
}

type response_body =
  | Pong
  | Plan_r of plan_summary
  | Describe_r of string
  | Sim_r of sim_summary
  | Churn_created of int
  | Churn_r of churn_summary
  | Session_r of session_info
  | Churn_closed of int
  | Stats_r of stats_summary
  | Telemetry_r of telemetry_summary
  | Shutdown_ok
  | Cache_peek_r of { present : bool; origin : string option }
      (** [present]: the key is resident locally.  [origin]: the peer
          a gossip advertisement named as holding it (a hint — the
          plan may have been evicted there since). *)
  | Advertise_ok of int  (** Number of advertised keys accepted. *)
  | Error of { code : error_code; message : string; shard : string option }
      (** [shard]: which backend produced the error when the response
          travelled through the fleet router; [None] (field absent on
          the wire) from a directly-connected server. *)

type response = {
  rid : int;
  body : response_body;
  rtrace : trace_span list option;
      (** Span tree of a traced request ([request.trace]); [None] on
          untraced responses. *)
}

val error : ?shard:string -> id:int -> error_code -> string -> response

(* Codecs --------------------------------------------------------------- *)

val error_code_to_string : error_code -> string

val spec_canonical_json : plan_spec -> Wa_util.Json.t
(** The canonical form whose content hash is the plan-cache key:
    deployment, power mode, alpha, beta, gamma (explicit null when
    defaulted) and engine, in fixed field order.  [no_cache] is
    excluded — it steers the cache, it does not change the plan.

    Decoding rejects non-finite spec values (alpha, beta, gamma, side,
    coordinates): the JSON parser reads [1e999] as infinity. *)

val encode_request : request -> Wa_util.Json.t
val encode_response : response -> Wa_util.Json.t

val request_to_line : request -> string
(** Compact JSON, no trailing newline. *)

val request_of_line : string -> (request, string) result
val response_to_line : response -> string
val response_of_line : string -> (response, string) result

val id_of_line : string -> int
(** Best-effort ["id"] extraction from a malformed request line, so
    the error envelope still correlates; [0] when unrecoverable. *)

val undecodable : line:string -> string -> response
(** The reply to a request [line] that failed to decode with the given
    message: [bad_version] when the line names a protocol version other
    than {!version}, [bad_request] otherwise, with the id recovered as
    by {!id_of_line}. *)

(* Envelope splicing ---------------------------------------------------- *)

(** Every response, and every request without [deadline_ms] or [trace],
    encodes to a line that begins [{"v":1,"id":<id>].  Swapping that
    prefix changes the id and nothing else, which lets a hop forward a
    line without decoding it. *)

val id_prefix : int -> string
(** [{"v":1,"id":<id>], the line prefix for [id]. *)

val split_id : string -> (int * int) option
(** [Some (id, pos)] when the line begins with the id prefix: the id
    and the offset just after its digits.  [None] otherwise (including
    negative ids).  [id_prefix k ^] the rest from [pos] is the line
    with id [k]. *)

val ok_at : string -> int -> bool
(** For a response line and the [pos] from {!split_id}: whether it
    continues [,"ok":true], i.e. is a success.  Builds no string. *)

val greeting_line : string
(** Sent by the server on connect: service name + protocol version. *)

val check_greeting : string -> (unit, string) result
