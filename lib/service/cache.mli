(** Content-addressed cache with LRU eviction and request batching.

    Keys are content hashes ({!content_key}) of a canonical JSON
    description of the inputs, so two requests that describe the same
    computation — regardless of field order at the call site, since
    the canonical form fixes it — share one entry.  The cache is
    bounded both in entries and in (caller-accounted) bytes; inserts
    evict least-recently-used entries until both bounds hold.

    All operations are thread-safe.  {!find_or_compute} additionally
    {e batches}: concurrent callers of the same missing key block on
    the single in-flight computation instead of recomputing, and are
    reported as [`Coalesced].

    Hit/miss/coalesced/eviction counters and entry/byte gauges are
    published through {!Wa_obs.Metrics} under [<metrics_prefix>_*]. *)

type 'a t

val content_key : Wa_util.Json.t -> string
(** Hex digest of the compact serialization — the content address. *)

val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  ?metrics_prefix:string ->
  unit ->
  'a t
(** Defaults: 128 entries, 256 MiB, prefix ["service.cache"]. *)

val find : 'a t -> string -> 'a option
(** Lookup only; counts a hit or nothing (no miss on [None]). *)

val mem : 'a t -> string -> bool
(** Presence test: no LRU touch and no hit/miss accounting, so
    advisory probes (the fleet's [cache_peek]) neither skew telemetry
    nor keep entries alive. *)

val set_on_evict : 'a t -> (string list -> unit) -> unit
(** Install a capacity-eviction listener.  Called with the victims'
    keys after every insert that evicted, always with the cache's lock
    released — the callback may re-enter the cache.  Used by the fleet
    gossip channel to piggyback invalidations. *)

val store : 'a t -> string -> bytes:int -> 'a -> unit
(** Insert (replacing any previous value) and enforce the bounds. *)

val find_or_compute :
  'a t ->
  string ->
  bytes_of:('a -> int) ->
  (unit -> 'a) ->
  [ `Hit of 'a | `Computed of 'a | `Coalesced of 'a ]
(** Cache lookup, computing and storing on miss.  Concurrent calls
    for the same key run [compute] once; the others wait and return
    [`Coalesced].  If [compute] raises, the exception propagates to
    its caller and one waiter takes the compute over. *)

type stats = {
  entries : int;
  total_bytes : int;
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
}

val stats : 'a t -> stats
val clear : 'a t -> unit
