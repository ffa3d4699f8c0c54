module Json = Wa_util.Json
module Metrics = Wa_obs.Metrics

let content_key json = Digest.to_hex (Digest.string (Json.to_string ~pretty:false json))

type 'a slot = {
  value : 'a;
  bytes : int;
  mutable last_used : int; [@wa.guarded_by "Cache.t.mutex"]
}

type 'a t = {
  mutex : Mutex.t;
  done_cond : Condition.t;  (** Broadcast when an in-flight compute settles. *)
  table : (string, 'a slot) Hashtbl.t; [@wa.guarded_by "Cache.t.mutex"]
  inflight : (string, unit) Hashtbl.t; [@wa.guarded_by "Cache.t.mutex"]
  max_entries : int;
  max_bytes : int;
  mutable tick : int; [@wa.guarded_by "Cache.t.mutex"]
  mutable total_bytes : int; [@wa.guarded_by "Cache.t.mutex"]
  (* Telemetry handles; all updates are no-ops while telemetry is off. *)
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_evictions : Metrics.counter;
  g_entries : Metrics.gauge;
  g_bytes : Metrics.gauge;
  (* Plain tallies so {!stats} works with telemetry disabled. *)
  mutable n_hits : int; [@wa.guarded_by "Cache.t.mutex"]
  mutable n_misses : int; [@wa.guarded_by "Cache.t.mutex"]
  mutable n_coalesced : int; [@wa.guarded_by "Cache.t.mutex"]
  mutable n_evictions : int; [@wa.guarded_by "Cache.t.mutex"]
  mutable on_evict : string list -> unit;
      (* Always invoked with [mutex] released so the callback may
         re-enter the cache or take its own locks. *)
}

type stats = {
  entries : int;
  total_bytes : int;
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
}

let create ?(max_entries = 128) ?(max_bytes = 256 * 1024 * 1024)
    ?(metrics_prefix = "service.cache") () =
  if max_entries < 1 then invalid_arg "Cache.create: max_entries must be >= 1";
  if max_bytes < 1 then invalid_arg "Cache.create: max_bytes must be >= 1";
  {
    mutex = Mutex.create ();
    done_cond = Condition.create ();
    table = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    max_entries;
    max_bytes;
    tick = 0;
    total_bytes = 0;
    m_hits = Metrics.counter (metrics_prefix ^ "_hits");
    m_misses = Metrics.counter (metrics_prefix ^ "_misses");
    m_coalesced = Metrics.counter (metrics_prefix ^ "_coalesced");
    m_evictions = Metrics.counter (metrics_prefix ^ "_evictions");
    g_entries = Metrics.gauge (metrics_prefix ^ "_entries");
    g_bytes = Metrics.gauge (metrics_prefix ^ "_bytes");
    n_hits = 0;
    n_misses = 0;
    n_coalesced = 0;
    n_evictions = 0;
    on_evict = ignore;
  }

let set_on_evict t f = t.on_evict <- f

(* All helpers below run with [t.mutex] held. *)

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let publish_gauges t =
  Metrics.set t.g_entries (float_of_int (Hashtbl.length t.table));
  Metrics.set t.g_bytes (float_of_int t.total_bytes)

(* Evict least-recently-used entries until both bounds hold, returning
   the victims' keys (newest-first) so the caller can notify
   [on_evict] after releasing the lock.  A linear scan per eviction is
   deliberate: the table is bounded by [max_entries] (hundreds), and
   evictions only happen on insert. *)
let rec enforce_bounds t acc =
  if Hashtbl.length t.table > t.max_entries || t.total_bytes > t.max_bytes then
    let victim =
      Hashtbl.fold
        (fun key slot acc ->
          match acc with
          | Some (_, best) when best.last_used <= slot.last_used -> acc
          | _ -> Some (key, slot))
        t.table None
    in
    match victim with
    | None -> acc
    | Some (key, slot) ->
        Hashtbl.remove t.table key;
        t.total_bytes <- t.total_bytes - slot.bytes;
        t.n_evictions <- t.n_evictions + 1;
        Metrics.incr t.m_evictions;
        enforce_bounds t (key :: acc)
  else acc

let insert t key value bytes =
  (match Hashtbl.find_opt t.table key with
  | Some old -> t.total_bytes <- t.total_bytes - old.bytes
  | None -> ());
  let slot = { value; bytes; last_used = 0 } in
  touch t slot;
  Hashtbl.replace t.table key slot;
  t.total_bytes <- t.total_bytes + bytes;
  let evicted = enforce_bounds t [] in
  publish_gauges t;
  evicted

let notify_evicted t = function [] -> () | keys -> t.on_evict keys

let find t key =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some slot ->
        touch t slot;
        t.n_hits <- t.n_hits + 1;
        Metrics.incr t.m_hits;
        Some slot.value
    | None -> None
  in
  Mutex.unlock t.mutex;
  r

(* Presence test only: no LRU touch, no hit/miss accounting — used by
   the advisory [cache_peek] op, which must not skew cache telemetry
   or keep entries alive that no real request wants. *)
let mem t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.mem t.table key in
  Mutex.unlock t.mutex;
  r

let store t key ~bytes value =
  Mutex.lock t.mutex;
  let evicted = insert t key value bytes in
  Mutex.unlock t.mutex;
  notify_evicted t evicted

(* Request batching: concurrent lookups of the same key coalesce onto
   one compute.  The first caller registers the key in [inflight] and
   computes outside the lock; the others block on [done_cond] and
   re-check.  If the compute raises, the key is deregistered and one
   waiter takes over, so a failure never wedges the key. *)
let find_or_compute t key ~bytes_of compute =
  Mutex.lock t.mutex;
  let rec acquire ~waited =
    match Hashtbl.find_opt t.table key with
    | Some slot ->
        touch t slot;
        if waited then begin
          t.n_coalesced <- t.n_coalesced + 1;
          Metrics.incr t.m_coalesced
        end
        else begin
          t.n_hits <- t.n_hits + 1;
          Metrics.incr t.m_hits
        end;
        Mutex.unlock t.mutex;
        if waited then `Coalesced slot.value else `Hit slot.value
    | None ->
        if Hashtbl.mem t.inflight key then begin
          Condition.wait t.done_cond t.mutex;
          acquire ~waited:true
        end
        else begin
          Hashtbl.replace t.inflight key ();
          t.n_misses <- t.n_misses + 1;
          Metrics.incr t.m_misses;
          Mutex.unlock t.mutex;
          match compute () with
          | value ->
              Mutex.lock t.mutex;
              Hashtbl.remove t.inflight key;
              let evicted = insert t key value (bytes_of value) in
              Condition.broadcast t.done_cond;
              Mutex.unlock t.mutex;
              notify_evicted t evicted;
              `Computed value
          | exception e ->
              Mutex.lock t.mutex;
              Hashtbl.remove t.inflight key;
              Condition.broadcast t.done_cond;
              Mutex.unlock t.mutex;
              raise e
        end
  in
  acquire ~waited:false

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      entries = Hashtbl.length t.table;
      total_bytes = t.total_bytes;
      hits = t.n_hits;
      misses = t.n_misses;
      coalesced = t.n_coalesced;
      evictions = t.n_evictions;
    }
  in
  Mutex.unlock t.mutex;
  s

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  t.total_bytes <- 0;
  publish_gauges t;
  Mutex.unlock t.mutex
