(** Windowed aggregation over the metrics registry, for observing a
    resident process while it runs.

    The registry's counters and histograms are cumulative; [Live]
    turns them into a rolling ring of per-window deltas without
    touching any update path.  Drive {!roll} from a timer (the
    wa_service event loop rolls once per second); each roll diffs a
    fresh registry snapshot against the previous one and pushes the
    delta window onto a bounded ring.  Queries merge the most recent
    windows back into one {!Metrics.hist_snapshot} and extract
    p50/p90/p99 via {!Metrics.quantile}, so "the p99 over the last
    minute" is one call.

    Window histogram extrema are approximated by the lowest/highest
    non-empty delta bucket — within one dyadic factor, same accuracy
    as the quantiles.  Counter updates remain exact: a window's
    counter delta is the difference of two atomic snapshots, so
    multi-domain increments are never lost or double-counted across
    windows.  A {!Metrics.reset} between rolls makes deltas fall back
    to the fresh cumulative value rather than going negative. *)

type t

type window = {
  w_start_ns : int64;
  w_end_ns : int64;
  w_counters : (string * int) list;
      (** Counter deltas over the window, sorted by name, zeros
          omitted. *)
  w_hists : (string * Metrics.hist_snapshot) list;
      (** Window-local histogram deltas, sorted by name, empty ones
          omitted. *)
}

val create : ?windows:int -> unit -> t
(** A ring holding the last [windows] windows (default 60); the
    current registry state becomes the first diff base. *)

val roll : t -> unit
(** Snapshot the registry, push the delta window, advance the base. *)

val window_count : t -> int
(** Windows currently held (0 until the first {!roll}). *)

val horizon_s : ?last:int -> t -> float
(** Wall-clock seconds covered by the selected windows ([last] newest;
    all by default). *)

type quantiles = {
  q_count : int;
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;  (** Upper bound of the highest filled bucket. *)
}

val quantiles : ?last:int -> t -> string -> quantiles option
(** Rolling latency digest of one histogram over the selected
    windows. *)

val counter_delta : ?last:int -> t -> string -> int
(** Sum of a counter's deltas over the selected windows (0 if the
    counter never moved). *)

val hist_names : ?last:int -> t -> string list
(** Names of histograms that recorded in the selected windows. *)

val sample_runtime : unit -> unit
(** Tick the runtime gauges ([runtime.heap_words],
    [runtime.top_heap_words], [runtime.allocated_words],
    [runtime.minor_collections], [runtime.major_collections],
    [runtime.compactions], [runtime.stack_words],
    [runtime.recommended_domains]) from [Gc.quick_stat].  Call it
    from the same timer that drives {!roll}. *)
