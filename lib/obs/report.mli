(** Immutable snapshot of everything recorded so far: spans plus the
    metrics registry.  Capture once at the end of a run, then export
    ({!Export}), query, or pretty-print. *)

type t = {
  spans : Trace.span list;  (** Sorted by start time. *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Metrics.hist_snapshot) list;
}

val capture : unit -> t
(** Flush the calling domain's trace buffer and snapshot everything. *)

val capture_metrics : unit -> t
(** Snapshot the metrics registry only ([spans = []]); cheap enough
    for a periodic exposition dump on a resident server. *)

val empty : t

val find_spans : t -> string -> Trace.span list
val has_span : t -> string -> bool
val span_names : t -> string list

val span_ms : t -> string -> float option
(** Total duration in ms over all spans with this name; [None] when
    the name never appears. *)

val counter_value : t -> string -> int option
val gauge_value : t -> string -> float option

val span_to_json : Trace.span -> Wa_util.Json.t
(** One JSON-lines record: [{"type":"span","name":...,"start_ns":...,
    "dur_ns":...,"depth":...,"domain":...}]. *)

val metrics_to_json : t -> Wa_util.Json.t
(** The metrics document: counters/gauges/histograms keyed by name. *)

val pp : Format.formatter -> t -> unit
(** Human summary: per-name span totals (widest first), counters,
    gauges, histogram digests. *)
