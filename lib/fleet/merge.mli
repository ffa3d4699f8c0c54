(** Pure merges for the router's fan-out ops ([stats], [telemetry]).

    Counters and gauges {e sum} across backends — the qcheck property
    in [test/test_fleet.ml] checks every integer field of the merge
    equals the per-backend sum.  Booleans OR ([draining] means "any
    member draining").  Latency quantiles take the per-op nan-aware
    maximum: an upper-bound digest, honest for alerting without
    shipping the underlying windows.  Exemplars keep the global
    top-8 by duration. *)

val merge_stats :
  Wa_service.Protocol.stats_summary list -> Wa_service.Protocol.stats_summary

val merge_telemetry :
  ?fleet:Wa_service.Protocol.fleet_summary ->
  Wa_service.Protocol.telemetry_summary list ->
  Wa_service.Protocol.telemetry_summary
(** Uptime is the max, window coverage the min (the merged view only
    covers what every member covers); [tel_fleet] is set to [?fleet]
    — the router attaches its own per-shard table here. *)
