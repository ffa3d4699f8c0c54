(** [Logs] wiring: the ["wa.obs"] source, a source-tagging Fmt
    reporter, and CLI verbosity mapping.

    Each sublibrary defines its own source (["wa.core"], ["wa.sinr"],
    ["wa.util"], ["wa.geom"]); {!setup} installs a reporter that
    prefixes messages with the source name so degraded-path warnings
    (grid-index brute fallbacks, schedule repair splits) say where
    they came from. *)

module Self : Logs.LOG
(** Logging for the obs layer itself. *)

val level_of_verbosity : int -> Logs.level option
(** 0 → warnings (the default: degraded paths stay visible), 1 →
    info, 2+ → debug. *)

val setup : ?ppf:Format.formatter -> ?level:Logs.level -> unit -> unit
(** Install the reporter and set the level on all sources (default
    [Warning]). *)
