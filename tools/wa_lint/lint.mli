(** Source-level static analysis for the project tree.

    Parses [.ml] files with compiler-libs and enforces the project's
    correctness rules on the Parsetree (no type information; each rule
    is a decidable syntactic shape plus path-based configuration):

    - [list-eq] — polymorphic [=]/[<>] against a list literal;
    - [float-eq] — polymorphic [=]/[<>] with a syntactically
      float-valued operand (literal, [nan]/[infinity]/…, float
      arithmetic, or a call into a float-bearing module);
    - [poly-compare] — bare [compare]/[Stdlib.compare];
    - [atomic-scope] — [Atomic.*] outside the concurrency core;
    - [unix-scope] — [Unix.*] outside the I/O perimeter;
    - [obs-scope] — [Wa_obs.enabled] outside the observability
      library (a branch on it can make telemetry change the result);
    - [obj-magic] — [Obj.magic];
    - [printf-hot] — [Printf.*] inside a configured hot path;
    - [missing-mli] — a library [.ml] with no sibling [.mli];
    - [unused-export] — a value exported by a library or tool [.mli]
      but never referenced outside its own module, seeing through
      module aliases (only with [?ref_paths]);
    - [parse-error] — the file does not parse.

    Suppress with [[@wa.lint.allow "rule …"]] on the offending
    expression or a floating [[@@@wa.lint.allow "rule …"]] for the
    whole file. *)

val all_rules : string list

module Config : sig
  type t = {
    hot_paths : string list;
        (** Path prefixes where [printf-hot] applies. *)
    atomic_allowed : string list;
        (** Path prefixes where [Atomic.*] is permitted. *)
    unix_allowed : string list;
        (** Path prefixes where [Unix.*] is permitted. *)
    float_modules : string list;
        (** Modules whose applications count as float-bearing operands
            ([Link], [Vec2], [Float] by default). *)
    mli_required_roots : string list;
        (** Path prefixes under which every [.ml] needs a [.mli]. *)
    export_roots : string list;
        (** Path prefixes whose [.mli] exports [unused-export]
            audits. *)
  }

  val default : t
  (** The project rules: hot paths [lib/sinr/] + [lib/core/conflict.ml],
      atomics confined to [lib/obs/] + [lib/util/parallel.ml], syscalls
      confined to [lib/service/] + [lib/fleet/] + [lib/io/] + [bin/] +
      [bench/], [.mli] required under [lib/], exports audited under
      [lib/] and [tools/]. *)
end

type violation = {
  file : string;  (** Normalized ('/'-separated) path as scanned. *)
  line : int;  (** 1-based. *)
  col : int;  (** 0-based byte column. *)
  rule : string;
  message : string;
}

val equal_violation : violation -> violation -> bool
val pp_violation : Format.formatter -> violation -> unit

val violation_to_json : violation -> Wa_util.Json.t
val violation_of_json : Wa_util.Json.t -> (violation, string) result

type report = { files_scanned : int; violations : violation list }

val report_to_json : report -> Wa_util.Json.t
val report_of_json : Wa_util.Json.t -> (report, string) result

val lint_file : ?config:Config.t -> string -> violation list
(** Lint one file; violations sorted by position.  A file that does
    not parse yields a single [parse-error] violation. *)

val lint_paths : ?config:Config.t -> ?ref_paths:string list -> string list -> report
(** Recursively lint every [.ml] under the given files/directories
    (skipping [_build] and dotfiles), including the [missing-mli]
    check.  Deterministic: files and violations are sorted with
    duplicates removed, so overlapping path arguments (or overlapping
    alias invocations) never double-report.

    Passing [?ref_paths] activates [unused-export]: the [.mli]s under
    [Config.export_roots] ([lib/] and [tools/] by default) are audited
    for values never referenced from any other scanned file, where the
    reference set is the scanned files plus everything under
    [ref_paths] (reference-only: those files are parsed but not linted
    or counted).  Aliases resolve per file: [module X = A.B.M] (at any
    nesting) and [let module X = A.B.M in] bind [X] to [M],
    transitively, and [X.v] then counts as a use of [M.v] for every
    module [X] is bound to in that file.  A module that is opened
    ([open], [let open], [M.(…)]), included, passed to a functor, named
    in [module type of] or packed counts as used in full.  Without
    [?ref_paths] the rule stays off — a partial scan cannot decide
    "never referenced". *)
