(** Typed-AST semantic analysis over the [.cmt] files dune produces.

    Complements the syntactic [Wa_lint_core.Lint]: the passes here see
    resolved paths and inferred types, so they check the {e meaning}
    of the code.  Since PR 8 the analysis is whole-program: a first
    phase extracts serializable per-function facts from every unit, a
    second builds the call graph and runs a bottom-up fixpoint over
    its SCCs ([Summary.solve]), and a third re-walks each unit with
    the summary table in hand.  Passes —

    - [domain-capture] — a closure reaching
      [Wa_util.Parallel.{iter,init,map_array}] writes a
      captured ref / mutable field / array / container, directly or
      through any call chain whose summary records a write to
      module-level or parameter-reachable non-[Atomic] state
      ([Atomic.t] exempt, whitelisted sites skipped);
    - [unit-mix] — abstract interpretation over
      {power, distance, distance{^α}, gain, log-domain, dimensionless}:
      additions/comparisons mixing log- and linear-domain quantities,
      distinct linear quantities added, log-domain floats passed to a
      [~power:] argument, [Logfloat.of_log]/[of_float] boundary
      misuse; callee result domains come from the summary table;
    - [float-unguarded] — on hot paths, division / [log] / [sqrt]
      whose denominator/argument is not provably nonzero: positive
      sources, literals, products/powers, enclosing guards,
      whole-program record-field bounds (every construction site of
      [Params.t] proves [alpha > 2]), callees summarized as returning
      a positive float, witness refs, and positive-array invariants;
      operands only a caller can prove become preconditions discharged
      at every hot call site;
    - [nan-compare] — the same unguarded shapes inside a comparator
      passed to a sort;
    - [exn-escape] — a raise that can cross a [Parallel] chunk
      boundary: direct, or via a callee whose transitive may-raise set
      is not covered by enclosing handlers ([Fun.protect] bodies count
      as handled);
    - [hot-alloc] — functions annotated [[@wa.hot]] are certified
      transitively allocation-free, with the allocating call chain
      printed (model limits documented in DESIGN.md §14);
    - [lockset] — mutable state annotated
      [[@wa.guarded_by "Cache.t.mutex"]] must only be touched with the
      guard held; held-lock sets flow through [Mutex.protect], in-unit
      lock wrappers, and lock–unlock statement sequences, and
      undischarged requirements propagate to callers through the
      summary table — a requirement surviving to a function nothing
      calls is a race ([[@wa.benign_race]] declares an intentional
      one);
    - [lock-order] — the global lock-acquisition-order graph (nested
      acquisitions, direct and through calls made with locks held)
      must be acyclic; each edge of a cycle is reported with both
      conflicting chains;
    - [event-loop-block] — from [[@wa.event_loop]] roots, no blocking
      primitive ([Condition.wait], [Thread.delay], [Domain.join],
      [Thread.join], blocking [Unix] syscalls, [[@wa.compute]] bodies)
      may be transitively reachable outside closures deferred to a
      spawn point; the blocking chain is
      printed (soundness caveats in DESIGN.md §15);
    - [check-then-act] — [Atomic.set] guarded by a branch on
      [Atomic.get] of the same atom is a race window; use
      [compare_and_set];
    - [cmt-error] — the [.cmt] file cannot be read.

    Suppress with [[@wa.check.allow "rule …"]] on the offending
    expression or any enclosing one, or a floating
    [[@@@wa.check.allow "rule …"]] for the whole file. *)

val all_rules : string list

module Config : sig
  type t = {
    hot_paths : string list;
        (** Path prefixes where [float-unguarded] applies. *)
    capture_allowed : string list;
        (** Path prefixes exempt from [domain-capture]/[exn-escape]
            (the audited concurrency core); their summaries record no
            writes or raises. *)
    positive_sources : (string * string) list;
        (** [(Module, fn)] pairs whose results are positive by
            construction (validated at the source), trusted as nonzero
            denominators. *)
    positive_maps : (string * string) list;
        (** [(Module, fn)] pairs that preserve positivity: a (full)
            application to a nonzero operand is nonzero, and a partial
            application bound to a local name carries the guarantee to
            later call sites ([let pow = Params.alpha_pow p]). *)
  }

  val default : t
  (** Hot paths [lib/sinr/] + [lib/core/conflict.ml]; capture
      whitelist [lib/obs/] + [lib/util/parallel.ml]; positive sources
      [Linkset.length] and friends (zero-length links are rejected at
      [Link.make]) and [Power.value]/[vector] (validated positive);
      positive maps [Params.alpha_pow]/[Params.pow_apply]. *)
end

type violation = {
  file : string;  (** Source path as recorded in the [.cmt]. *)
  line : int;  (** 1-based. *)
  col : int;  (** 0-based byte column. *)
  rule : string;
  message : string;
}

val equal_violation : violation -> violation -> bool
val pp_violation : Format.formatter -> violation -> unit

val violation_to_json : violation -> Wa_util.Json.t
val violation_of_json : Wa_util.Json.t -> (violation, string) result

type report = {
  files_scanned : int;  (** Implementations actually analyzed. *)
  closures_analyzed : int;  (** Parallel chunk closures inspected. *)
  expressions_analyzed : int;
      (** Expressions visited by the unit pass — the coverage number
          surfaced by [--stats]. *)
  guarded_accesses : int;
      (** Guarded-field accesses certified lock-held. *)
  event_loop_roots : int;
      (** [[@wa.event_loop]] roots certified non-blocking. *)
  violations : violation list;
}

val report_to_json : report -> Wa_util.Json.t
val report_of_json : Wa_util.Json.t -> (report, string) result

type file_report = {
  source : string option;
  analyzed : bool;  (** False for interfaces, packs, generated alias
                        modules, unreadable files. *)
  file_violations : violation list;
  file_closures : int;
  file_expressions : int;
  file_guarded : int;  (** Certified guarded accesses in this unit. *)
  file_roots : int;
      (** Certified [[@wa.event_loop]] roots in this unit. *)
}

type summaries = {
  tbl : Summary.table;
  facts : (string, Summary.fn_fact) Hashtbl.t;
  srcs : (string, string) Hashtbl.t;
      (** fq -> defining unit's source path; whole-program diagnoses
          attribute each fact to exactly one unit through this (a
          module-prefix test would let a dune wrapper module claim its
          whole library a second time). *)
  lock_cycles : (string * int * string) list;
      (** [(owner fq, line, message)]: lock-order cycle edges, each
          attributed to the unit owning its outer acquisition so
          per-file reports stay cacheable. *)
}
(** The whole-program phase-2 result: solved summaries plus the raw
    facts (the latter drive [hot-alloc]'s call-chain walk) and the
    global lock-order verdict. *)

val summarize_paths : ?config:Config.t -> string list -> summaries
(** Extract facts from every [.cmt] under the given roots and solve.
    No diagnostics are emitted. *)

val analyze_cmt :
  ?config:Config.t -> ?summaries:summaries -> string -> file_report
(** Analyze one [.cmt] file; violations sorted by position.  Without
    [summaries] the interprocedural provers and [hot-alloc] are
    disabled (intraprocedural behavior). *)

val analyze_program :
  ?config:Config.t ->
  ?cache:string ->
  string list ->
  report * Summary.cache_stats
(** Whole-program run over every [.cmt] under the given
    files/directories (including dune's [.objs] dirs).  With [~cache],
    per-unit facts and reports are keyed by [.cmt] digest in the given
    file: a fully-warm run rebuilds the aggregate report byte-for-byte
    without loading a single Typedtree; a partial hit skips extraction
    for unchanged units but re-solves and re-diagnoses everything
    (summaries are global), then rewrites the cache. *)

val analyze_paths : ?config:Config.t -> string list -> report
(** [analyze_program] without a cache, keeping only the report. *)
