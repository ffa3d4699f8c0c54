(** Runtime invariant auditor for finished pipeline runs.

    A {!check} re-derives one invariant from first principles — slots
    recounted link by link, SINR re-verified against the physical
    model of inequality (1), trees re-walked to the sink, the indexed
    conflict graph diffed against the dense oracle, telemetry reports
    checked for internal consistency — and reports every deviation as
    a structured {!violation}.  Constructors only capture data;
    nothing executes until {!run_checks}, which times each check under
    a [audit.<name>] span.

    The module takes plain data (slot arrays, closures, graph and tree
    values), never wa_core types, so [Pipeline.plan ~audit:true] can
    call down into it without a dependency cycle. *)

type violation = {
  check : string;  (** Name of the check that fired. *)
  subject : string;  (** What it fired on, e.g. ["slot 3"]. *)
  detail : string;  (** Human-readable description. *)
}

type check

type report = {
  checks : string list;  (** Names of every check that ran. *)
  violations : violation list;
  elapsed_ms : float;  (** Wall time of the whole audit. *)
}

val make_check : string -> (unit -> violation list) -> check
(** Custom check.  The thunk runs inside an [audit.<name>] span; an
    exception is converted into a violation rather than aborting the
    audit. *)

val run_checks : check list -> report
(** Run every check in order (span ["audit.run"] around the batch,
    [audit.<name>] per check). *)

val ok : report -> bool
(** No violations. *)

val partition_check : n_links:int -> slots:int list array -> check
(** Every link id in [0, n_links) appears in exactly one slot, and no
    slot mentions an out-of-range id. *)

val sinr_check :
  Wa_sinr.Params.t ->
  Wa_sinr.Linkset.t ->
  power_of_slot:(int list -> Wa_sinr.Power.scheme option) ->
  slots:int list array ->
  check
(** Re-verify every non-empty slot against
    {!Wa_sinr.Feasibility.check} under the power witness returned by
    [power_of_slot] (one violation per failing link; a [None] witness
    is itself a violation). *)

val tree_check : Wa_graph.Tree.t -> check
(** Rootedness and acyclicity: the sink is the unique parentless node,
    every parent walk reaches it within [n-1] hops, depths are
    consistent with parents, and there are exactly [n-1] directed
    edges. *)

val graph_symmetry_check :
  reference:(unit -> Wa_graph.Graph.t) ->
  candidate:(unit -> Wa_graph.Graph.t) ->
  check
(** Build both graphs (thunked — construction is billed to the audit)
    and diff their sorted edge lists; reports vertex-count mismatches
    and edges present on one side only (listing at most ten each
    way). *)

val report_consistency_check : (unit -> Wa_obs.Report.t) -> check
(** Internal consistency of a telemetry snapshot: counters
    non-negative, histogram [count = nonpositive + Σ bucket counts]
    with [min <= max] when non-empty and well-formed bucket bounds,
    span durations and depths non-negative. *)

val report_to_json : report -> Wa_util.Json.t

val pp_report : Format.formatter -> report -> unit
(** Check count, violation count and one line per violation.  The
    wall time is left out, so two audits of the same plan print the
    same text. *)
