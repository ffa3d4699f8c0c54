(** One-call API: from a pointset to a verified aggregation plan.

    [plan] runs the paper's whole construction — MST, conflict graph
    for the chosen power mode, greedy length-ordered coloring, SINR
    validation with repair — and returns everything a caller needs to
    operate or analyze the network. *)

type power_mode =
  [ `Global  (** Arbitrary power control: the [O(log* Δ)] regime. *)
  | `Oblivious of float
    (** [Pτ] with [τ ∈ (0,1)]: the [O(log log Δ)] regime. *)
  | `Uniform  (** [P0] baseline. *)
  | `Linear  (** [P1] baseline. *) ]

type plan = {
  agg : Agg_tree.t;
  mode : Greedy_schedule.mode;
  schedule : Schedule.t;  (** Verified feasible (post-repair). *)
  raw_colors : int;  (** Colors before repair. *)
  repair_added : int;  (** Slots added by the repair pass. *)
  point_diversity : float;  (** Δ of the pointset. *)
  link_diversity : float;  (** Δ(L) of the MST links. *)
  valid : bool;  (** Result of the final ground-truth validation. *)
  audit : Wa_analysis.Audit.report option;
      (** Present iff [plan] ran with [~audit:true]. *)
}

val plan :
  ?params:Wa_sinr.Params.t ->
  ?gamma:float ->
  ?engine:Conflict.engine ->
  ?sink:int ->
  ?tree_edges:(int * int) list ->
  ?audit:bool ->
  power_mode ->
  Wa_geom.Pointset.t ->
  plan
(** Defaults: {!Wa_sinr.Params.default}, mode-specific γ, sink 0, and
    the Euclidean MST ([tree_edges] overrides it with any spanning
    tree).  [engine] (default [`Indexed]) selects the conflict-graph
    construction — [`Indexed] runs the spatial length-class index with
    multicore fan-out, [`Dense] the reference O(n²) scan; both yield
    the same plan.

    [audit] (default [false]) runs the {!Wa_analysis.Audit} invariant
    auditor over the finished plan (span ["plan.audit"]): slot
    partition, per-slot SINR re-verification with a mode-appropriate
    power witness, tree rootedness, dense-vs-indexed conflict-graph
    agreement (thresholded modes only — this rebuilds both graphs, so
    expect O(n²) audit cost), and telemetry-report consistency.

    A plan never computes Lemma-1 pressure, a proof quantity it does not
    read: callers that want it (experiments, [plan --audit]) call
    {!Refinement.longer_pressure} on [agg.links] themselves. *)

val slots : plan -> int
val rate : plan -> float

val simulate : ?horizon_periods:int -> plan -> Simulator.result
(** Convenience: run the simulator for [horizon_periods] (default 50)
    schedule periods at full rate with trusted interference. *)

val describe : plan -> string
(** One-line summary: nodes, slots, rate, diversity, mode. *)
