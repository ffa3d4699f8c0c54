module Params = Wa_sinr.Params
module Power = Wa_sinr.Power
module Linkset = Wa_sinr.Linkset
module Pointset = Wa_geom.Pointset

type power_mode =
  [ `Global | `Oblivious of float | `Uniform | `Linear ]

type plan = {
  agg : Agg_tree.t;
  mode : Greedy_schedule.mode;
  schedule : Schedule.t;
  raw_colors : int;
  repair_added : int;
  point_diversity : float;
  link_diversity : float;
  valid : bool;
  audit : Wa_analysis.Audit.report option;
}

let mode_of = function
  | `Global -> Greedy_schedule.Global_power
  | `Oblivious tau -> Greedy_schedule.Oblivious_power tau
  | `Uniform -> Greedy_schedule.Fixed_scheme Power.Uniform
  | `Linear -> Greedy_schedule.Fixed_scheme Power.Linear

module Trace = Wa_obs.Trace
module Metrics = Wa_obs.Metrics

let m_slots_raw = Metrics.gauge "schedule.slots_raw"
let m_slots_final = Metrics.gauge "schedule.slots_final"
let m_links = Metrics.gauge "plan.links"
let m_link_diversity = Metrics.gauge "plan.link_diversity"

module Audit = Wa_analysis.Audit

(* Independent re-derivation of the plan's invariants (see
   Wa_analysis.Audit).  The SINR witness mirrors the schedule's power
   mode: a fixed scheme is its own witness; in the arbitrary-power
   regime each slot's witness is a freshly solved Custom vector. *)
let audit_plan ?gamma ~params ~mode agg (schedule : Schedule.t) =
  let ls = agg.Agg_tree.links in
  let power_of_slot =
    match schedule.Schedule.power_mode with
    | Schedule.Scheme s -> fun _ -> Some s
    | Schedule.Arbitrary ->
        fun slot ->
          Option.map
            (fun v -> Power.Custom v)
            (Wa_sinr.Power_solver.solve params ls slot)
              .Wa_sinr.Power_solver.power
  in
  let engine_checks =
    match Greedy_schedule.threshold_for ?gamma mode with
    | None -> []
    | Some th ->
        [
          Audit.graph_symmetry_check
            ~reference:(fun () -> Conflict.graph_dense params th ls)
            ~candidate:(fun () -> Conflict.graph_indexed params th ls);
        ]
  in
  Audit.run_checks
    ([
       Audit.partition_check ~n_links:(Linkset.size ls)
         ~slots:schedule.Schedule.slots;
       Audit.sinr_check params ls ~power_of_slot
         ~slots:schedule.Schedule.slots;
       Audit.tree_check agg.Agg_tree.tree;
     ]
    @ engine_checks
    @ [ Audit.report_consistency_check (fun () -> Wa_obs.Report.capture ()) ])

let plan ?(params = Params.default) ?gamma ?(engine = `Indexed) ?(sink = 0)
    ?tree_edges ?(audit = false) power_mode ps =
  Trace.with_span "pipeline.plan" @@ fun () ->
  let agg =
    Trace.with_span "plan.mst" @@ fun () ->
    match tree_edges with
    | None -> Agg_tree.mst ~sink ps
    | Some edges -> Agg_tree.of_edges ~sink ps edges
  in
  let mode = mode_of power_mode in
  let ls = agg.Agg_tree.links in
  (* Build the spatial index as its own stage so its cost shows in the
     stage timings.  Fixed schemes have no geometric threshold to
     index. *)
  let index =
    match (engine, Greedy_schedule.threshold_for ?gamma mode) with
    | `Indexed, Some _ ->
        Trace.with_span "plan.index" (fun () ->
            Some (Wa_sinr.Link_index.build ls))
    | _ -> None
  in
  let graph =
    Trace.with_span "plan.conflict" @@ fun () ->
    Greedy_schedule.conflict_graph ?gamma ~engine ?index params ls mode
  in
  let coloring =
    Trace.with_span "plan.color" @@ fun () ->
    Wa_graph.Coloring.greedy ~order:(Linkset.by_decreasing_length ls) graph
  in
  let raw =
    Schedule.of_coloring coloring
      (match mode with
      | Greedy_schedule.Global_power -> Schedule.Arbitrary
      | Greedy_schedule.Oblivious_power tau -> Schedule.Scheme (Power.Oblivious tau)
      | Greedy_schedule.Fixed_scheme s -> Schedule.Scheme s)
  in
  let schedule, repair_added, valid =
    Trace.with_span "plan.validate" @@ fun () ->
    (* Fused repair + validation: one solver pass per slot (see
       [Schedule.repair_validated]) instead of repair followed by a
       full [is_valid] re-sweep. *)
    Schedule.repair_validated params ls raw
  in
  Metrics.set m_slots_raw (float_of_int (Schedule.length raw));
  Metrics.set m_slots_final (float_of_int (Schedule.length schedule));
  Metrics.set m_links (float_of_int (Linkset.size ls));
  let link_diversity = Linkset.diversity ls in
  Metrics.set m_link_diversity link_diversity;
  let point_diversity =
    Trace.with_span "plan.diversity" @@ fun () ->
    match tree_edges with
    | None ->
        (* The links are a Euclidean MST, and every MST's minimum edge
           weight equals the closest-pair distance (exchange argument),
           computed by the same [Vec2.dist] — so Δ comes from the hull
           diameter over the cached minimum link length, skipping the
           grid-based closest-pair search.  Bit-identical to
           [Pointset.diversity]. *)
        Pointset.max_pairwise_distance ps /. Linkset.min_length ls
    | Some _ -> Pointset.diversity ps
  in
  let audit =
    if audit then
      Some
        (Trace.with_span "plan.audit" (fun () ->
             audit_plan ?gamma ~params ~mode agg schedule))
    else None
  in
  {
    agg;
    mode;
    schedule;
    raw_colors = Schedule.length raw;
    repair_added;
    point_diversity;
    link_diversity;
    valid;
    audit;
  }

let slots p = Schedule.length p.schedule
let rate p = Schedule.rate p.schedule

let simulate ?(horizon_periods = 50) p =
  let horizon = horizon_periods * slots p in
  Simulator.run p.agg p.schedule (Simulator.config ~horizon p.schedule)

let describe p =
  Printf.sprintf
    "%d nodes, %d links, %d slots (rate %.4f), link diversity %.3g, %s%s"
    (Agg_tree.size p.agg) (Agg_tree.link_count p.agg) (slots p) (rate p)
    p.link_diversity
    (match p.mode with
    | Greedy_schedule.Global_power -> "global power"
    | Greedy_schedule.Oblivious_power tau -> Printf.sprintf "P_tau (tau=%g)" tau
    | Greedy_schedule.Fixed_scheme s -> Power.describe s)
    (if p.valid then "" else " [INVALID]")
