(** Plan/schedule exporters: JSON for programmatic consumers, Graphviz
    DOT for visual inspection of trees and schedules. *)

val plan_to_json : Wa_core.Pipeline.plan -> Wa_util.Json.t
(** Nodes, tree edges, per-slot link lists, power mode, rate,
    diversity, validation status — everything a downstream consumer
    needs to operate the schedule. *)

val plan_to_dot : Wa_core.Pipeline.plan -> string
(** A Graphviz digraph of the aggregation tree: nodes placed at their
    coordinates ([pos] attributes), links colored by slot, the sink
    double-circled.  Render with [neato -n2 -Tsvg]. *)

val schedule_to_json :
  Wa_sinr.Linkset.t -> Wa_core.Schedule.t -> Wa_util.Json.t

val write_string : string -> string -> unit
(** [write_string path content]. *)
