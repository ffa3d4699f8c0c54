module Json = Wa_util.Json
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Pipeline = Wa_core.Pipeline
module Agg_tree = Wa_core.Agg_tree
module Schedule = Wa_core.Schedule
module Tree = Wa_graph.Tree

let schedule_to_json ls (sched : Schedule.t) =
  let slot_json slot = Json.List (List.map (fun i -> Json.Int i) slot) in
  Json.Obj
    [
      ("slots", Json.List (Array.to_list (Array.map slot_json sched.Schedule.slots)));
      ("length", Json.Int (Schedule.length sched));
      ("rate", Json.Float (Schedule.rate sched));
      ( "power_mode",
        Json.String
          (match sched.Schedule.power_mode with
          | Schedule.Arbitrary -> "arbitrary"
          | Schedule.Scheme s -> Power.describe s) );
      ("links", Json.Int (Linkset.size ls));
    ]

let plan_to_json (plan : Pipeline.plan) =
  let agg = plan.Pipeline.agg in
  let ps = agg.Agg_tree.points in
  let nodes =
    Json.List
      (List.init (Pointset.size ps) (fun i ->
           let pt = Pointset.get ps i in
           Json.Obj
             [
               ("id", Json.Int i);
               ("x", Json.Float pt.Vec2.x);
               ("y", Json.Float pt.Vec2.y);
             ]))
  in
  let links =
    Json.List
      (Linkset.fold
         (fun i _ acc ->
           let child = Option.get (Linkset.tree_child agg.Agg_tree.links i) in
           let parent = Option.get (Tree.parent agg.Agg_tree.tree child) in
           Json.Obj
             [
               ("id", Json.Int i);
               ("from", Json.Int child);
               ("to", Json.Int parent);
               ("length", Json.Float (Linkset.length agg.Agg_tree.links i));
               ("slot", Json.Int (Schedule.slot_of_link plan.Pipeline.schedule i));
             ]
           :: acc)
         agg.Agg_tree.links []
      |> List.rev)
  in
  Json.Obj
    [
      ("nodes", nodes);
      ("sink", Json.Int (Tree.sink agg.Agg_tree.tree));
      ("links", links);
      ("schedule", schedule_to_json agg.Agg_tree.links plan.Pipeline.schedule);
      ("valid", Json.Bool plan.Pipeline.valid);
      ("raw_colors", Json.Int plan.Pipeline.raw_colors);
      ("repair_added", Json.Int plan.Pipeline.repair_added);
      ("link_diversity", Json.Float plan.Pipeline.link_diversity);
      ("point_diversity", Json.Float plan.Pipeline.point_diversity);
    ]

(* A qualitative palette for slot colors; cycles past 12 slots. *)
let slot_colors =
  [|
    "#1f77b4"; "#ff7f0e"; "#2ca02c"; "#d62728"; "#9467bd"; "#8c564b";
    "#e377c2"; "#7f7f7f"; "#bcbd22"; "#17becf"; "#aec7e8"; "#ffbb78";
  |]

let plan_to_dot (plan : Pipeline.plan) =
  let agg = plan.Pipeline.agg in
  let ps = agg.Agg_tree.points in
  let sink = Tree.sink agg.Agg_tree.tree in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph aggregation {\n";
  Buffer.add_string buf "  // render with: neato -n2 -Tsvg plan.dot -o plan.svg\n";
  Buffer.add_string buf "  node [shape=circle, width=0.25, fixedsize=true, fontsize=8];\n";
  (* Scale coordinates into a points-based canvas. *)
  let box = Pointset.bbox ps in
  let span =
    Float.max 1e-9
      (Float.max (Wa_geom.Bbox.width box) (Wa_geom.Bbox.height box))
  in
  let scale = 600.0 /. span in
  for v = 0 to Pointset.size ps - 1 do
    let pt = Pointset.get ps v in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [pos=\"%.1f,%.1f\"%s];\n" v
         ((pt.Vec2.x -. box.Wa_geom.Bbox.min_x) *. scale)
         ((pt.Vec2.y -. box.Wa_geom.Bbox.min_y) *. scale)
         (if v = sink then ", shape=doublecircle, style=filled, fillcolor=gold"
          else ""))
  done;
  Linkset.iter
    (fun i _ ->
      let child = Option.get (Linkset.tree_child agg.Agg_tree.links i) in
      let parent = Option.get (Tree.parent agg.Agg_tree.tree child) in
      let slot = Schedule.slot_of_link plan.Pipeline.schedule i in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [color=\"%s\", label=\"%d\", fontsize=7];\n"
           child parent
           slot_colors.(slot mod Array.length slot_colors)
           slot))
    agg.Agg_tree.links;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_string path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
