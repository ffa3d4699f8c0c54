module Params = Wa_sinr.Params
module Vec2 = Wa_geom.Vec2
module Pointset = Wa_geom.Pointset
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Tree = Wa_graph.Tree
module Graph = Wa_graph.Graph

type node_id = int

type stats = {
  links_total : int;
  links_kept : int;
  links_recolored : int;
  slots : int;
  recompute_slots : int;
}

type t = {
  params : Params.t;
  gamma : float option;
  mode : Pipeline.power_mode;
  mutable nodes : (node_id * Vec2.t) list;  (* insertion order, sink first *)
  mutable next_id : int;
  mutable slot_of : ((node_id * node_id) * int) list;  (* directed link -> slot *)
  mutable last_schedule_valid : bool;
  mutable last_slots : int;
}

let create ?(params = Params.default) ?gamma ~sink mode =
  {
    params;
    gamma;
    mode;
    nodes = [ (0, sink) ];
    next_id = 1;
    slot_of = [];
    last_schedule_valid = true;
    last_slots = 0;
  }

let size t = List.length t.nodes

let node_ids t = List.map fst t.nodes

let pointset t = Pointset.of_array (Array.of_list (List.map snd t.nodes))

let sink_index t =
  let rec go i = function
    | (0, _) :: _ -> i
    | _ :: rest -> go (i + 1) rest
    | [] -> assert false
  in
  go 0 t.nodes

let greedy_mode t =
  match t.mode with
  | `Global -> Greedy_schedule.Global_power
  | `Oblivious tau -> Greedy_schedule.Oblivious_power tau
  | `Uniform -> Greedy_schedule.Fixed_scheme Power.Uniform
  | `Linear -> Greedy_schedule.Fixed_scheme Power.Linear

let power_mode t =
  match greedy_mode t with
  | Greedy_schedule.Global_power -> Schedule.Arbitrary
  | Greedy_schedule.Oblivious_power tau -> Schedule.Scheme (Power.Oblivious tau)
  | Greedy_schedule.Fixed_scheme s -> Schedule.Scheme s

(* Rebuild MST and schedule after a topology change, keeping surviving
   links on their previous slots whenever the new conflict structure
   allows it. *)
let rebuild t =
  if size t < 2 then begin
    t.slot_of <- [];
    t.last_slots <- 0;
    t.last_schedule_valid <- true;
    {
      links_total = 0;
      links_kept = 0;
      links_recolored = 0;
      slots = 0;
      recompute_slots = 0;
    }
  end
  else begin
    let ids = Array.of_list (List.map fst t.nodes) in
    let ps = pointset t in
    let agg = Agg_tree.mst ~sink:(sink_index t) ps in
    let ls = agg.Agg_tree.links in
    let n = Linkset.size ls in
    let key_of_link i =
      let child = Option.get (Linkset.tree_child ls i) in
      let parent = Option.get (Tree.parent agg.Agg_tree.tree child) in
      (ids.(child), ids.(parent))
    in
    let graph = Greedy_schedule.conflict_graph ?gamma:t.gamma t.params ls (greedy_mode t) in
    let colors = Array.make n (-1) in
    let order = Linkset.by_decreasing_length ls in
    let neighbor_has i c =
      Graph.fold_neighbors (fun u acc -> acc || colors.(u) = c) graph i false
    in
    (* Pass 1: surviving links try to keep their previous slot. *)
    let kept = ref 0 in
    Array.iter
      (fun i ->
        match List.assoc_opt (key_of_link i) t.slot_of with
        | Some previous when not (neighbor_has i previous) ->
            colors.(i) <- previous;
            incr kept
        | Some _ | None -> ())
      order;
    (* Pass 2: everything else first-fits around the kept colors. *)
    let recolored = ref 0 in
    Array.iter
      (fun i ->
        if colors.(i) = -1 then begin
          incr recolored;
          let c = ref 0 in
          while neighbor_has i !c do
            incr c
          done;
          colors.(i) <- !c
        end)
      order;
    (* Compact color ids and build the schedule. *)
    let used = List.sort_uniq Int.compare (Array.to_list colors) in
    let remap = List.mapi (fun idx c -> (c, idx)) used in
    let slots = Array.make (List.length used) [] in
    Array.iteri
      (fun i c ->
        let slot = List.assoc c remap in
        slots.(slot) <- i :: slots.(slot))
      colors;
    let sched =
      Schedule.of_slots (Array.to_list (Array.map (List.sort Int.compare) slots))
        (power_mode t)
    in
    let sched, _, valid = Schedule.repair_validated t.params ls sched in
    t.last_schedule_valid <- valid;
    t.last_slots <- Schedule.length sched;
    (* Persist the slot map for the next change. *)
    t.slot_of <-
      List.init n (fun i -> (key_of_link i, Schedule.slot_of_link sched i));
    let fresh = Pipeline.plan ~params:t.params ?gamma:t.gamma ~sink:(sink_index t) t.mode ps in
    {
      links_total = n;
      links_kept = !kept;
      links_recolored = !recolored;
      slots = Schedule.length sched;
      recompute_slots = Pipeline.slots fresh;
    }
  end

let add_node t position =
  if List.exists (fun (_, q) -> Vec2.equal q position) t.nodes then
    invalid_arg "Dynamic.add_node: coincident node";
  let id = t.next_id in
  t.next_id <- id + 1;
  t.nodes <- t.nodes @ [ (id, position) ];
  (id, rebuild t)

let remove_node t id =
  if id = 0 then invalid_arg "Dynamic.remove_node: cannot remove the sink";
  if not (List.mem_assoc id t.nodes) then raise Not_found;
  t.nodes <- List.filter (fun (i, _) -> i <> id) t.nodes;
  rebuild t

let schedule_valid t = t.last_schedule_valid

let current_slots t = t.last_slots

let plan_now t =
  Pipeline.plan ~params:t.params ?gamma:t.gamma ~sink:(sink_index t) t.mode
    (pointset t)
