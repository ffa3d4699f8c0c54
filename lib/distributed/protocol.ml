module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Length_class = Wa_sinr.Length_class
module Tree = Wa_graph.Tree
module Graph = Wa_graph.Graph
module Coloring = Wa_graph.Coloring
module Rng = Wa_util.Rng
module Agg_tree = Wa_core.Agg_tree
module Schedule = Wa_core.Schedule
module Greedy_schedule = Wa_core.Greedy_schedule

type msg =
  | Claim of { link : int; color : int }
  | Ack of { link : int; color : int }
  | Announce of { link : int; color : int }

type result = {
  rounds : int;
  phases : int;
  colors : int;
  unresolved : int;
  properness : float;
  schedule : Schedule.t;
  schedule_valid : bool;
  repair_added : int;
}

let color_of_msg = function
  | Claim { link; color } | Ack { link; color } | Announce { link; color } ->
      (link, color)

let run ?(seed = 42) ?(claim_probability = 0.5) ?(announce_rounds = 6)
    ?phase_round_cap ?gamma p agg mode =
  (match mode with
  | Greedy_schedule.Fixed_scheme _ ->
      invalid_arg "Protocol.run: protocol requires a geometric conflict graph"
  | Greedy_schedule.Global_power | Greedy_schedule.Oblivious_power _ -> ());
  let rng = Rng.create seed in
  let ls = agg.Agg_tree.links in
  let n_links = Linkset.size ls in
  let tree = agg.Agg_tree.tree in
  let radio = Radio.create ~params:p agg.Agg_tree.points in
  let sender = Array.make n_links (-1) and receiver = Array.make n_links (-1) in
  for i = 0 to n_links - 1 do
    let child = Option.get (Linkset.tree_child ls i) in
    sender.(i) <- child;
    receiver.(i) <- Option.get (Tree.parent tree child)
  done;
  (* link_of_sender.(v): the uplink v manages, or -1 for the sink. *)
  let n_nodes = Agg_tree.size agg in
  let link_of_sender = Array.make n_nodes (-1) in
  Array.iteri (fun i v -> link_of_sender.(v) <- i) sender;
  (* Per-node knowledge of colors in use, learned only from decoded
     messages. *)
  let heard = Array.init n_nodes (fun _ -> Hashtbl.create 8) in
  let record v m =
    let link, color = color_of_msg m in
    Hashtbl.replace heard.(v) link color
  in
  let final = Array.make n_links (-1) in
  (* The geometric conflict predicate is locally computable: an
     announcement identifies its link, and a node that knows its own
     link's endpoints can evaluate the distance threshold. *)
  let threshold = Option.get (Greedy_schedule.threshold_for ?gamma mode) in
  let conflicts a b = Wa_core.Conflict.conflicting p threshold ls a b in
  let colors_conflicting_with link known =
    Hashtbl.fold
      (fun l c acc -> if l <> link && conflicts link l then c :: acc else acc)
      known []
  in
  let classes = Length_class.partition ls in
  let lmin = Linkset.min_length ls in
  let phases = ref 0 in
  List.iter
    (fun (idx, class_links) ->
      incr phases;
      let class_power = (lmin *. (2.0 ** float_of_int (idx + 1))) ** p.Params.alpha in
      let cap =
        Option.value phase_round_cap
          ~default:(50 + (20 * List.length class_links))
      in
      let pending = ref (List.filter (fun i -> final.(i) = -1) class_links) in
      let phase_rounds = ref 0 in
      while (not (List.is_empty !pending)) && !phase_rounds < cap do
        (* ---- CLAIM round ------------------------------------------ *)
        let claims = Hashtbl.create 8 (* sender node -> (link, color) *) in
        List.iter
          (fun link ->
            if Rng.float rng 1.0 < claim_probability then begin
              let s = sender.(link) in
              (* Random color outside those used by heard links this
                 link actually conflicts with. *)
              let in_use = colors_conflicting_with link heard.(s) in
              let palette = (2 * List.length (List.sort_uniq Int.compare in_use)) + 4 in
              let rec pick tries =
                let c = Rng.int rng palette in
                if tries = 0 || not (List.mem c in_use) then c else pick (tries - 1)
              in
              Hashtbl.replace claims s (link, pick 16)
            end)
          !pending;
        let receptions =
          Radio.round radio (fun v ->
              match Hashtbl.find_opt claims v with
              | Some (link, color) ->
                  Radio.Transmit { power = class_power; payload = Claim { link; color } }
              | None -> Radio.Listen)
        in
        incr phase_rounds;
        (* Every decoded message informs its listener. *)
        Array.iteri
          (fun v r ->
            match r with
            | Radio.Received { payload; _ } -> record v payload
            | Radio.Collision | Radio.Silence -> ())
          receptions;
        (* ---- ACK round --------------------------------------------- *)
        let acks = Hashtbl.create 8 (* receiver node -> (link, color) *) in
        Array.iteri
          (fun v r ->
            match r with
            | Radio.Received { from; payload = Claim { link; color } }
              when receiver.(link) = v && sender.(link) = from
                   && not (Hashtbl.mem acks v) ->
                (* Accept unless the receiver knows the color is taken
                   by a conflicting link. *)
                let taken =
                  List.mem color (colors_conflicting_with link heard.(v))
                in
                if not taken then Hashtbl.replace acks v (link, color)
            | _ -> ())
          receptions;
        let ack_receptions =
          Radio.round radio (fun v ->
              match Hashtbl.find_opt acks v with
              | Some (link, color) ->
                  Radio.Transmit { power = class_power; payload = Ack { link; color } }
              | None -> Radio.Listen)
        in
        incr phase_rounds;
        let finalized_now = ref [] in
        Array.iteri
          (fun v r ->
            match r with
            | Radio.Received { payload = Ack { link; color } as m; from }
              when link_of_sender.(v) = link && receiver.(link) = from ->
                record v m;
                if final.(link) = -1 then begin
                  final.(link) <- color;
                  finalized_now := link :: !finalized_now
                end
            | Radio.Received { payload; _ } -> record v payload
            | Radio.Collision | Radio.Silence -> ())
          ack_receptions;
        pending := List.filter (fun i -> final.(i) = -1) !pending;
        (* ---- ANNOUNCE rounds --------------------------------------- *)
        if not (List.is_empty !finalized_now) then
          for _ = 1 to announce_rounds do
            let speak =
              List.filter (fun _ -> Rng.float rng 1.0 < 0.5) !finalized_now
            in
            let by_sender = Hashtbl.create 8 in
            List.iter (fun link -> Hashtbl.replace by_sender sender.(link) link) speak;
            let rs =
              Radio.round radio (fun v ->
                  match Hashtbl.find_opt by_sender v with
                  | Some link ->
                      Radio.Transmit
                        {
                          power = class_power;
                          payload = Announce { link; color = final.(link) };
                        }
                  | None -> Radio.Listen)
            in
            incr phase_rounds;
            Array.iteri
              (fun v r ->
                match r with
                | Radio.Received { payload; _ } -> record v payload
                | Radio.Collision | Radio.Silence -> ())
              rs
          done
      done)
    (Length_class.descending classes);
  (* Centrally finish anything a phase cap left behind. *)
  let graph = Wa_core.Conflict.graph p threshold ls in
  let unresolved = ref 0 in
  Array.iteri
    (fun i c ->
      if c = -1 then begin
        incr unresolved;
        let used =
          Graph.fold_neighbors
            (fun u acc -> if final.(u) >= 0 then final.(u) :: acc else acc)
            graph i []
        in
        let rec smallest c = if List.mem c used then smallest (c + 1) else c in
        final.(i) <- smallest 0
      end)
    final;
  (* Properness of the physically-learned coloring. *)
  let edges = ref 0 and proper = ref 0 in
  Graph.iter_edges
    (fun u v ->
      incr edges;
      if final.(u) <> final.(v) then incr proper)
    graph;
  let properness =
    if !edges = 0 then 1.0 else float_of_int !proper /. float_of_int !edges
  in
  (* Compact colors, then verify and repair into a sound schedule. *)
  let used = List.sort_uniq Int.compare (Array.to_list final) in
  let remap = List.mapi (fun i c -> (c, i)) used in
  let compact = Array.map (fun c -> List.assoc c remap) final in
  let coloring = { Coloring.colors = compact; classes = List.length used } in
  let power_mode =
    match mode with
    | Greedy_schedule.Global_power -> Schedule.Arbitrary
    | Greedy_schedule.Oblivious_power tau -> Schedule.Scheme (Wa_sinr.Power.Oblivious tau)
    | Greedy_schedule.Fixed_scheme s -> Schedule.Scheme s
  in
  let sched = Schedule.of_coloring coloring power_mode in
  let sched, repair_added, schedule_valid = Schedule.repair_validated p ls sched in
  {
    rounds = Radio.rounds_used radio;
    phases = !phases;
    colors = List.length used;
    unresolved = !unresolved;
    properness;
    schedule = sched;
    schedule_valid;
    repair_added;
  }
