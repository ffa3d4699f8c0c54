module Tree = Wa_graph.Tree
module Linkset = Wa_sinr.Linkset
module Feasibility = Wa_sinr.Feasibility
module Power = Wa_sinr.Power
module Params = Wa_sinr.Params
module Rng = Wa_util.Rng

type interference =
  | Trusted
  | Conflict_oracle of (int -> int -> bool)
  | Sinr of Params.t * Power.scheme
  | Rayleigh of {
      params : Params.t;
      power : Power.scheme;
      seed : int;
    }

type violation_policy = Count | Drop

type aggregation = {
  name : string;
  identity : int;
  combine : int -> int -> int;
}

let sum = { name = "sum"; identity = 0; combine = ( + ) }
let max_agg = { name = "max"; identity = min_int; combine = max }
let min_agg = { name = "min"; identity = max_int; combine = min }

let count_above threshold =
  {
    name = Printf.sprintf "count(> %d)" threshold;
    identity = 0;
    combine = ( + );
  }

let reading ~node ~frame = ((node + 1) * 1009) + (frame * 7919)

type config = {
  horizon : int;
  gen_period : int;
  interference : interference;
  policy : violation_policy;
  aggregation : aggregation;
  reading : node:int -> frame:int -> int;
}

let config_for_period ?(interference = Trusted) ?(policy = Count)
    ?(aggregation = sum) ?reading:(rd = reading) ?gen_period ~horizon period =
  let gen_period = Option.value gen_period ~default:period in
  { horizon; gen_period; interference; policy; aggregation; reading = rd }

let config ?interference ?policy ?aggregation ?reading ?gen_period ~horizon sched
    =
  config_for_period ?interference ?policy ?aggregation ?reading ?gen_period
    ~horizon (Schedule.length sched)

type result = {
  frames_generated : int;
  frames_delivered : int;
  achieved_rate : float;
  steady_rate : float;
  latencies : int array;
  mean_latency : float;
  max_latency : int;
  max_buffer : int;
  aggregates_correct : bool;
  delivered_values : (int * int) list;
  violations : int;
  idle_slots : int;
  transmissions : int array;
}

let energy p ls ~power result =
  let vec = Power.vector p ls power in
  let total = ref 0.0 in
  Array.iteri
    (fun i count -> total := !total +. (float_of_int count *. vec.(i)))
    result.transmissions;
  !total

let true_aggregate ?(aggregation = sum) ?reading:(rd = reading) agg ~frame =
  let n = Agg_tree.size agg in
  let total = ref aggregation.identity in
  for v = 0 to n - 1 do
    total := aggregation.combine !total (rd ~node:v ~frame)
  done;
  !total

(* A candidate transmission in the current slot. *)
type attempt = {
  link : int;
  sender : int;
  parent : int;
  frame : int;
  value : int;
}

(* Exponential(1) fading coefficient. *)
let fading_sample rng =
  let u = Float.max 1e-12 (Rng.float rng 1.0) in
  -.log u

(* Per-slot failure detection on the actually-transmitting set. *)
let failing_attempts cfg ls fading_rng attempts =
  match cfg.interference with
  | Trusted -> []
  | Conflict_oracle oracle ->
      List.filter
        (fun a ->
          List.exists (fun b -> a.link <> b.link && oracle a.link b.link) attempts)
        attempts
  | Sinr (p, scheme) ->
      let ids = List.map (fun a -> a.link) attempts in
      let vec = Power.vector p ls scheme in
      List.filter
        (fun a ->
          Feasibility.sinr p ls ~power:vec ~concurrent:ids a.link < p.Params.beta)
        attempts
  | Rayleigh { params = p; power = scheme; seed = _ } ->
      let rng = Option.get fading_rng in
      let vec = Power.vector p ls scheme in
      (* Draw one fading coefficient per (transmitter, receiver) pair
         active in this slot, in a deterministic order. *)
      let faded_sinr receiver_attempt =
        let i = receiver_attempt.link in
        let signal_fade = fading_sample rng in
        let signal =
          signal_fade *. vec.(i) /. (Linkset.length ls i ** p.Params.alpha)
        in
        let interference =
          List.fold_left
            (fun acc b ->
              if b.link = i then acc
              else
                let d = Linkset.sender_to_receiver ls b.link i in
                let fade = fading_sample rng in
                acc +. (fade *. vec.(b.link) /. (d ** p.Params.alpha)))
            0.0 attempts
        in
        let denom = interference +. p.Params.noise in
        if Float.equal denom 0.0 then infinity else signal /. denom
      in
      List.filter (fun a -> faded_sinr a < p.Params.beta) attempts

(* Telemetry series (handles resolved once at module init; every
   update below is a no-op while telemetry is disabled). *)
let m_delivered = Wa_obs.Metrics.counter "sim.frames_delivered"
let m_violations = Wa_obs.Metrics.counter "sim.violations"
let m_idle = Wa_obs.Metrics.counter "sim.idle_slots"
let m_latency = Wa_obs.Metrics.histogram "sim.latency_slots"
let m_period_deliveries = Wa_obs.Metrics.histogram "sim.period_deliveries"
let m_period_buffer = Wa_obs.Metrics.histogram "sim.period_max_buffer"
let m_max_buffer = Wa_obs.Metrics.gauge "sim.max_buffer"

let run_slots agg ~slots cfg =
  if cfg.horizon <= 0 then invalid_arg "Simulator.run: horizon must be positive";
  if cfg.gen_period <= 0 then invalid_arg "Simulator.run: gen_period must be positive";
  Wa_obs.Trace.with_span "simulate.run" @@ fun () ->
  let ls = agg.Agg_tree.links in
  let tree = agg.Agg_tree.tree in
  let n = Agg_tree.size agg in
  let sink = Tree.sink tree in
  let period = Array.length slots in
  if period = 0 then invalid_arg "Simulator.run: empty schedule";
  let n_frames = (cfg.horizon / cfg.gen_period) + 1 in
  let child_count = Array.init n (fun v -> List.length (Tree.children tree v)) in
  (* Per node and frame: contributions received from children. *)
  let recv_count = Array.make_matrix n n_frames 0 in
  let recv_acc = Array.make_matrix n n_frames cfg.aggregation.identity in
  (* Next frame each non-sink node will forward. *)
  let next_send = Array.make n 0 in
  let sender_of = Array.make (Linkset.size ls) (-1) in
  for i = 0 to Linkset.size ls - 1 do
    match Linkset.tree_child ls i with
    | Some c -> sender_of.(i) <- c
    | None -> invalid_arg "Simulator.run: linkset was not built from a tree"
  done;
  let fading_rng =
    match cfg.interference with
    | Rayleigh { seed; _ } -> Some (Rng.create seed)
    | Trusted | Conflict_oracle _ | Sinr _ -> None
  in
  let transmissions = Array.make (Linkset.size ls) 0 in
  let deliveries = ref [] in
  let delivered = ref 0 in
  let next_delivery = ref 0 in
  let violations = ref 0 in
  let idle = ref 0 in
  let max_buffer = ref 0 in
  let correct = ref true in
  (* Per-period telemetry (deliveries and peak queue depth within each
     schedule period) — only tracked while the sink is enabled.  The
     branch skips recording work only; the simulation is the same. *)
  let obs = (Wa_obs.enabled [@wa.lint.allow "obs-scope"]) () in
  let period_start_delivered = ref 0 in
  let period_buffer = ref 0 in
  let complete v f = f < n_frames && recv_count.(v).(f) = child_count.(v) in
  for t = 0 to cfg.horizon - 1 do
    let active_links = slots.(t mod period) in
    (* Collect attempts: each active sender offers its oldest complete
       pending frame. *)
    let attempts =
      List.filter_map
        (fun link ->
          let v = sender_of.(link) in
          let f = next_send.(v) in
          if f < n_frames && f * cfg.gen_period <= t && complete v f then
            Some
              {
                link;
                sender = v;
                parent =
                  (match Tree.parent tree v with
                  | Some parent -> parent
                  | None -> assert false);
                frame = f;
                value =
                  cfg.aggregation.combine
                    (cfg.reading ~node:v ~frame:f)
                    recv_acc.(v).(f);
              }
          else begin
            incr idle;
            None
          end)
        active_links
    in
    List.iter (fun a -> transmissions.(a.link) <- transmissions.(a.link) + 1) attempts;
    let failing = failing_attempts cfg ls fading_rng attempts in
    violations := !violations + List.length failing;
    let successful =
      match cfg.policy with
      | Count -> attempts
      | Drop -> List.filter (fun a -> not (List.memq a failing)) attempts
    in
    (* Apply arrivals at the end of the slot. *)
    List.iter
      (fun a ->
        recv_count.(a.parent).(a.frame) <- recv_count.(a.parent).(a.frame) + 1;
        recv_acc.(a.parent).(a.frame) <-
          cfg.aggregation.combine recv_acc.(a.parent).(a.frame) a.value;
        next_send.(a.sender) <- a.frame + 1)
      successful;
    (* Deliveries at the sink (frames complete in order). *)
    let rec drain () =
      let f = !next_delivery in
      if f < n_frames && f * cfg.gen_period <= t && complete sink f then begin
        let value =
          cfg.aggregation.combine (cfg.reading ~node:sink ~frame:f) recv_acc.(sink).(f)
        in
        if
          value
          <> true_aggregate ~aggregation:cfg.aggregation ~reading:cfg.reading agg
               ~frame:f
        then correct := false;
        deliveries := (f, t + 1 - (f * cfg.gen_period), t, value) :: !deliveries;
        incr delivered;
        incr next_delivery;
        drain ()
      end
    in
    drain ();
    (* Buffer occupancy: generated-but-not-forwarded frames per node. *)
    let generated_so_far = min n_frames ((t / cfg.gen_period) + 1) in
    let slot_buffer = ref 0 in
    for v = 0 to n - 1 do
      if v <> sink then
        slot_buffer := max !slot_buffer (generated_so_far - next_send.(v))
    done;
    max_buffer := max !max_buffer !slot_buffer;
    if obs then begin
      period_buffer := max !period_buffer !slot_buffer;
      if (t + 1) mod period = 0 then begin
        Wa_obs.Metrics.observe m_period_deliveries
          (float_of_int (!delivered - !period_start_delivered));
        Wa_obs.Metrics.observe m_period_buffer (float_of_int !period_buffer);
        period_start_delivered := !delivered;
        period_buffer := 0
      end
    end
  done;
  let deliveries = List.rev !deliveries in
  let latencies = Array.of_list (List.map (fun (_, l, _, _) -> l) deliveries) in
  if obs then begin
    Wa_obs.Metrics.add m_delivered !delivered;
    Wa_obs.Metrics.add m_violations !violations;
    Wa_obs.Metrics.add m_idle !idle;
    Wa_obs.Metrics.set_max m_max_buffer (float_of_int !max_buffer);
    Array.iter
      (fun l -> Wa_obs.Metrics.observe m_latency (float_of_int l))
      latencies
  end;
  let steady_rate =
    match (deliveries, List.rev deliveries) with
    | (_, _, t_first, _) :: _, (_, _, t_last, _) :: _ when t_last > t_first ->
        float_of_int (!delivered - 1) /. float_of_int (t_last - t_first)
    | _ -> 0.0
  in
  let frames_generated = min n_frames (((cfg.horizon - 1) / cfg.gen_period) + 1) in
  {
    frames_generated;
    frames_delivered = !delivered;
    achieved_rate = float_of_int !delivered /. float_of_int cfg.horizon;
    steady_rate;
    latencies;
    mean_latency =
      (if !delivered = 0 then nan
       else
         float_of_int (Array.fold_left ( + ) 0 latencies)
         /. float_of_int !delivered);
    max_latency = Array.fold_left max 0 latencies;
    max_buffer = !max_buffer;
    aggregates_correct = !correct;
    delivered_values = List.map (fun (f, _, _, v) -> (f, v)) deliveries;
    violations = !violations;
    idle_slots = !idle;
    transmissions;
  }

let run agg sched cfg =
  if not (Schedule.covers sched agg.Agg_tree.links) then
    invalid_arg "Simulator.run: schedule does not partition the tree links";
  run_slots agg ~slots:sched.Schedule.slots cfg

let run_periodic agg (p : Periodic.t) cfg =
  if not (Periodic.covers p agg.Agg_tree.links) then
    invalid_arg "Simulator.run: schedule does not partition the tree links";
  run_slots agg ~slots:p.Periodic.slots cfg
