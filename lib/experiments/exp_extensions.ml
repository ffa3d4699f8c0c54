module Table = Wa_util.Table
module Rng = Wa_util.Rng
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Coloring = Wa_graph.Coloring
module Agg_tree = Wa_core.Agg_tree
module Schedule = Wa_core.Schedule
module Periodic = Wa_core.Periodic
module Simulator = Wa_core.Simulator
module Pipeline = Wa_core.Pipeline
module Greedy_schedule = Wa_core.Greedy_schedule
module K_connectivity = Wa_core.K_connectivity
module Refinement = Wa_core.Refinement
module Functions = Wa_core.Functions
module Random_deploy = Wa_instances.Random_deploy

let p = Exp_common.params

(* ------------------------------------------------------------------- F5 *)

let f5_multicoloring ~quick =
  let t =
    Table.create ~title:"F5: multicoloring beats coloring (Sec.4, the 5-cycle)"
      ~notes:
        [
          "paper: proper edge-colorings of C5 need 3 colors (rate 1/3), but the";
          "  periodic sequence 13,24,14,25,35 achieves rate 2/5;";
          "the simulated row drives a period-5 multicoloring of a 5-link chain";
          "  end-to-end (graph interference) and measures the sink rate";
        ]
      [ "object"; "coloring rate"; "multicolor rate"; "simulated rate" ]
  in
  let coloring_rate, multi_rate = Periodic.five_cycle_rates () in
  Table.add_row t
    [
      "abstract C5";
      Printf.sprintf "%.4f" coloring_rate;
      Printf.sprintf "%.4f" multi_rate;
      "-";
    ];
  (* An aggregation realization: a 5-link chain carrying the C5
     conflict structure (links i, j interfere iff cyclically adjacent
     — the paper notes the example maps into the SINR model with
     beta = 1; here the conflict oracle abstraction carries it).  Both
     schedules are over-driven at one frame per 2 slots so the sink
     rate reveals each schedule's true capacity. *)
  let n = 6 in
  let pts =
    Pointset.of_array (Array.init n (fun i -> Vec2.make (float_of_int i *. 10.0) 0.0))
  in
  let agg = Agg_tree.mst ~sink:0 pts in
  let ls = agg.Agg_tree.links in
  let oracle i j = (i + 1) mod 5 = j || (j + 1) mod 5 = i in
  let simulate slots =
    let periodic = Periodic.make slots (Schedule.Scheme Power.Uniform) in
    let horizon = (if quick then 100 else 1000) * Periodic.period periodic in
    let cfg =
      Simulator.config_for_period
        ~interference:(Simulator.Conflict_oracle oracle)
        ~policy:Simulator.Drop ~gen_period:2 ~horizon
        (Periodic.period periodic)
    in
    let r = Simulator.run_periodic agg periodic cfg in
    (Periodic.rate periodic ls, r)
  in
  (* Proper 3-coloring of C5's edges vs the paper's period-5
     multicoloring. *)
  let color_rate, color_run = simulate [ [ 0; 2 ]; [ 1; 3 ]; [ 4 ] ] in
  let multi_rate2, multi_run =
    simulate [ [ 0; 2 ]; [ 1; 3 ]; [ 0; 3 ]; [ 1; 4 ]; [ 2; 4 ] ]
  in
  Table.add_row t
    [
      "5-link chain, 3-coloring";
      Printf.sprintf "%.4f" color_rate;
      "-";
      Printf.sprintf "%.4f (violations %d)" color_run.Simulator.steady_rate
        color_run.Simulator.violations;
    ];
  Table.add_row t
    [
      "5-link chain, multicolor";
      "-";
      Printf.sprintf "%.4f" multi_rate2;
      Printf.sprintf "%.4f (violations %d)" multi_run.Simulator.steady_rate
        multi_run.Simulator.violations;
    ];
  t

(* ------------------------------------------------------------------ T10 *)

let t10_fading ~quick =
  let t =
    Table.create ~title:"T10: Rayleigh fading with ack/retransmission (Sec.3.1)"
      ~notes:
        [
          "per-slot exponential fading on every signal and interference term;";
          "failed receptions are retransmitted at the sender's next slot;";
          "paper (citing Dams et al.): the impact of fading is minor";
        ]
      [ "n"; "mode"; "slots"; "loss rate"; "clean rate"; "faded rate"; "rate ratio";
        "correct" ]
  in
  let n = if quick then 40 else 120 in
  let ps = Exp_common.square ~seed:31 ~n in
  List.iter
    (fun (label, mode, scheme) ->
      let plan = Pipeline.plan ~params:p mode ps in
      let sched = plan.Pipeline.schedule in
      let slots = Schedule.length sched in
      let horizon = (if quick then 60 else 200) * slots in
      (* Clean run. *)
      let clean =
        Simulator.run plan.Pipeline.agg sched (Simulator.config ~horizon sched)
      in
      (* Faded run with retransmissions; frames keep their order. *)
      let scheme =
        match scheme with
        | Some s -> s
        | None -> (
            match Schedule.witness_power p plan.Pipeline.agg.Agg_tree.links sched with
            | Some s -> s
            | None -> failwith "T10: no witness power")
      in
      let faded =
        Simulator.run plan.Pipeline.agg sched
          (Simulator.config
             ~interference:(Simulator.Rayleigh { params = p; power = scheme; seed = 7 })
             ~policy:Simulator.Drop ~horizon sched)
      in
      let loss =
        float_of_int faded.Simulator.violations /. float_of_int horizon
      in
      Table.add_row t
        [
          string_of_int n;
          label;
          string_of_int slots;
          Printf.sprintf "%.3f/slot" loss;
          Printf.sprintf "%.4f" clean.Simulator.steady_rate;
          Printf.sprintf "%.4f" faded.Simulator.steady_rate;
          Printf.sprintf "%.2f"
            (faded.Simulator.steady_rate /. clean.Simulator.steady_rate);
          (if faded.Simulator.aggregates_correct then "yes" else "NO");
        ])
    [
      ("obl(.5)", `Oblivious 0.5, Some (Power.Oblivious 0.5));
      ("global", `Global, None);
    ];
  t

(* ------------------------------------------------------------------ T11 *)

let t11_power_limit ~quick =
  let n = if quick then 60 else 150 in
  let ps = Exp_common.square ~seed:41 ~n in
  let threshold = Agg_tree.connectivity_threshold ps in
  let t =
    Table.create ~title:"T11: power-limited networks (Sec.3.1)"
      ~notes:
        [
          Printf.sprintf "connectivity threshold (longest MST edge): %.1f" threshold;
          "below range factor 1.0 the reduced graph disconnects (noise-limited);";
          "above it, the bounded MST coincides with the MST and slots are stable";
        ]
      [ "range factor"; "max link"; "tree"; "slots (global)"; "depth" ]
  in
  List.iter
    (fun factor ->
      let max_link = factor *. threshold in
      match Agg_tree.mst_bounded ~max_link ps with
      | agg ->
          let sched, _ = Greedy_schedule.schedule p agg.Agg_tree.links
              Greedy_schedule.Global_power
          in
          Table.add_row t
            [
              Exp_common.fmt_g factor;
              Printf.sprintf "%.1f" max_link;
              "spanning";
              string_of_int (Schedule.length sched);
              string_of_int (Agg_tree.depth_in_links agg);
            ]
      | exception Failure _ ->
          Table.add_row t
            [ Exp_common.fmt_g factor; Printf.sprintf "%.1f" max_link;
              "DISCONNECTED"; "-"; "-" ])
    [ 0.5; 0.9; 0.999; 1.0; 1.5; 3.0 ];
  t

(* ------------------------------------------------------------------ T12 *)

let t12_k_connectivity ~quick =
  let n = if quick then 40 else 100 in
  let ps = Exp_common.square ~seed:43 ~n in
  let ks = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let t =
    Table.create ~title:"T12: k-edge-connected aggregation structures (Remark 2)"
      ~notes:
        [
          "k edge-disjoint spanning trees, all scheduled together;";
          "paper: Lemma 1 extends with O(1) replaced by O(k^4) — pressure and";
          "  slot counts should grow polynomially in k, not with n";
        ]
      [ "k"; "links"; "k-connected"; "pressure"; "slots global"; "slots obl(.5)";
        "repairs" ]
  in
  List.iter
    (fun k ->
      let kc = K_connectivity.build ~k ps in
      let sched_g, rep_g = K_connectivity.schedule p kc Greedy_schedule.Global_power in
      let sched_o, rep_o =
        K_connectivity.schedule p kc (Greedy_schedule.Oblivious_power 0.5)
      in
      Table.add_row t
        [
          string_of_int k;
          string_of_int (Linkset.size kc.K_connectivity.links);
          (if K_connectivity.is_k_edge_connected kc then "yes" else "NO");
          Printf.sprintf "%.2f" (Refinement.longer_pressure p kc.K_connectivity.links);
          string_of_int (Schedule.length sched_g);
          string_of_int (Schedule.length sched_o);
          string_of_int (rep_g + rep_o);
        ])
    ks;
  t

(* ------------------------------------------------------------------ T13 *)

let t13_order_ablation ~quick =
  let n = if quick then 80 else 250 in
  let ps = Exp_common.square ~seed:47 ~n in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let t =
    Table.create ~title:"T13: greedy order ablation on the conflict graphs"
      ~notes:
        [
          "the paper's algorithm processes links longest-first, which makes";
          "  first-fit a constant-factor approximation (constant inductive";
          "  independence); other orders lose that guarantee";
        ]
      [ "graph"; "longest-first"; "shortest-first"; "id order"; "random"; "DSATUR" ]
  in
  let rng = Rng.create 4711 in
  List.iter
    (fun (label, mode) ->
      let g = Greedy_schedule.conflict_graph p ls mode in
      let colors order = (Coloring.greedy ?order g).Coloring.classes in
      let random_order =
        let a = Array.init (Linkset.size ls) Fun.id in
        Rng.shuffle rng a;
        a
      in
      Table.add_row t
        [
          label;
          string_of_int (colors (Some (Linkset.by_decreasing_length ls)));
          string_of_int (colors (Some (Linkset.by_increasing_length ls)));
          string_of_int (colors None);
          string_of_int (colors (Some random_order));
          string_of_int (Coloring.dsatur g).Coloring.classes;
        ])
    [
      ("Garb", Greedy_schedule.Global_power);
      ("Gobl(.5)", Greedy_schedule.Oblivious_power 0.5);
    ];
  t

(* ------------------------------------------------------------------ T15 *)

let t15_capacity_multicolor ~quick =
  let t =
    Table.create
      ~title:"T15: one-shot capacity ([16]) and the multicoloring gap (Sec.4)"
      ~notes:
        [
          "capacity = greedy max feasible subset with power control (shortest first);";
          "pigeonhole = ceil(n/T): some slot of any T-slot schedule carries that many;";
          "the multicolor scheduler packs slots by exact SINR feasibility instead of";
          "  the conservative conflict graph, so it beats the coloring rate by a";
          "  constant factor even on geometric instances (cf. Sec.4's C5 example)";
        ]
      [ "instance"; "n links"; "capacity"; "largest slot"; "pigeonhole";
        "coloring rate"; "multicolor rate" ]
  in
  let row name ls =
    let cap, largest, pigeonhole = Wa_core.Capacity.vs_schedule p ls in
    let c_rate, m_rate =
      Wa_core.Multicolor.rate_improvement p ls Greedy_schedule.Global_power
    in
    Table.add_row t
      [
        name;
        string_of_int (Linkset.size ls);
        string_of_int cap;
        string_of_int largest;
        string_of_int pigeonhole;
        Printf.sprintf "%.4f" c_rate;
        Printf.sprintf "%.4f" m_rate;
      ]
  in
  let n = if quick then 30 else 80 in
  List.iter
    (fun seed ->
      let ps = Exp_common.square ~seed ~n in
      row (Printf.sprintf "uniform (seed %d)" seed) (Agg_tree.mst ps).Agg_tree.links)
    (Exp_common.seeds ~quick);
  let rng = Rng.create 777 in
  let cl =
    Random_deploy.clusters rng ~clusters:4 ~per_cluster:(n / 4) ~side:5000.0
      ~spread:10.0
  in
  row "clusters" (Agg_tree.mst cl).Agg_tree.links;
  t

(* ------------------------------------------------------------------ T14 *)

let t14_median ~quick =
  let t =
    Table.create ~title:"T14: median via counting convergecasts (Sec.3.1)"
      ~notes:
        [
          "binary search over the value range; each probe is one simulated";
          "  counting aggregation, verified against ground truth;";
          "cost = probes * one-frame latency, with the near-constant-rate";
          "  schedule doing each probe";
        ]
      [ "n"; "range"; "true median"; "computed"; "probes"; "slots/probe";
        "total slots" ]
  in
  let sizes = if quick then [ 30 ] else [ 30; 100; 250 ] in
  List.iter
    (fun n ->
      let ps = Exp_common.square ~seed:53 ~n in
      let plan = Pipeline.plan ~params:p `Global ps in
      let rng = Rng.create (1000 + n) in
      let values = Array.init n (fun _ -> Rng.int rng 10_000) in
      let readings node = values.(node) in
      let sorted = Array.copy values in
      Array.sort Int.compare sorted;
      let true_median = sorted.((n + 1) / 2 - 1) in
      let r =
        Functions.median ~range:(0, 10_000) ~readings plan.Pipeline.agg
          plan.Pipeline.schedule
      in
      Table.add_row t
        [
          string_of_int n;
          "0..10000";
          string_of_int true_median;
          string_of_int r.Functions.value;
          string_of_int r.Functions.probes;
          string_of_int r.Functions.probe_latency;
          string_of_int r.Functions.slots_used;
        ])
    sizes;
  t

(* ------------------------------------------------------------------ T16 *)

let t16_metrics ~quick =
  let n = if quick then 50 else 150 in
  let alpha = p.Params.alpha and beta = p.Params.beta in
  let tau = 0.5 in
  let t =
    Table.create
      ~title:"T16: the scheduling core across doubling metrics (Sec.3.1)"
      ~notes:
        [
          "the generic (metric-functor) pipeline: MST, G1/Gobl greedy coloring,";
          "  exact P_tau validation, Lemma-1 pressure — only distances are used;";
          "the constants stay flat from 2D to 3D to L1/Linf, as the paper's";
          "  doubling-metric remark predicts";
        ]
      [ "metric"; "n"; "Delta"; "chi(G1)"; "Gobl slots"; "Ptau valid";
        "Lemma-1 pressure" ]
  in
  let rng = Rng.create 20260704 in
  let coord () = Rng.float rng 1000.0 in
  let row (type pt) (module Sp : Wa_metric.Space.S with type point = pt)
      (stations : pt array) =
    let module Core = Wa_metric.Scheduling.Make (Sp) in
    let inst = Core.instance stations in
    let g1 = List.length (Core.greedy_slots ~alpha (Core.Constant 1.0) inst) in
    let gobl_slots =
      Core.greedy_slots ~alpha
        (Core.Power_law { gamma = 2.0; delta = Float.max tau (1.0 -. tau) })
        inst
    in
    let valid = Core.validate_ptau ~alpha ~beta ~tau inst gobl_slots in
    Table.add_row t
      [
        Sp.name;
        string_of_int (Core.size inst);
        Printf.sprintf "%.3g" (Core.diversity inst);
        string_of_int g1;
        string_of_int (List.length gobl_slots);
        (if valid then "yes" else "NO");
        Printf.sprintf "%.2f" (Core.lemma1_pressure ~alpha inst);
      ]
  in
  row (module Wa_metric.Space.Euclid2)
    (Array.init n (fun _ -> (coord (), coord ())));
  row (module Wa_metric.Space.Euclid3)
    (Array.init n (fun _ -> (coord (), coord (), coord ())));
  row (module Wa_metric.Space.Manhattan)
    (Array.init n (fun _ -> (coord (), coord ())));
  row (module Wa_metric.Space.Chebyshev)
    (Array.init n (fun _ -> (coord (), coord ())));
  t

(* ------------------------------------------------------------------ T17 *)

let t17_heavy_tails ~quick =
  let sizes = if quick then [ 50 ] else [ 50; 150; 400 ] in
  let t =
    Table.create
      ~title:"T17: heavy-tailed deployments (the Corollary-1 caveat)"
      ~notes:
        [
          "Cor.1 assumes non-heavy-tailed node distributions (Delta = poly(n) whp);";
          "Pareto-radial deployments break that: Delta grows super-polynomially as";
          "  the tail index drops, and the loglog/log* envelopes grow with it —";
          "  but the verified schedules still track those envelopes, not n";
        ]
      [ "distribution"; "n"; "log2 Delta"; "loglog Delta"; "log* Delta";
        "global"; "obl(.5)" ]
  in
  let row label ps =
    let delta = Pointset.diversity ps in
    Table.add_row t
      [
        label;
        string_of_int (Pointset.size ps);
        Printf.sprintf "%.1f" (Wa_util.Growth.log2 delta);
        Printf.sprintf "%.2f" (Wa_util.Growth.log_log delta);
        string_of_int (Wa_util.Growth.log_star delta);
        string_of_int (Exp_common.plan_slots `Global ps);
        string_of_int (Exp_common.plan_slots (`Oblivious 0.5) ps);
      ]
  in
  List.iter
    (fun n ->
      row "uniform" (Exp_common.square ~seed:5 ~n);
      List.iter
        (fun exponent ->
          let rng = Rng.create (1000 + n + int_of_float (exponent *. 10.0)) in
          row
            (Printf.sprintf "pareto a=%.1f" exponent)
            (Random_deploy.heavy_tailed rng ~n ~exponent))
        (if quick then [ 0.5 ] else [ 2.0; 0.5; 0.1 ]))
    sizes;
  t

(* ------------------------------------------------------------------ T18 *)

let t18_churn ~quick =
  let events = if quick then 20 else 60 in
  let t =
    Table.create ~title:"T18: schedule maintenance under churn (Sec.3.1)"
      ~notes:
        [
          "random node arrivals/departures; after each event the MST is rebuilt";
          "  but surviving links keep their slot unless conflicts force a change;";
          "kept% is the churn the schedule absorbed without touching those links";
        ]
      [ "phase"; "events"; "n after"; "mean kept %"; "mean recolored"; "slots";
        "recompute slots"; "valid" ]
  in
  let rng = Rng.create 909 in
  let net = Wa_core.Dynamic.create ~sink:(Vec2.make 500.0 500.0) `Global in
  let kept_pct = ref [] and recolored = ref [] in
  let last = ref None in
  let run_phase name n_events pick =
    kept_pct := [];
    recolored := [];
    for _ = 1 to n_events do
      let stats = pick () in
      if stats.Wa_core.Dynamic.links_total > 0 then begin
        kept_pct :=
          (100.0
          *. float_of_int stats.Wa_core.Dynamic.links_kept
          /. float_of_int stats.Wa_core.Dynamic.links_total)
          :: !kept_pct;
        recolored := float_of_int stats.Wa_core.Dynamic.links_recolored :: !recolored
      end;
      last := Some stats
    done;
    let s = Option.get !last in
    Table.add_row t
      [
        name;
        string_of_int n_events;
        string_of_int (Wa_core.Dynamic.size net);
        Printf.sprintf "%.1f" (Wa_util.Stats.mean !kept_pct);
        Printf.sprintf "%.1f" (Wa_util.Stats.mean !recolored);
        string_of_int s.Wa_core.Dynamic.slots;
        string_of_int s.Wa_core.Dynamic.recompute_slots;
        (if Wa_core.Dynamic.schedule_valid net then "yes" else "NO");
      ]
  in
  run_phase "growth" events (fun () ->
      snd
        (Wa_core.Dynamic.add_node net
           (Vec2.make (Rng.float rng 1000.0) (Rng.float rng 1000.0))));
  run_phase "mixed churn" events (fun () ->
      let ids = List.filter (fun i -> i <> 0) (Wa_core.Dynamic.node_ids net) in
      if Rng.bool rng || List.length ids < 5 then
        snd
          (Wa_core.Dynamic.add_node net
             (Vec2.make (Rng.float rng 1000.0) (Rng.float rng 1000.0)))
      else
        Wa_core.Dynamic.remove_node net
          (List.nth ids (Rng.int rng (List.length ids))));
  t

(* ------------------------------------------------------------------ T19 *)

let t19_radio_protocol ~quick =
  let sizes = if quick then [ 30; 60 ] else [ 30; 60; 120; 240 ] in
  let t =
    Table.create
      ~title:"T19: the Sec.3.3 protocol executed over real radio messages"
      ~notes:
        [
          "claims/acks/announces contend under the exact SINR reception rule;";
          "properness measures conflicts resolved purely by decoded messages;";
          "abstract rounds is the Wa_core.Distributed round-model for comparison";
        ]
      [ "n"; "radio rounds"; "abstract rounds"; "colors (radio)";
        "colors (central)"; "properness"; "unresolved"; "valid" ]
  in
  List.iter
    (fun n ->
      let ps = Exp_common.square ~seed:3 ~n in
      let agg = Agg_tree.mst ps in
      let r = Wa_distributed.Protocol.run p agg Greedy_schedule.Global_power in
      let abstract =
        Wa_core.Distributed.run p agg.Agg_tree.links Greedy_schedule.Global_power
      in
      let central =
        (Greedy_schedule.coloring p agg.Agg_tree.links Greedy_schedule.Global_power)
          .Coloring.classes
      in
      Table.add_row t
        [
          string_of_int n;
          string_of_int r.Wa_distributed.Protocol.rounds;
          string_of_int abstract.Wa_core.Distributed.rounds_total;
          string_of_int r.Wa_distributed.Protocol.colors;
          string_of_int central;
          Printf.sprintf "%.3f" r.Wa_distributed.Protocol.properness;
          string_of_int r.Wa_distributed.Protocol.unresolved;
          (if r.Wa_distributed.Protocol.schedule_valid then "yes" else "NO");
        ])
    sizes;
  t

(* ------------------------------------------------------------------ T20 *)

let t20_energy_and_slot_order ~quick =
  let n = if quick then 50 else 120 in
  let ps = Exp_common.square ~seed:61 ~n in
  let t =
    Table.create
      ~title:"T20: energy per frame across trees, and latency vs slot order"
      ~notes:
        [
          "energy = sum over links of transmissions * P(link), per delivered frame";
          "  (the intro's 'MST uses the shortest links, implying energy efficiency');";
          "reordered = the same schedule with slots sorted deepest-first, which";
          "  lets a frame climb several hops per period";
        ]
      [ "tree"; "power"; "slots"; "energy/frame"; "latency (as built)";
        "latency (reordered)" ]
  in
  let run tree_name edges (label, mode, scheme) =
    let plan = Pipeline.plan ~params:p ?tree_edges:edges mode ps in
    let sched = plan.Pipeline.schedule in
    let horizon = (if quick then 30 else 80) * Schedule.length sched in
    let sim s = Simulator.run plan.Pipeline.agg s (Simulator.config ~horizon s) in
    let base = sim sched in
    let reordered =
      sim (Schedule.reorder_for_latency plan.Pipeline.agg.Agg_tree.tree
             plan.Pipeline.agg.Agg_tree.links sched)
    in
    let scheme =
      match scheme with
      | Some s -> s
      | None -> (
          match Schedule.witness_power p plan.Pipeline.agg.Agg_tree.links sched with
          | Some s -> s
          | None -> failwith "T20: no witness")
    in
    let energy =
      Simulator.energy p plan.Pipeline.agg.Agg_tree.links ~power:scheme base
      /. float_of_int (max 1 base.Simulator.frames_delivered)
    in
    Table.add_row t
      [
        tree_name;
        label;
        string_of_int (Schedule.length sched);
        Printf.sprintf "%.3g" energy;
        Printf.sprintf "%d" base.Simulator.max_latency;
        Printf.sprintf "%d" reordered.Simulator.max_latency;
      ]
  in
  let star = Wa_baseline.Alt_trees.star ~sink:0 ps in
  List.iter
    (fun cfg ->
      run "MST" None cfg;
      run "star" (Some star) cfg)
    [
      ("obl(.5)", `Oblivious 0.5, Some (Power.Oblivious 0.5));
      ("uniform", `Uniform, Some Power.Uniform);
    ];
  run "MST" None ("global", `Global, None);
  t

(* ------------------------------------------------------------------ T21 *)

let t21_large_scale ~quick =
  let sizes = if quick then [ 800 ] else [ 800; 1600; 3200; 6400 ] in
  let t =
    Table.create ~title:"T21: the headline at scale (single seed)"
      ~notes:
        [
          "one seed per size; every schedule is SINR-verified end to end;";
          "slots stay near-constant over two further doublings of n";
        ]
      [ "n"; "chi(G1)"; "global"; "obl(.5)"; "log2 n"; "loglog Delta";
        "build+verify (s)" ]
  in
  List.iter
    (fun n ->
      let ps = Exp_common.square ~seed:1 ~n in
      let t0 = Sys.time () in
      let agg = Agg_tree.mst ps in
      let ls = agg.Agg_tree.links in
      let g1 =
        (Coloring.greedy
           ~order:(Wa_sinr.Linkset.by_decreasing_length ls)
           (Wa_core.Conflict.graph p (Wa_core.Conflict.constant ()) ls))
          .Coloring.classes
      in
      let global = Exp_common.plan_slots `Global ps in
      let obl = Exp_common.plan_slots (`Oblivious 0.5) ps in
      let elapsed = Sys.time () -. t0 in
      Table.add_row t
        [
          string_of_int n;
          string_of_int g1;
          string_of_int global;
          string_of_int obl;
          Printf.sprintf "%.1f" (Wa_util.Growth.log2 (float_of_int n));
          Printf.sprintf "%.2f" (Wa_util.Growth.log_log (Linkset.diversity ls));
          Printf.sprintf "%.1f" elapsed;
        ])
    sizes;
  t
