module Table = Wa_util.Table
module Stats = Wa_util.Stats
module Growth = Wa_util.Growth
module Rng = Wa_util.Rng
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Coloring = Wa_graph.Coloring
module Agg_tree = Wa_core.Agg_tree
module Conflict = Wa_core.Conflict
module Refinement = Wa_core.Refinement
module Greedy_schedule = Wa_core.Greedy_schedule
module Schedule = Wa_core.Schedule
module Simulator = Wa_core.Simulator
module Pipeline = Wa_core.Pipeline
module Distributed = Wa_core.Distributed
module Random_deploy = Wa_instances.Random_deploy
module Exp_line = Wa_instances.Exp_line
module Nested = Wa_instances.Nested
module Suboptimal = Wa_instances.Suboptimal
module Protocol_model = Wa_baseline.Protocol_model
module Alt_trees = Wa_baseline.Alt_trees
module Naive = Wa_baseline.Naive

let p = Exp_common.params

let g1_colors ls =
  let g = Conflict.graph p (Conflict.constant ()) ls in
  (Coloring.greedy ~order:(Linkset.by_decreasing_length ls) g).Coloring.classes

(* ------------------------------------------------------------------- T1 *)

let t1_headline_scaling ~quick =
  let sizes = Exp_common.deployment_sizes ~quick in
  let uniform_cap = if quick then 100 else 400 in
  let t =
    Table.create ~title:"T1: slots vs n on uniform-random deployments (Thm.1/Cor.1)"
      ~notes:
        [
          "global/oblivious/uniform columns are verified SINR schedules (mean over seeds);";
          "chi(G1) is the Theorem-2 constant; protocol is the disk-model baseline;";
          "expected shape: global ~ flat (log*), oblivious ~ loglog, references shown";
        ]
      [ "n"; "mean link Delta"; "chi(G1)"; "global"; "obl(.5)"; "uniform"; "protocol";
        "log2 n"; "loglog Delta"; "log* Delta" ]
  in
  List.iter
    (fun n ->
      let seeds = Exp_common.seeds ~quick in
      let per_seed f = List.map f seeds in
      let deltas = ref [] in
      let g1s = ref [] and protos = ref [] in
      List.iter
        (fun seed ->
          let ps = Exp_common.square ~seed ~n in
          let agg = Agg_tree.mst ps in
          let ls = agg.Agg_tree.links in
          deltas := Linkset.diversity ls :: !deltas;
          g1s := float_of_int (g1_colors ls) :: !g1s;
          protos :=
            float_of_int (Schedule.length (Protocol_model.schedule ls)) :: !protos)
        seeds;
      let globals =
        per_seed (fun seed ->
            float_of_int (Exp_common.plan_slots `Global (Exp_common.square ~seed ~n)))
      in
      let obls =
        per_seed (fun seed ->
            float_of_int
              (Exp_common.plan_slots (`Oblivious 0.5) (Exp_common.square ~seed ~n)))
      in
      let uniforms =
        if n <= uniform_cap then
          Some
            (per_seed (fun seed ->
                 float_of_int
                   (Exp_common.plan_slots `Uniform (Exp_common.square ~seed ~n))))
        else None
      in
      let mean_delta = Stats.mean !deltas in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.3g" mean_delta;
          Printf.sprintf "%.1f" (Stats.mean !g1s);
          Printf.sprintf "%.1f" (Stats.mean globals);
          Printf.sprintf "%.1f" (Stats.mean obls);
          (match uniforms with
          | Some u -> Printf.sprintf "%.1f" (Stats.mean u)
          | None -> "-");
          Printf.sprintf "%.1f" (Stats.mean !protos);
          Printf.sprintf "%.2f" (Growth.log2 (float_of_int n));
          Printf.sprintf "%.2f" (Growth.log_log mean_delta);
          string_of_int (Growth.log_star mean_delta);
        ])
    sizes;
  t

(* ------------------------------------------------------------------- T2 *)

let t2_theorem2_constant ~quick =
  let t =
    Table.create ~title:"T2: the Theorem-2 constant chi(G1(MST)) across families"
      ~notes:
        [
          "refinement buckets realize the first-fit partition of the Thm.2 proof;";
          "pressure is the measured Lemma-1 constant max_i I(i, T+_i)";
        ]
      [ "family"; "n"; "chi(G1)"; "refinement t"; "Lemma-1 pressure";
        "ind.indep G1"; "ind.indep Garb" ]
  in
  let row name ps =
    let agg = Agg_tree.mst ps in
    let ls = agg.Agg_tree.links in
    let r = Refinement.refine p ls in
    Table.add_row t
      [
        name;
        string_of_int (Pointset.size ps);
        string_of_int (g1_colors ls);
        string_of_int (Refinement.bucket_count r);
        Printf.sprintf "%.2f" (Refinement.longer_pressure p ls);
        string_of_int (Conflict.inductive_independence p (Conflict.constant ()) ls);
        string_of_int (Conflict.inductive_independence p (Conflict.log_power ()) ls);
      ]
  in
  let n = if quick then 60 else 250 in
  let rng = Rng.create 12345 in
  row "uniform square" (Random_deploy.uniform_square rng ~n ~side:1000.0);
  row "uniform disk" (Random_deploy.uniform_disk rng ~n ~radius:500.0);
  row "clusters (tight)"
    (Random_deploy.clusters rng ~clusters:5 ~per_cluster:(n / 5) ~side:10000.0
       ~spread:1.0);
  row "grid"
    (Random_deploy.grid
       ~rows:(int_of_float (sqrt (float_of_int n)))
       ~cols:(int_of_float (sqrt (float_of_int n)))
       ~spacing:10.0);
  row "jittered grid"
    (Random_deploy.jittered_grid rng
       ~rows:(int_of_float (sqrt (float_of_int n)))
       ~cols:(int_of_float (sqrt (float_of_int n)))
       ~spacing:10.0 ~jitter:0.3);
  row "uniform line" (Random_deploy.uniform_line rng ~n ~length:1000.0);
  row "exp line (tau=.5)"
    (Exp_line.pointset p ~tau:0.5 ~n:(Exp_line.max_float_points p ~tau:0.5));
  row "nested R2" (Nested.pointset (Nested.build p ~level:2));
  (if not quick then row "nested R3" (Nested.pointset (Nested.build p ~level:3)));
  row "fig4 (tau=.3, k=5)" (Suboptimal.build p ~tau:0.3 ~stations:5).Suboptimal.points;
  t

(* ------------------------------------------------------------------- T3 *)

let t3_power_control_gap ~quick =
  let tau = 0.5 in
  let n_max = Exp_line.max_float_points p ~tau in
  let ns = List.filter (fun n -> n <= n_max) (if quick then [ 4; 6 ] else [ 4; 5; 6; 7; 8; 9; 10 ]) in
  let t =
    Table.create
      ~title:"T3: power control gap on the doubly-exponential chain ([21] baseline)"
      ~notes:
        [
          "uniform/linear power degenerate to one link per slot (rate 1/n);";
          "global power control reuses slots: the exponential improvement of Sec.1";
        ]
      [ "n"; "log2 Delta"; "log* Delta"; "uniform"; "linear"; "obl(.5)"; "global" ]
  in
  List.iter
    (fun n ->
      let ps = Exp_line.pointset p ~tau ~n in
      let delta = Pointset.diversity ps in
      let slots mode = Exp_common.plan_slots mode ps in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.3g" (Growth.log2 delta);
          string_of_int (Growth.log_star delta);
          string_of_int (slots `Uniform);
          string_of_int (slots `Linear);
          string_of_int (slots (`Oblivious tau));
          string_of_int (slots `Global);
        ])
    ns;
  t

(* ------------------------------------------------------------------- T4 *)

let t4_mst_on_line ~quick =
  let n = if quick then 16 else 32 in
  let alt_count = if quick then 4 else 12 in
  let t =
    Table.create ~title:"T4: MST vs alternative trees on random line instances (Prop.2)"
      ~notes:
        [
          "best-alt is the minimum over the shortest-path tree and random spanning trees;";
          "Prop.2: the MST is constant-factor optimal under P0/P1 on the line";
        ]
      [ "seed"; "n"; "MST P0"; "best alt P0"; "ratio P0"; "MST P1"; "best alt P1";
        "ratio P1" ]
  in
  List.iter
    (fun seed ->
      let rng = Rng.create (900 + seed) in
      let ps = Random_deploy.uniform_line rng ~n ~length:1000.0 in
      let slots_for edges mode =
        let plan = Pipeline.plan ~params:p ?tree_edges:edges mode ps in
        Pipeline.slots plan
      in
      let alts =
        Alt_trees.shortest_path_tree ~sink:0 ps
        :: List.init alt_count (fun _ -> Alt_trees.random_spanning_tree rng ps)
      in
      let best mode =
        List.fold_left
          (fun acc edges -> min acc (slots_for (Some edges) mode))
          max_int alts
      in
      let mst_p0 = slots_for None `Uniform and mst_p1 = slots_for None `Linear in
      let alt_p0 = best `Uniform and alt_p1 = best `Linear in
      Table.add_row t
        [
          string_of_int seed;
          string_of_int n;
          string_of_int mst_p0;
          string_of_int alt_p0;
          Printf.sprintf "%.2f" (float_of_int mst_p0 /. float_of_int alt_p0);
          string_of_int mst_p1;
          string_of_int alt_p1;
          Printf.sprintf "%.2f" (float_of_int mst_p1 /. float_of_int alt_p1);
        ])
    (Exp_common.seeds ~quick);
  t

(* ------------------------------------------------------------------- T5 *)

let t5_simulator_rates ~quick =
  let t =
    Table.create ~title:"T5: simulated convergecast rate, latency and buffers"
      ~notes:
        [
          "steady rate should match 1/slots; buffers stay bounded by pipeline depth;";
          "the gen=1 row over-drives the network: buffers then grow with time";
        ]
      [ "n"; "mode"; "slots"; "gen"; "steady rate"; "1/slots"; "mean lat"; "max lat";
        "depth"; "max buf"; "correct" ]
  in
  let run n mode label =
    let ps = Exp_common.square ~seed:7 ~n in
    let plan = Pipeline.plan ~params:p mode ps in
    let slots = Pipeline.slots plan in
    let horizon = (if quick then 30 else 80) * slots in
    let r =
      Simulator.run plan.Pipeline.agg plan.Pipeline.schedule
        (Simulator.config ~horizon plan.Pipeline.schedule)
    in
    Table.add_row t
      [
        string_of_int n;
        label;
        string_of_int slots;
        string_of_int slots;
        Printf.sprintf "%.4f" r.Simulator.steady_rate;
        Printf.sprintf "%.4f" (1.0 /. float_of_int slots);
        Printf.sprintf "%.1f" r.Simulator.mean_latency;
        string_of_int r.Simulator.max_latency;
        string_of_int (Agg_tree.depth_in_links plan.Pipeline.agg);
        string_of_int r.Simulator.max_buffer;
        (if r.Simulator.aggregates_correct then "yes" else "NO");
      ]
  in
  run 50 `Global "global";
  run 50 (`Oblivious 0.5) "obl(.5)";
  if not quick then begin
    run 200 `Global "global";
    run 200 (`Oblivious 0.5) "obl(.5)"
  end;
  (* Overdriven: frames generated every slot. *)
  let ps = Exp_common.square ~seed:7 ~n:50 in
  let plan = Pipeline.plan ~params:p `Global ps in
  let slots = Pipeline.slots plan in
  let horizon = (if quick then 30 else 80) * slots in
  let r =
    Simulator.run plan.Pipeline.agg plan.Pipeline.schedule
      (Simulator.config ~gen_period:1 ~horizon plan.Pipeline.schedule)
  in
  Table.add_row t
    [
      "50"; "global"; string_of_int slots; "1";
      Printf.sprintf "%.4f" r.Simulator.steady_rate;
      Printf.sprintf "%.4f" (1.0 /. float_of_int slots);
      Printf.sprintf "%.1f" r.Simulator.mean_latency;
      string_of_int r.Simulator.max_latency;
      string_of_int (Agg_tree.depth_in_links plan.Pipeline.agg);
      Printf.sprintf "%d (grows)" r.Simulator.max_buffer;
      (if r.Simulator.aggregates_correct then "yes" else "NO");
    ];
  t

(* ------------------------------------------------------------------- T6 *)

let t6_distributed ~quick =
  let sizes = if quick then [ 50; 100 ] else [ 50; 100; 200; 400 ] in
  let t =
    Table.create ~title:"T6: distributed protocol rounds (Sec.3.3)"
      ~notes:
        [
          "measured rounds of the phased length-class protocol (coloring + broadcast);";
          "predicted is the paper's (log n * opt + log^2 n) * log Delta shape";
        ]
      [ "n"; "log2 Delta"; "phases"; "color rounds"; "bcast rounds"; "total";
        "colors (dist)"; "colors (central)"; "predicted shape" ]
  in
  List.iter
    (fun n ->
      let ps = Exp_common.square ~seed:3 ~n in
      let agg = Agg_tree.mst ps in
      let ls = agg.Agg_tree.links in
      let d = Distributed.run p ls Greedy_schedule.Global_power in
      let central =
        (Greedy_schedule.coloring p ls Greedy_schedule.Global_power).Coloring.classes
      in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.2f" (Growth.log2 (Linkset.diversity ls));
          string_of_int d.Distributed.phases;
          string_of_int d.Distributed.rounds_coloring;
          string_of_int d.Distributed.rounds_broadcast;
          string_of_int d.Distributed.rounds_total;
          string_of_int d.Distributed.colors;
          string_of_int central;
          Printf.sprintf "%.0f" (Distributed.predicted_rounds p ls ~opt:central);
        ])
    sizes;
  t

(* ------------------------------------------------------------------- T7 *)

let t7_tau_sweep ~quick =
  let n = if quick then 80 else 200 in
  let t =
    Table.create ~title:"T7: oblivious exponent sweep (slots vs tau)"
      ~notes:
        [
          "conflict threshold delta = max(tau, 1-tau): mid-range tau yields the";
          "  sparsest conflict graph; every schedule is verified post-repair";
        ]
      [ "tau"; "raw colors"; "repair added"; "final slots" ]
  in
  let ps = Exp_common.square ~seed:11 ~n in
  List.iter
    (fun tau ->
      let plan = Pipeline.plan ~params:p (`Oblivious tau) ps in
      Table.add_row t
        [
          Exp_common.fmt_g tau;
          string_of_int plan.Pipeline.raw_colors;
          string_of_int plan.Pipeline.repair_added;
          string_of_int (Pipeline.slots plan);
        ])
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
  t

(* ------------------------------------------------------------------- T8 *)

let t8_gamma_ablation ~quick =
  let n = if quick then 80 else 200 in
  let t =
    Table.create ~title:"T8: conflict-threshold gamma ablation"
      ~notes:
        [
          "small gamma under-approximates conflicts (repair must split slots);";
          "large gamma over-approximates (more colors than necessary)";
        ]
      [ "mode"; "gamma"; "raw colors"; "repair added"; "final slots" ]
  in
  let ps = Exp_common.square ~seed:17 ~n in
  List.iter
    (fun (label, mode) ->
      List.iter
        (fun gamma ->
          let plan = Pipeline.plan ~params:p ~gamma mode ps in
          Table.add_row t
            [
              label;
              Exp_common.fmt_g gamma;
              string_of_int plan.Pipeline.raw_colors;
              string_of_int plan.Pipeline.repair_added;
              string_of_int (Pipeline.slots plan);
            ])
        [ 0.25; 0.5; 1.0; 2.0; 4.0 ])
    [ ("global", `Global); ("obl(.5)", `Oblivious 0.5) ];
  t

(* ------------------------------------------------------------------- T9 *)

let t9_rate_vs_latency ~quick =
  let t =
    Table.create ~title:"T9: rate vs latency across tree topologies (Sec.3.1)"
      ~notes:
        [
          "the chain/grid MST achieves near-constant rate but linear latency;";
          "the star has depth 1 but pays linearly in slots (long hostile links)";
        ]
      [ "instance"; "tree"; "slots"; "depth"; "steady rate"; "max latency" ]
  in
  let run name ps edges tree_name =
    let plan = Pipeline.plan ~params:p ?tree_edges:edges `Global ps in
    let slots = Pipeline.slots plan in
    let horizon = (if quick then 20 else 50) * slots in
    let r =
      Simulator.run plan.Pipeline.agg plan.Pipeline.schedule
        (Simulator.config ~horizon plan.Pipeline.schedule)
    in
    Table.add_row t
      [
        name;
        tree_name;
        string_of_int slots;
        string_of_int (Agg_tree.depth_in_links plan.Pipeline.agg);
        Printf.sprintf "%.4f" r.Simulator.steady_rate;
        string_of_int r.Simulator.max_latency;
      ]
  in
  let chain_n = if quick then 12 else 24 in
  let chain =
    Pointset.of_array (Array.init chain_n (fun i -> Vec2.make (float_of_int i) 0.0))
  in
  run "chain" chain None "MST";
  run "chain" chain (Some (Alt_trees.star ~sink:0 chain)) "star";
  let g = if quick then 6 else 9 in
  let grid = Random_deploy.grid ~rows:g ~cols:g ~spacing:10.0 in
  run "grid" grid None "MST";
  run "grid" grid (Some (Alt_trees.star ~sink:0 grid)) "star";
  let ps = Exp_common.square ~seed:19 ~n:(if quick then 50 else 100) in
  run "random" ps None "MST";
  run "random" ps (Some (Alt_trees.star ~sink:0 ps)) "star";
  run "random" ps
    (Some (Alt_trees.spt_with_cost_exponent ~q:2.0 ~sink:0 ps))
    "SPT(d^2)";
  let two_tier = Wa_core.Multihop.build ~cell_factor:1.5 ~sink:0 ps in
  run "random" ps (Some two_tier.Wa_core.Multihop.edges)
    (Printf.sprintf "2-tier (%d cells)" (Wa_core.Multihop.leader_count two_tier));
  let hier = Wa_core.Hierarchical.build ~sink:0 ps in
  run "random" ps (Some hier.Wa_core.Hierarchical.edges)
    (Printf.sprintf "quadtree (%d lvls)" hier.Wa_core.Hierarchical.levels);
  run "random" ps (Some (Alt_trees.matching_tree ~sink:0 ps)) "matching [11]";
  t
