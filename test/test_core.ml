module Params = Wa_sinr.Params
module Link = Wa_sinr.Link
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Feasibility = Wa_sinr.Feasibility
module Affectance = Wa_sinr.Affectance
module Conflict = Wa_core.Conflict
module Refinement = Wa_core.Refinement
module Greedy_schedule = Wa_core.Greedy_schedule
module Schedule = Wa_core.Schedule
module Agg_tree = Wa_core.Agg_tree
module Simulator = Wa_core.Simulator
module Distributed = Wa_core.Distributed
module Pipeline = Wa_core.Pipeline
module Coloring = Wa_graph.Coloring
module Graph = Wa_graph.Graph
module Tree = Wa_graph.Tree
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Rng = Wa_util.Rng
module Random_deploy = Wa_instances.Random_deploy

let v = Vec2.make
let p = Params.default
let check_float = Alcotest.(check (float 1e-9))

let random_square seed n =
  Random_deploy.uniform_square (Rng.create seed) ~n ~side:1000.0

(* ------------------------------------------------------------- Conflict *)

let test_conflict_eval () =
  check_float "constant" 1.0 (Conflict.eval p (Conflict.constant ()) 100.0);
  check_float "power law" (2.0 *. sqrt 10.0)
    (Conflict.eval p (Conflict.Power_law { gamma = 2.0; delta = 0.5 }) 10.0);
  (* Log_power with alpha=3: exponent 2/(3-2) = 2, so f(4) = (log2 4)^2 = 4. *)
  check_float "log power" 4.0 (Conflict.eval p (Conflict.log_power ()) 4.0);
  check_float "log power clamps" 1.0 (Conflict.eval p (Conflict.log_power ()) 1.5)

let test_conflict_power_law_delta () =
  (* delta = max(tau, 1-tau). *)
  match Conflict.power_law ~tau:0.3 () with
  | Conflict.Power_law { delta; _ } -> check_float "delta" 0.7 delta
  | _ -> Alcotest.fail "expected power law"

let test_conflict_validation () =
  Alcotest.check_raises "tau 0" (Invalid_argument "Conflict.power_law: tau must lie strictly in (0,1)")
    (fun () -> ignore (Conflict.power_law ~tau:0.0 ()));
  Alcotest.check_raises "gamma" (Invalid_argument "Conflict: gamma must be positive")
    (fun () -> ignore (Conflict.constant ~gamma:0.0 ()));
  Alcotest.check_raises "ratio below 1" (Invalid_argument "Conflict.eval: length ratio below 1")
    (fun () -> ignore (Conflict.eval p (Conflict.constant ()) 0.5))

let test_conflict_pairs () =
  let ls =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 1.5 0.0) (v 2.5 0.0);  (* d=0.5 from link 0 *)
        Link.make (v 100.0 0.0) (v 101.0 0.0);
      ]
  in
  let g1 = Conflict.constant () in
  Alcotest.(check bool) "close pair conflicts" true (Conflict.conflicting p g1 ls 0 1);
  Alcotest.(check bool) "far pair independent" false (Conflict.conflicting p g1 ls 0 2);
  Alcotest.(check bool) "symmetric" (Conflict.conflicting p g1 ls 1 0)
    (Conflict.conflicting p g1 ls 0 1);
  Alcotest.(check bool) "no self conflict" false (Conflict.conflicting p g1 ls 1 1)

let test_conflict_shared_endpoint_always () =
  let ls =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1.0 0.0) (v 50.0 0.0) ]
  in
  List.iter
    (fun th ->
      Alcotest.(check bool) "touching conflicts" true (Conflict.conflicting p th ls 0 1))
    [ Conflict.constant (); Conflict.power_law ~tau:0.5 (); Conflict.log_power () ]

let test_inductive_independence_constant () =
  (* Appendix A: the graphs G_f have constant inductive independence —
     the property that makes length-ordered first-fit a constant
     approximation.  Measure it on MSTs of several deployments. *)
  List.iter
    (fun seed ->
      let ps = random_square (200 + seed) 100 in
      let agg = Agg_tree.mst ps in
      let ls = agg.Agg_tree.links in
      List.iter
        (fun th ->
          let v = Conflict.inductive_independence p th ls in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %s ind.indep %d small" seed
               (Conflict.describe th) v)
            true (v >= 1 && v <= 8))
        [ Conflict.constant (); Conflict.power_law ~tau:0.5 (); Conflict.log_power () ])
    [ 1; 2 ]

let test_inductive_independence_exact_small () =
  (* Three far-apart equal links mutually independent: each link's
     longer-neighbor independence is 0 (no conflicts at all). *)
  let ls =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 100.0 0.0) (v 101.0 0.0);
        Link.make (v 200.0 0.0) (v 201.0 0.0);
      ]
  in
  Alcotest.(check int) "independent set has 0" 0
    (Conflict.inductive_independence p (Conflict.constant ()) ls);
  (* A chain of touching links: all conflict, but touching links also
     conflict with each other, so each neighborhood's independent
     subset is 1. *)
  let chain =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 1.0 0.0) (v 2.0 0.0);
        Link.make (v 2.0 0.0) (v 3.0 0.0);
      ]
  in
  Alcotest.(check int) "touching chain" 1
    (Conflict.inductive_independence p (Conflict.constant ()) chain)

let test_conflict_graph_monotone () =
  (* Garb (larger f) has at least as many edges as G1. *)
  let ps = random_square 3 60 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let g1 = Conflict.graph p (Conflict.constant ()) ls in
  let garb = Conflict.graph p (Conflict.log_power ()) ls in
  Alcotest.(check bool) "edge monotone" true
    (Graph.edge_count garb >= Graph.edge_count g1)

(* ----------------------------------------------------------- Refinement *)

let test_refinement_mst_constant () =
  (* Theorem 2: the refinement of an MST uses O(1) buckets.  Measure on
     several deployments and insist on a small constant. *)
  List.iter
    (fun seed ->
      let ps = random_square seed 120 in
      let agg = Agg_tree.mst ps in
      let r = Refinement.refine p agg.Agg_tree.links in
      Alcotest.(check bool)
        (Printf.sprintf "bucket count %d small" (Refinement.bucket_count r))
        true
        (Refinement.bucket_count r <= 8);
      Alcotest.(check bool) "buckets G1-independent" true
        (Refinement.buckets_g1_independent p agg.Agg_tree.links r))
    [ 1; 2; 3 ]

let test_refinement_partition () =
  let ps = random_square 11 50 in
  let agg = Agg_tree.mst ps in
  let r = Refinement.refine p agg.Agg_tree.links in
  let n = Linkset.size agg.Agg_tree.links in
  let seen = Array.make n 0 in
  Array.iter (List.iter (fun i -> seen.(i) <- seen.(i) + 1)) r.Refinement.buckets;
  Alcotest.(check bool) "each link once" true (Array.for_all (fun c -> c = 1) seen);
  for i = 0 to n - 1 do
    Alcotest.(check bool) "bucket_of consistent" true
      (List.mem i r.Refinement.buckets.(r.Refinement.bucket_of.(i)))
  done

let test_refinement_lemma1_pressure () =
  (* Lemma 1: I(i, T+_i) = O(1) on MSTs; measure the constant. *)
  List.iter
    (fun seed ->
      let ps = random_square (100 + seed) 100 in
      let agg = Agg_tree.mst ps in
      let ls = agg.Agg_tree.links in
      let worst = Refinement.longer_pressure p ls in
      Alcotest.(check bool)
        (Printf.sprintf "pressure %.2f bounded" worst)
        true (worst <= 10.0);
      (* The batch kernel sums in length-rank order, the record oracle
         in id order: equal up to summation rounding. *)
      let oracle = ref 0.0 in
      for i = 0 to Linkset.size ls - 1 do
        oracle := Float.max !oracle (Affectance.mst_longer_pressure p ls i)
      done;
      Alcotest.(check (float 1e-12)) "matches the record oracle" !oracle worst)
    [ 1; 2; 3 ]

let test_refinement_kappa_validation () =
  let ps = random_square 5 10 in
  let agg = Agg_tree.mst ps in
  Alcotest.check_raises "kappa 0" (Invalid_argument "Refinement.refine: kappa must be positive")
    (fun () -> ignore (Refinement.refine ~kappa:0.0 p agg.Agg_tree.links))

(* ------------------------------------------------------------- Agg_tree *)

let test_agg_tree_mst () =
  let ps = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.0 0.0; v 3.0 0.0 ] in
  let agg = Agg_tree.mst ~sink:0 ps in
  Alcotest.(check int) "4 nodes" 4 (Agg_tree.size agg);
  Alcotest.(check int) "3 links" 3 (Agg_tree.link_count agg);
  Alcotest.(check int) "depth" 3 (Agg_tree.depth_in_links agg);
  (* Every link is directed toward the sink: parent depth is smaller. *)
  Linkset.iter
    (fun i _ ->
      let child = Option.get (Linkset.tree_child agg.Agg_tree.links i) in
      let parent = Option.get (Tree.parent agg.Agg_tree.tree child) in
      Alcotest.(check bool) "toward sink" true
        (Tree.depth agg.Agg_tree.tree parent < Tree.depth agg.Agg_tree.tree child))
    agg.Agg_tree.links

let test_agg_tree_fast_mst_path () =
  (* Above the dense limit Agg_tree.mst switches to the Delaunay
     Kruskal; the tree weight must match the O(n^2) oracle. *)
  let ps = random_square 303 600 in
  let agg = Agg_tree.mst ps in
  let edges =
    List.map
      (fun (c, par) -> (min c par, max c par))
      (Tree.directed_edges agg.Agg_tree.tree)
  in
  let w_fast = Wa_graph.Mst.total_weight ps edges in
  let w_oracle = Wa_graph.Mst.total_weight ps (Wa_graph.Mst.euclidean ps) in
  Alcotest.(check bool)
    (Printf.sprintf "weights %.6g ~ %.6g" w_fast w_oracle)
    true
    (Float.abs (w_fast -. w_oracle) <= 1e-6 *. w_oracle)

let test_agg_tree_link_of_node () =
  let ps = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.0 0.0 ] in
  let agg = Agg_tree.mst ~sink:0 ps in
  let l1 = Agg_tree.link_of_node agg 1 in
  Alcotest.(check (option int)) "sender is node" (Some 1)
    (Linkset.tree_child agg.Agg_tree.links l1);
  Alcotest.check_raises "sink has no uplink" Not_found (fun () ->
      ignore (Agg_tree.link_of_node agg 0))

let test_agg_tree_singleton_rejected () =
  Alcotest.check_raises "singleton" (Invalid_argument "Agg_tree: need at least two nodes")
    (fun () -> ignore (Agg_tree.mst (Pointset.of_list [ v 0.0 0.0 ])))

(* ------------------------------------------------------------- Schedule *)

let test_schedule_of_slots () =
  let s = Schedule.of_slots [ [ 0; 2 ]; [ 1 ] ] (Schedule.Scheme Power.Uniform) in
  Alcotest.(check int) "length" 2 (Schedule.length s);
  check_float "rate" 0.5 (Schedule.rate s);
  Alcotest.(check int) "slot of 1" 1 (Schedule.slot_of_link s 1);
  Alcotest.(check int) "slot of 2" 0 (Schedule.slot_of_link s 2);
  Alcotest.check_raises "absent link" Not_found (fun () ->
      ignore (Schedule.slot_of_link s 9))

let test_schedule_covers () =
  let ls =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 5.0 0.0) (v 6.0 0.0);
        Link.make (v 9.0 0.0) (v 10.0 0.0);
      ]
  in
  let good = Schedule.of_slots [ [ 0; 2 ]; [ 1 ] ] (Schedule.Scheme Power.Uniform) in
  Alcotest.(check bool) "covers" true (Schedule.covers good ls);
  let missing = Schedule.of_slots [ [ 0 ]; [ 1 ] ] (Schedule.Scheme Power.Uniform) in
  Alcotest.(check bool) "missing link" false (Schedule.covers missing ls);
  let dup = Schedule.of_slots [ [ 0; 1 ]; [ 1; 2 ] ] (Schedule.Scheme Power.Uniform) in
  Alcotest.(check bool) "duplicated link" false (Schedule.covers dup ls)

let test_schedule_repair_fixes () =
  (* Two chained links in one slot: infeasible, must be split. *)
  let ls =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1.0 0.0) (v 2.0 0.0) ]
  in
  let bad = Schedule.of_slots [ [ 0; 1 ] ] (Schedule.Scheme Power.Uniform) in
  Alcotest.(check bool) "initially invalid" false (Schedule.is_valid p ls bad);
  let fixed, added = Schedule.repair p ls bad in
  Alcotest.(check int) "one slot added" 1 added;
  Alcotest.(check bool) "valid after repair" true (Schedule.is_valid p ls fixed)

let test_schedule_repair_noop_on_valid () =
  let ls =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 100.0 0.0) (v 101.0 0.0) ]
  in
  let good = Schedule.of_slots [ [ 0; 1 ] ] (Schedule.Scheme Power.Uniform) in
  let fixed, added = Schedule.repair p ls good in
  Alcotest.(check int) "nothing added" 0 added;
  Alcotest.(check int) "same length" 1 (Schedule.length fixed)

let test_schedule_repair_large_slot () =
  (* Force the geometric pre-split path: one slot holding all links of
     a 150-node MST is far beyond the exact-split threshold. *)
  let ps = random_square 71 150 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let all = List.init (Linkset.size ls) Fun.id in
  let bad = Schedule.of_slots [ all ] Schedule.Arbitrary in
  let fixed, added = Schedule.repair p ls bad in
  Alcotest.(check bool) "split happened" true (added > 0);
  Alcotest.(check bool) "covers" true (Schedule.covers fixed ls);
  Alcotest.(check bool) "valid" true (Schedule.is_valid p ls fixed);
  (* The repair of a single monolithic slot should land near the
     quality of the normal pipeline. *)
  let pipeline_slots = Pipeline.slots (Pipeline.plan ~params:p `Global ps) in
  Alcotest.(check bool)
    (Printf.sprintf "repair %d within 3x of pipeline %d" (Schedule.length fixed)
       pipeline_slots)
    true
    (Schedule.length fixed <= 3 * pipeline_slots)

let test_schedule_witness_power () =
  let ps = random_square 42 40 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let sched, _ = Greedy_schedule.schedule p ls Greedy_schedule.Global_power in
  match Schedule.witness_power p ls sched with
  | Some (Power.Custom vec) ->
      (* Every slot must pass the ground-truth check under the combined
         witness assignment. *)
      Array.iter
        (fun slot ->
          Alcotest.(check bool) "slot feasible under witness" true
            (Feasibility.is_feasible p ls ~power:(Power.Custom vec) slot))
        sched.Schedule.slots
  | Some _ -> Alcotest.fail "expected a custom witness"
  | None -> Alcotest.fail "expected a witness"

(* ------------------------------------------------------- Greedy_schedule *)

let test_greedy_modes_valid () =
  let ps = random_square 7 80 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  List.iter
    (fun (name, mode) ->
      let sched, _ = Greedy_schedule.schedule p ls mode in
      Alcotest.(check bool) (name ^ " covers") true (Schedule.covers sched ls);
      Alcotest.(check bool) (name ^ " valid") true (Schedule.is_valid p ls sched))
    [
      ("global", Greedy_schedule.Global_power);
      ("oblivious", Greedy_schedule.Oblivious_power 0.5);
      ("uniform", Greedy_schedule.Fixed_scheme Power.Uniform);
      ("linear", Greedy_schedule.Fixed_scheme Power.Linear);
    ]

let test_greedy_coloring_proper () =
  let ps = random_square 9 60 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  List.iter
    (fun mode ->
      let g = Greedy_schedule.conflict_graph p ls mode in
      let c = Greedy_schedule.coloring p ls mode in
      Alcotest.(check bool) "proper" true (Coloring.validate g c))
    [ Greedy_schedule.Global_power; Greedy_schedule.Oblivious_power 0.3 ]

let test_greedy_gamma_effect () =
  (* Larger gamma means more conflicts, hence at least as many colors. *)
  let ps = random_square 13 80 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let small = Greedy_schedule.coloring ~gamma:0.5 p ls Greedy_schedule.Global_power in
  let large = Greedy_schedule.coloring ~gamma:3.0 p ls Greedy_schedule.Global_power in
  Alcotest.(check bool) "monotone in gamma" true
    (large.Coloring.classes >= small.Coloring.classes)

(* ------------------------------------------------------------ Simulator *)

let fig1 () =
  let pts =
    Pointset.of_array
      [|
        v 0.0 0.0; v (-2.0) 1.0; v 2.0 1.0; v (-1.0) 0.5; v 1.0 0.5;
      |]
  in
  let agg = Agg_tree.of_edges ~sink:0 pts [ (1, 3); (3, 0); (2, 4); (4, 0) ] in
  let link_of node = Agg_tree.link_of_node agg node in
  let sched =
    Schedule.of_slots
      [ [ link_of 1; link_of 4 ]; [ link_of 3; link_of 2 ] ]
      (Schedule.Scheme Power.Uniform)
  in
  (agg, sched)

let test_simulator_fig1 () =
  let agg, sched = fig1 () in
  let ls = agg.Agg_tree.links in
  let oracle i j = Link.shares_endpoint (Linkset.link ls i) (Linkset.link ls j) in
  let cfg =
    Simulator.config ~interference:(Simulator.Conflict_oracle oracle) ~horizon:400
      sched
  in
  let r = Simulator.run agg sched cfg in
  check_float "steady rate 1/2" 0.5 r.Simulator.steady_rate;
  Alcotest.(check int) "latency 3" 3 r.Simulator.max_latency;
  check_float "mean latency 3" 3.0 r.Simulator.mean_latency;
  Alcotest.(check int) "buffers bounded" 1 r.Simulator.max_buffer;
  Alcotest.(check bool) "aggregates correct" true r.Simulator.aggregates_correct;
  Alcotest.(check int) "no violations" 0 r.Simulator.violations

let test_simulator_rate_matches_schedule () =
  let ps = random_square 17 50 in
  let plan = Pipeline.plan ~params:p (`Oblivious 0.5) ps in
  let r = Pipeline.simulate ~horizon_periods:60 plan in
  Alcotest.(check bool) "aggregates correct" true r.Simulator.aggregates_correct;
  let expected = Pipeline.rate plan in
  Alcotest.(check bool)
    (Printf.sprintf "steady rate %.4f ~ %.4f" r.Simulator.steady_rate expected)
    true
    (Float.abs (r.Simulator.steady_rate -. expected) < 0.15 *. expected);
  (* Buffers are bounded by the pipeline depth (a frame waits one
     period per hop of its deepest contributor), never by time. *)
  let depth = Agg_tree.depth_in_links plan.Pipeline.agg in
  Alcotest.(check bool)
    (Printf.sprintf "buffers %d <= depth %d + 2" r.Simulator.max_buffer depth)
    true
    (r.Simulator.max_buffer <= depth + 2)

let test_simulator_overdriven_buffers_grow () =
  (* Generating frames faster than the schedule drains them must grow
     buffers linearly — the paper's "buffers overflowing" argument. *)
  let ps = random_square 23 40 in
  let plan = Pipeline.plan ~params:p `Global ps in
  let sched = plan.Pipeline.schedule in
  let slots = Schedule.length sched in
  if slots >= 2 then begin
    let cfg = Simulator.config ~gen_period:1 ~horizon:(slots * 60) sched in
    let r = Simulator.run plan.Pipeline.agg sched cfg in
    Alcotest.(check bool)
      (Printf.sprintf "buffers grow (max=%d)" r.Simulator.max_buffer)
      true
      (r.Simulator.max_buffer > 20)
  end

let test_simulator_latency_bound () =
  let ps = random_square 29 60 in
  let plan = Pipeline.plan ~params:p `Global ps in
  let r = Pipeline.simulate ~horizon_periods:80 plan in
  let depth = Agg_tree.depth_in_links plan.Pipeline.agg in
  let period = Schedule.length plan.Pipeline.schedule in
  (* Pipelined convergecast: latency at most ~ depth+1 periods. *)
  Alcotest.(check bool)
    (Printf.sprintf "latency %d <= (depth %d + 1) * period %d" r.Simulator.max_latency
       depth period)
    true
    (r.Simulator.max_latency <= (depth + 1) * period)

let test_simulator_drop_policy () =
  (* An invalid schedule (all links in one slot) under Drop: the tree
     links that conflict lose their packets, so strictly fewer frames
     arrive than with Count. *)
  let ps = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.0 0.0; v 3.0 0.0 ] in
  let agg = Agg_tree.mst ~sink:0 ps in
  let ls = agg.Agg_tree.links in
  let all = List.init (Linkset.size ls) Fun.id in
  let sched = Schedule.of_slots [ all ] (Schedule.Scheme Power.Uniform) in
  let oracle i j = Link.shares_endpoint (Linkset.link ls i) (Linkset.link ls j) in
  let run policy =
    Simulator.run agg sched
      (Simulator.config ~interference:(Simulator.Conflict_oracle oracle) ~policy
         ~horizon:100 sched)
  in
  let count = run Simulator.Count and drop = run Simulator.Drop in
  Alcotest.(check bool) "violations observed" true (count.Simulator.violations > 0);
  Alcotest.(check bool) "drop delivers less" true
    (drop.Simulator.frames_delivered < count.Simulator.frames_delivered)

let test_simulator_reading_deterministic () =
  Alcotest.(check int) "same" (Simulator.reading ~node:3 ~frame:7)
    (Simulator.reading ~node:3 ~frame:7);
  Alcotest.(check bool) "distinct nodes differ" true
    (Simulator.reading ~node:1 ~frame:0 <> Simulator.reading ~node:2 ~frame:0)

let test_simulator_config_validation () =
  let agg, sched = fig1 () in
  Alcotest.check_raises "bad horizon"
    (Invalid_argument "Simulator.run: horizon must be positive") (fun () ->
      ignore
        (Simulator.run agg sched
           { (Simulator.config ~horizon:10 sched) with Simulator.horizon = 0 }))

let test_simulator_rejects_non_covering () =
  let agg, _ = fig1 () in
  let sched = Schedule.of_slots [ [ 0 ] ] (Schedule.Scheme Power.Uniform) in
  Alcotest.check_raises "not covering"
    (Invalid_argument "Simulator.run: schedule does not partition the tree links")
    (fun () -> ignore (Simulator.run agg sched (Simulator.config ~horizon:10 sched)))

(* ----------------------------------------------------------- Distributed *)

let test_distributed_valid () =
  let ps = random_square 37 80 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let r = Distributed.run p ls Greedy_schedule.Global_power in
  Alcotest.(check bool) "coloring valid" true r.Distributed.valid;
  Alcotest.(check bool) "rounds positive" true (r.Distributed.rounds_total > 0);
  Alcotest.(check bool) "phases positive" true (r.Distributed.phases > 0);
  Alcotest.(check int) "colors match coloring" r.Distributed.colors
    r.Distributed.coloring.Coloring.classes

let test_distributed_deterministic_seed () =
  let ps = random_square 41 50 in
  let agg = Agg_tree.mst ps in
  let ls = agg.Agg_tree.links in
  let a = Distributed.run ~seed:5 p ls Greedy_schedule.Global_power in
  let b = Distributed.run ~seed:5 p ls Greedy_schedule.Global_power in
  Alcotest.(check int) "same rounds" a.Distributed.rounds_total b.Distributed.rounds_total;
  Alcotest.(check int) "same colors" a.Distributed.colors b.Distributed.colors

let test_distributed_rejects_fixed () =
  let ps = random_square 43 10 in
  let agg = Agg_tree.mst ps in
  Alcotest.check_raises "fixed scheme"
    (Invalid_argument "Distributed.run: protocol requires a geometric conflict graph")
    (fun () ->
      ignore
        (Distributed.run p agg.Agg_tree.links
           (Greedy_schedule.Fixed_scheme Power.Uniform)))

(* -------------------------------------------------------------- Pipeline *)

let test_pipeline_all_modes () =
  let ps = random_square 47 60 in
  List.iter
    (fun mode ->
      let plan = Pipeline.plan ~params:p mode ps in
      Alcotest.(check bool) "valid" true plan.Pipeline.valid;
      Alcotest.(check bool) "covers" true
        (Schedule.covers plan.Pipeline.schedule plan.Pipeline.agg.Agg_tree.links);
      Alcotest.(check bool) "rate sane" true
        (Pipeline.rate plan > 0.0 && Pipeline.rate plan <= 1.0))
    [ `Global; `Oblivious 0.5; `Oblivious 0.25; `Uniform; `Linear ]

let test_pipeline_custom_tree () =
  let ps = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.0 0.0; v 3.0 0.0 ] in
  let plan =
    Pipeline.plan ~params:p ~tree_edges:[ (0, 1); (0, 2); (0, 3) ] `Global ps
  in
  Alcotest.(check int) "star depth" 1 (Agg_tree.depth_in_links plan.Pipeline.agg)

let test_pipeline_describe () =
  let ps = random_square 53 20 in
  let plan = Pipeline.plan ~params:p `Global ps in
  let s = Pipeline.describe plan in
  Alcotest.(check bool) "mentions nodes" true (String.length s > 10)

let () =
  Alcotest.run "wa_core"
    [
      ( "conflict",
        [
          Alcotest.test_case "eval" `Quick test_conflict_eval;
          Alcotest.test_case "power-law delta" `Quick test_conflict_power_law_delta;
          Alcotest.test_case "validation" `Quick test_conflict_validation;
          Alcotest.test_case "pairs" `Quick test_conflict_pairs;
          Alcotest.test_case "shared endpoint" `Quick test_conflict_shared_endpoint_always;
          Alcotest.test_case "graph monotone" `Quick test_conflict_graph_monotone;
          Alcotest.test_case "inductive independence constant" `Quick test_inductive_independence_constant;
          Alcotest.test_case "inductive independence exact" `Quick test_inductive_independence_exact_small;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "MST constant buckets" `Quick test_refinement_mst_constant;
          Alcotest.test_case "partition" `Quick test_refinement_partition;
          Alcotest.test_case "lemma-1 pressure" `Quick test_refinement_lemma1_pressure;
          Alcotest.test_case "kappa validation" `Quick test_refinement_kappa_validation;
        ] );
      ( "agg_tree",
        [
          Alcotest.test_case "mst" `Quick test_agg_tree_mst;
          Alcotest.test_case "fast MST path" `Quick test_agg_tree_fast_mst_path;
          Alcotest.test_case "link_of_node" `Quick test_agg_tree_link_of_node;
          Alcotest.test_case "singleton rejected" `Quick test_agg_tree_singleton_rejected;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "of_slots" `Quick test_schedule_of_slots;
          Alcotest.test_case "covers" `Quick test_schedule_covers;
          Alcotest.test_case "repair fixes" `Quick test_schedule_repair_fixes;
          Alcotest.test_case "repair noop" `Quick test_schedule_repair_noop_on_valid;
          Alcotest.test_case "repair large slot" `Quick test_schedule_repair_large_slot;
          Alcotest.test_case "witness power" `Quick test_schedule_witness_power;
        ] );
      ( "greedy_schedule",
        [
          Alcotest.test_case "all modes valid" `Quick test_greedy_modes_valid;
          Alcotest.test_case "coloring proper" `Quick test_greedy_coloring_proper;
          Alcotest.test_case "gamma monotone" `Quick test_greedy_gamma_effect;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "fig1" `Quick test_simulator_fig1;
          Alcotest.test_case "rate matches schedule" `Quick test_simulator_rate_matches_schedule;
          Alcotest.test_case "overdriven buffers" `Quick test_simulator_overdriven_buffers_grow;
          Alcotest.test_case "latency bound" `Quick test_simulator_latency_bound;
          Alcotest.test_case "drop policy" `Quick test_simulator_drop_policy;
          Alcotest.test_case "deterministic readings" `Quick test_simulator_reading_deterministic;
          Alcotest.test_case "config validation" `Quick test_simulator_config_validation;
          Alcotest.test_case "non-covering rejected" `Quick test_simulator_rejects_non_covering;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "valid" `Quick test_distributed_valid;
          Alcotest.test_case "deterministic" `Quick test_distributed_deterministic_seed;
          Alcotest.test_case "rejects fixed" `Quick test_distributed_rejects_fixed;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "all modes" `Quick test_pipeline_all_modes;
          Alcotest.test_case "custom tree" `Quick test_pipeline_custom_tree;
          Alcotest.test_case "describe" `Quick test_pipeline_describe;
        ] );
    ]
