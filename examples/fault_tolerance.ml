(* Robustness features: Rayleigh fading with retransmission (Sec. 3.1
   "robustness and temporal variability") and k-edge-connected
   aggregation structures (Remark 2).

   Run with: dune exec examples/fault_tolerance.exe *)

module P = Wa_sinr.Params
module Power = Wa_sinr.Power
module Schedule = Wa_core.Schedule
module Simulator = Wa_core.Simulator
module Pipeline = Wa_core.Pipeline
module K_connectivity = Wa_core.K_connectivity
module Refinement = Wa_core.Refinement

let p = P.default

let () =
  let rng = Wa_util.Rng.create 55 in
  let field = Wa_instances.Random_deploy.uniform_square rng ~n:100 ~side:1000.0 in

  (* --- Rayleigh fading ------------------------------------------------ *)
  print_endline "=== Rayleigh fading with ack/retransmission ===";
  let plan = Pipeline.plan ~params:p (`Oblivious 0.5) field in
  let sched = plan.Pipeline.schedule in
  let horizon = 150 * Schedule.length sched in
  let clean =
    Simulator.run plan.Pipeline.agg sched (Simulator.config ~horizon sched)
  in
  let faded =
    Simulator.run plan.Pipeline.agg sched
      (Simulator.config
         ~interference:
           (Simulator.Rayleigh { params = p; power = Power.Oblivious 0.5; seed = 1 })
         ~policy:Simulator.Drop ~horizon sched)
  in
  Printf.printf "schedule: %d slots; clean steady rate %.4f\n"
    (Schedule.length sched) clean.Simulator.steady_rate;
  Printf.printf
    "under fading: %d lost receptions, steady rate %.4f (%.0f%% of clean),\n"
    faded.Simulator.violations faded.Simulator.steady_rate
    (100.0 *. faded.Simulator.steady_rate /. clean.Simulator.steady_rate);
  Printf.printf "every delivered aggregate still exact: %b\n\n"
    faded.Simulator.aggregates_correct;

  (* --- k-connectivity -------------------------------------------------- *)
  print_endline "=== k-edge-connected aggregation structures (Remark 2) ===";
  Printf.printf "%-3s %6s %12s %10s %8s\n" "k" "links" "k-connected" "pressure" "slots";
  List.iter
    (fun k ->
      let kc = K_connectivity.build ~k field in
      let sched, _ =
        K_connectivity.schedule p kc Wa_core.Greedy_schedule.Global_power
      in
      Printf.printf "%-3d %6d %12b %10.2f %8d\n" k
        (Wa_sinr.Linkset.size kc.K_connectivity.links)
        (K_connectivity.is_k_edge_connected kc)
        (Refinement.longer_pressure p kc.K_connectivity.links)
        (Schedule.length sched))
    [ 1; 2; 3 ];
  print_endline
    "\nslots grow polynomially with the redundancy k, never with n — the";
  print_endline "paper's Remark-2 extension, measured."
