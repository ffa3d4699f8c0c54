(* Command-line interface to the wireless-aggregation library.

   Subcommands:
     plan        build and validate an aggregation schedule for a deployment
     simulate    run the convergecast simulator on a plan
     median      order-statistics queries over counting convergecasts
     kconnect    k-edge-connected structures (Remark 2)
     experiment  regenerate one or all of the paper's tables/figures
     serve       run the resident plan server (JSON-lines over TCP)
     fleet       spawn N plan servers behind a consistent-hash router
     client      send one operation to a running plan server
     top         live telemetry dashboard for a running server or fleet
     list        list available experiments *)

module Pipeline = Wa_core.Pipeline
module Agg_tree = Wa_core.Agg_tree
module Simulator = Wa_core.Simulator
module Params = Wa_sinr.Params
module Rng = Wa_util.Rng

open Cmdliner

(* Shared arguments ---------------------------------------------------- *)

let seed_arg =
  let doc = "PRNG seed for the deployment." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let nodes_arg =
  let doc = "Number of sensor nodes." in
  Arg.(value & opt int 100 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let side_arg =
  let doc = "Side of the deployment square." in
  Arg.(value & opt float 1000.0 & info [ "side" ] ~docv:"S" ~doc)

let deploy_arg =
  let doc =
    "Deployment family: uniform | disk | grid | clusters | line | expline."
  in
  Arg.(value & opt string "uniform" & info [ "deploy" ] ~docv:"KIND" ~doc)

let power_arg =
  let doc =
    "Power mode: global | oblivious:<tau> | uniform | linear (e.g. \
     oblivious:0.5)."
  in
  Arg.(value & opt string "global" & info [ "power" ] ~docv:"MODE" ~doc)

let alpha_arg =
  let doc = "Path-loss exponent alpha (> 2)." in
  Arg.(value & opt float 3.0 & info [ "alpha" ] ~doc)

let beta_arg =
  let doc = "SINR threshold beta (> 0)." in
  Arg.(value & opt float 1.0 & info [ "beta" ] ~doc)

let quick_arg =
  let doc = "Use reduced experiment sizes." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Telemetry ------------------------------------------------------------ *)

type telemetry = {
  verbosity : int;
  trace_out : string option;
  metrics_out : string option;
  prom_out : string option;
}

let telemetry_arg =
  let verbose =
    let doc =
      "Log subsystem activity to stderr (repeat for debug) and print a \
       telemetry summary after the run."
    in
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  in
  let trace_out =
    let doc = "Write pipeline spans to this file as JSON lines." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc = "Write the metrics registry to this file as JSON." in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let prom_out =
    let doc =
      "Write the metrics registry as a Prometheus text exposition to this \
       file (under $(b,serve): rewritten every $(b,--prom-interval) seconds \
       while the server runs)."
    in
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"FILE" ~doc)
  in
  let make v t m p =
    { verbosity = List.length v; trace_out = t; metrics_out = m; prom_out = p }
  in
  Term.(const make $ verbose $ trace_out $ metrics_out $ prom_out)

let write_telemetry tel =
  let report = Wa_obs.Report.capture () in
  let ( let* ) = Result.bind in
  let* () =
    match tel.trace_out with
    | None -> Ok ()
    | Some path -> (
        Wa_obs.Export.write_trace path report;
        (* Parse back what we just wrote: malformed telemetry should
           fail the run, not the analysis three tools later. *)
        match Wa_obs.Export.validate_trace_file path with
        | Ok n ->
            Printf.printf "wrote %d span(s) to %s\n" n path;
            Ok ()
        | Error m -> Error (`Msg ("trace self-check failed: " ^ m)))
  in
  let* () =
    match tel.metrics_out with
    | None -> Ok ()
    | Some path -> (
        Wa_obs.Export.write_metrics path report;
        match Wa_obs.Export.validate_metrics_file path with
        | Ok _ ->
            Printf.printf "wrote metrics to %s\n" path;
            Ok ()
        | Error m -> Error (`Msg ("metrics self-check failed: " ^ m)))
  in
  let* () =
    match tel.prom_out with
    | None -> Ok ()
    | Some path ->
        Wa_obs.Export.write_prometheus path report;
        Printf.printf "wrote prometheus exposition to %s\n" path;
        Ok ()
  in
  if tel.verbosity > 0 then
    Format.eprintf "%a@." Wa_obs.Report.pp report;
  Ok ()

(* Runs every subcommand body: installs the source-tagged reporter (so
   degraded-path warnings are visible by default), and when any
   telemetry output was requested enables the sink and exports after
   the run. *)
let with_telemetry tel f =
  Wa_obs.Log.setup ?level:(Wa_obs.Log.level_of_verbosity tel.verbosity) ();
  let wanted =
    tel.trace_out <> None || tel.metrics_out <> None || tel.prom_out <> None
    || tel.verbosity > 0
  in
  if wanted then begin
    Wa_obs.enable ();
    Wa_obs.reset ()
  end;
  match f () with
  | Error _ as e -> e
  | Ok () -> if wanted then write_telemetry tel else Ok ()

let parse_power s =
  match String.lowercase_ascii s with
  | "global" -> Ok `Global
  | "uniform" -> Ok `Uniform
  | "linear" -> Ok `Linear
  | s when String.length s > 10 && String.sub s 0 10 = "oblivious:" -> (
      match float_of_string_opt (String.sub s 10 (String.length s - 10)) with
      | Some tau when tau > 0.0 && tau < 1.0 -> Ok (`Oblivious tau)
      | _ -> Error (`Msg "oblivious tau must lie strictly in (0,1)"))
  | _ -> Error (`Msg ("unknown power mode: " ^ s))

let make_deployment kind ~seed ~n ~side params =
  let rng = Rng.create seed in
  match String.lowercase_ascii kind with
  | "uniform" -> Ok (Wa_instances.Random_deploy.uniform_square rng ~n ~side)
  | "disk" ->
      Ok (Wa_instances.Random_deploy.uniform_disk rng ~n ~radius:(side /. 2.0))
  | "grid" ->
      let r = max 2 (int_of_float (sqrt (float_of_int n))) in
      Ok
        (Wa_instances.Random_deploy.grid ~rows:r ~cols:r
           ~spacing:(side /. float_of_int r))
  | "clusters" ->
      let c = max 2 (n / 20) in
      Ok
        (Wa_instances.Random_deploy.clusters rng ~clusters:c
           ~per_cluster:(max 1 (n / c)) ~side ~spread:(side /. 200.0))
  | "line" -> Ok (Wa_instances.Random_deploy.uniform_line rng ~n ~length:side)
  | "expline" ->
      let nmax = Wa_instances.Exp_line.max_float_points params ~tau:0.5 in
      Ok (Wa_instances.Exp_line.pointset params ~tau:0.5 ~n:(min n nmax))
  | k -> Error (`Msg ("unknown deployment kind: " ^ k))

let build_params alpha beta =
  match Params.make ~alpha ~beta () with
  | p -> Ok p
  | exception Invalid_argument m -> Error (`Msg m)

(* plan ----------------------------------------------------------------- *)

let json_arg =
  let doc = "Write the plan (nodes, links, schedule) to this file as JSON." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let dot_arg =
  let doc = "Write a Graphviz rendering of the scheduled tree to this file." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let points_in_arg =
  let doc = "Read the deployment from a CSV file (x,y per line) instead of \
             generating one." in
  Arg.(value & opt (some string) None & info [ "points" ] ~docv:"FILE" ~doc)

let obtain_deployment points_in deploy ~seed ~n ~side params =
  match points_in with
  | Some path -> Wa_io.Pointset_io.read_file path |> Result.map_error (fun m -> `Msg m)
  | None -> make_deployment deploy ~seed ~n ~side params

let audit_arg =
  let doc =
    "Re-verify the finished plan with the runtime invariant auditor \
     (slot partition, per-slot SINR, tree rootedness, conflict-graph \
     engine agreement, telemetry consistency) and print its exact \
     Lemma-1 pressure.  Exits non-zero on any violation."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let run_plan seed n side deploy power alpha beta json dot points_in audit tel =
  with_telemetry tel @@ fun () ->
  let ( let* ) = Result.bind in
  let* params = build_params alpha beta in
  let* mode = parse_power power in
  let* ps = obtain_deployment points_in deploy ~seed ~n ~side params in
  let plan = Pipeline.plan ~params ~audit mode ps in
  Printf.printf "deployment: %s (n=%d, seed=%d)\n"
    (match points_in with Some f -> f | None -> deploy)
    (Wa_geom.Pointset.size ps) seed;
  Printf.printf "plan: %s\n" (Pipeline.describe plan);
  Printf.printf "raw colors: %d, repair added: %d\n" plan.Pipeline.raw_colors
    plan.Pipeline.repair_added;
  Printf.printf "schedule verified: %b\n" plan.Pipeline.valid;
  Printf.printf "tree depth: %d links\n" (Agg_tree.depth_in_links plan.Pipeline.agg);
  Option.iter
    (fun path ->
      Wa_io.Export.write_string path
        (Wa_util.Json.to_string (Wa_io.Export.plan_to_json plan));
      Printf.printf "wrote JSON to %s\n" path)
    json;
  Option.iter
    (fun path ->
      Wa_io.Export.write_string path (Wa_io.Export.plan_to_dot plan);
      Printf.printf "wrote DOT to %s (render: neato -n2 -Tsvg)\n" path)
    dot;
  match plan.Pipeline.audit with
  | None -> Ok ()
  | Some report ->
      (* Lemma-1 pressure is a proof quantity, not plan input: only the
         audit run measures it, and prints it beside the audit report. *)
      Printf.printf "Lemma-1 pressure: %.2f\n"
        (Wa_core.Refinement.longer_pressure params
           plan.Pipeline.agg.Agg_tree.links);
      Format.printf "%a@." Wa_analysis.Audit.pp_report report;
      (* Wall time goes to stderr, so stdout stays reproducible. *)
      if tel.verbosity > 0 then
        Printf.eprintf "audit time: %.2f ms\n%!"
          report.Wa_analysis.Audit.elapsed_ms;
      if Wa_analysis.Audit.ok report then Ok ()
      else Error (`Msg "audit failed: plan violates its invariants")

let plan_cmd =
  let term =
    Term.(
      const run_plan $ seed_arg $ nodes_arg $ side_arg $ deploy_arg $ power_arg
      $ alpha_arg $ beta_arg $ json_arg $ dot_arg $ points_in_arg $ audit_arg
      $ telemetry_arg)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Build and validate an aggregation schedule.")
    (Term.term_result term)

(* generate --------------------------------------------------------------- *)

let out_arg =
  let doc = "Output CSV file for the generated deployment." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let run_generate seed n side deploy alpha beta out =
  let ( let* ) = Result.bind in
  let* params = build_params alpha beta in
  let* ps = make_deployment deploy ~seed ~n ~side params in
  Wa_io.Pointset_io.write_file out ps;
  Printf.printf "wrote %d points to %s\n" (Wa_geom.Pointset.size ps) out;
  Ok ()

let generate_cmd =
  let term =
    Term.(
      const run_generate $ seed_arg $ nodes_arg $ side_arg $ deploy_arg
      $ alpha_arg $ beta_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a deployment and write it as CSV.")
    (Term.term_result term)

(* simulate -------------------------------------------------------------- *)

let periods_arg =
  let doc = "Schedule periods to simulate." in
  Arg.(value & opt int 50 & info [ "periods" ] ~docv:"P" ~doc)

let run_simulate seed n side deploy power alpha beta periods tel =
  with_telemetry tel @@ fun () ->
  let ( let* ) = Result.bind in
  let* params = build_params alpha beta in
  let* mode = parse_power power in
  let* ps = make_deployment deploy ~seed ~n ~side params in
  let plan = Pipeline.plan ~params mode ps in
  let r = Pipeline.simulate ~horizon_periods:periods plan in
  Printf.printf "plan: %s\n" (Pipeline.describe plan);
  Printf.printf "frames: generated %d, delivered %d\n"
    r.Simulator.frames_generated r.Simulator.frames_delivered;
  Printf.printf "rate: achieved %.4f, steady %.4f (schedule %.4f)\n"
    r.Simulator.achieved_rate r.Simulator.steady_rate (Pipeline.rate plan);
  Printf.printf "latency: mean %.1f, max %d slots\n" r.Simulator.mean_latency
    r.Simulator.max_latency;
  Printf.printf "max buffered frames: %d\n" r.Simulator.max_buffer;
  Printf.printf "aggregates correct: %b, violations: %d, idle slots: %d\n"
    r.Simulator.aggregates_correct r.Simulator.violations r.Simulator.idle_slots;
  Ok ()

let simulate_cmd =
  let term =
    Term.(
      const run_simulate $ seed_arg $ nodes_arg $ side_arg $ deploy_arg
      $ power_arg $ alpha_arg $ beta_arg $ periods_arg $ telemetry_arg)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the convergecast simulator on a plan.")
    (Term.term_result term)

(* experiment ------------------------------------------------------------ *)

let ids_arg =
  let doc = "Experiment ids (F1..F5, T1..T14); all when omitted." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let run_experiment quick ids tel =
  with_telemetry tel @@ fun () ->
  match ids with
  | [] ->
      Wa_experiments.Experiments.run_all ~quick ();
      Ok ()
  | ids -> (
      try
        Wa_experiments.Experiments.run_all ~quick ~ids ();
        Ok ()
      with Failure m -> Error (`Msg m))

let experiment_cmd =
  let term = Term.(const run_experiment $ quick_arg $ ids_arg $ telemetry_arg) in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (see DESIGN.md).")
    (Term.term_result term)

(* median ----------------------------------------------------------------- *)

let run_median seed n side deploy power alpha beta =
  let ( let* ) = Result.bind in
  let* params = build_params alpha beta in
  let* mode = parse_power power in
  let* ps = make_deployment deploy ~seed ~n ~side params in
  let plan = Pipeline.plan ~params mode ps in
  let rng = Rng.create (seed + 99) in
  let values = Array.init (Wa_geom.Pointset.size ps) (fun _ -> Rng.int rng 10_000) in
  let readings node = values.(node) in
  let r =
    Wa_core.Functions.median ~range:(0, 10_000) ~readings plan.Pipeline.agg
      plan.Pipeline.schedule
  in
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  Printf.printf "plan: %s\n" (Pipeline.describe plan);
  Printf.printf "true median: %d\n" sorted.(((Array.length sorted + 1) / 2) - 1);
  Printf.printf "network-computed median: %d\n" r.Wa_core.Functions.value;
  Printf.printf "cost: %d probes x %d slots = %d slots\n"
    r.Wa_core.Functions.probes r.Wa_core.Functions.probe_latency
    r.Wa_core.Functions.slots_used;
  Ok ()

let median_cmd =
  let term =
    Term.(
      const run_median $ seed_arg $ nodes_arg $ side_arg $ deploy_arg $ power_arg
      $ alpha_arg $ beta_arg)
  in
  Cmd.v
    (Cmd.info "median"
       ~doc:"Compute the median reading by counting convergecasts (Sec 3.1).")
    (Term.term_result term)

(* kconnect --------------------------------------------------------------- *)

let k_arg =
  let doc = "Redundancy level (edge-disjoint spanning trees)." in
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc)

let run_kconnect seed n side deploy alpha beta k =
  let ( let* ) = Result.bind in
  let* params = build_params alpha beta in
  let* ps = make_deployment deploy ~seed ~n ~side params in
  match Wa_core.K_connectivity.build ~k ps with
  | exception Invalid_argument m -> Error (`Msg m)
  | kc ->
      let sched, repairs =
        Wa_core.K_connectivity.schedule params kc Wa_core.Greedy_schedule.Global_power
      in
      Printf.printf "k = %d: %d links over %d nodes\n" k
        (Wa_sinr.Linkset.size kc.Wa_core.K_connectivity.links)
        (Wa_geom.Pointset.size ps);
      Printf.printf "k-edge-connected: %b\n"
        (Wa_core.K_connectivity.is_k_edge_connected kc);
      Printf.printf "Lemma-1 pressure: %.2f\n"
        (Wa_core.Refinement.longer_pressure params
           kc.Wa_core.K_connectivity.links);
      Printf.printf "verified schedule: %d slots (%d repair splits)\n"
        (Wa_core.Schedule.length sched) repairs;
      Ok ()

let kconnect_cmd =
  let term =
    Term.(
      const run_kconnect $ seed_arg $ nodes_arg $ side_arg $ deploy_arg
      $ alpha_arg $ beta_arg $ k_arg)
  in
  Cmd.v
    (Cmd.info "kconnect"
       ~doc:"Build and schedule a k-edge-connected structure (Remark 2).")
    (Term.term_result term)

(* serve ------------------------------------------------------------------ *)

let host_arg =
  let doc = "Host/interface to bind or connect to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "TCP port (0 binds an ephemeral port when serving)." in
  Arg.(value & opt int 7461 & info [ "port" ] ~docv:"PORT" ~doc)

let run_serve host port name peers workers queue_capacity cache_entries
    cache_mb max_sessions prom_interval tel =
  with_telemetry tel @@ fun () ->
  let config =
    {
      Wa_service.Server.default_config with
      host;
      port;
      name;
      peers;
      workers;
      queue_capacity;
      cache_entries;
      cache_bytes = cache_mb * 1024 * 1024;
      max_sessions;
      prom_out = tel.prom_out;
      prom_interval_s = prom_interval;
    }
  in
  match Wa_service.Server.create config with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (`Msg
          (Printf.sprintf "cannot listen on %s:%d: %s" host port
             (Unix.error_message e)))
  | srv ->
      let stop _ = Wa_service.Server.stop srv in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Printf.printf "wa_service listening on %s:%d\n%!" host
        (Wa_service.Server.port srv);
      Wa_service.Server.run srv;
      Printf.printf "%s\n" (Wa_service.Server.summary srv);
      Ok ()

let name_arg =
  let doc =
    "Shard name when serving inside a fleet: the gossip origin echoed in \
     cache advertisements."
  in
  Arg.(value & opt string "" & info [ "name" ] ~docv:"NAME" ~doc)

let peer_arg =
  let doc = "Cache-gossip peer as HOST:PORT (repeatable)." in
  Arg.(
    value
    & opt_all (pair ~sep:':' string int) []
    & info [ "peer" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let workers =
    let doc =
      "Pool workers (default: available domains - 1, at least 1).  A \
       worker is a domain while the process has a CPU for one, and a \
       thread of the main domain beyond that."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"W" ~doc)
  in
  let queue_capacity =
    let doc = "Bounded request-queue capacity; beyond it requests are \
               answered with an overloaded error." in
    Arg.(value & opt int 128 & info [ "queue-capacity" ] ~docv:"Q" ~doc)
  in
  let cache_entries =
    let doc = "Maximum plan-cache entries (LRU beyond this)." in
    Arg.(value & opt int 128 & info [ "cache-entries" ] ~docv:"E" ~doc)
  in
  let cache_mb =
    let doc = "Plan-cache budget in MiB." in
    Arg.(value & opt int 256 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let max_sessions =
    let doc = "Maximum concurrent churn sessions." in
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"S" ~doc)
  in
  let prom_interval =
    let doc = "Seconds between Prometheus exposition rewrites (with \
               --prom-out)." in
    Arg.(value & opt float 5.0 & info [ "prom-interval" ] ~docv:"SEC" ~doc)
  in
  let term =
    Term.(
      const run_serve $ host_arg $ port_arg $ name_arg $ peer_arg $ workers
      $ queue_capacity $ cache_entries $ cache_mb $ max_sessions
      $ prom_interval $ telemetry_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the plan server: a JSON-lines TCP service with a \
          content-addressed plan cache and stateful churn sessions \
          (DESIGN.md, section 11).  SIGINT/SIGTERM drain gracefully.")
    (Term.term_result term)

(* fleet ------------------------------------------------------------------ *)

let run_fleet host port shards base_port queue_capacity cache_entries cache_mb
    max_sessions gossip_fanout prom_interval tel =
  with_telemetry tel @@ fun () ->
  let module O = Wa_fleet.Orchestrator in
  let module R = Wa_fleet.Router in
  if shards < 1 then Error (`Msg "fleet: need at least one shard")
  else begin
    (* Each backend is this very binary running [serve]; gossip peers
       are its ring successors, handed down by the orchestrator. *)
    let make_argv ~name ~port ~peers =
      let base =
        [
          Sys.executable_name; "serve"; "--host"; "127.0.0.1"; "--port";
          string_of_int port; "--name"; name; "--queue-capacity";
          string_of_int queue_capacity; "--cache-entries";
          string_of_int cache_entries; "--cache-mb"; string_of_int cache_mb;
          "--max-sessions"; string_of_int max_sessions;
        ]
      in
      let peer_args =
        List.concat_map
          (fun (h, p) -> [ "--peer"; Printf.sprintf "%s:%d" h p ])
          peers
      in
      Array.of_list (base @ peer_args)
    in
    let ocfg =
      {
        (O.default_config ~make_argv) with
        base_port;
        count = shards;
        gossip_fanout;
      }
    in
    let orch = O.create ocfg in
    Fun.protect ~finally:(fun () -> O.stop_all orch) @@ fun () ->
    if not (O.wait_ready orch) then
      Error (`Msg "fleet: a backend never became ready")
    else begin
      let rcfg =
        {
          (R.default_config ~backends:(O.backend_addrs orch)) with
          host;
          port;
          prom_out = tel.prom_out;
          prom_interval_s = prom_interval;
        }
      in
      match R.create rcfg with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (`Msg
              (Printf.sprintf "fleet: cannot listen on %s:%d: %s" host port
                 (Unix.error_message e)))
      | router ->
          let stop _ = R.stop router in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Printf.printf
            "wa fleet: %d shard%s on 127.0.0.1:%d-%d, router on %s:%d\n%!"
            shards
            (if shards = 1 then "" else "s")
            base_port
            (base_port + shards - 1)
            host (R.port router);
          (* The router owns the main domain; a sidecar thread reaps
             and restarts crashed members until the router exits.  It
             sleeps most of the time, so it is a systhread of the main
             domain rather than a domain of its own. *)
          let sup_mu = Mutex.create () in
          let sup_stop = ref false in
          let sup =
            Thread.create
              (fun () ->
                let rec watch () =
                  Unix.sleepf 0.5;
                  if not (Mutex.protect sup_mu (fun () -> !sup_stop))
                  then begin
                    (match O.supervise orch with
                    | [] -> ()
                    | names ->
                        Printf.printf "wa fleet: restarted %s\n%!"
                          (String.concat ", " names));
                    watch ()
                  end
                in
                watch ())
              ()
          in
          R.run router;
          Mutex.protect sup_mu (fun () -> sup_stop := true);
          Thread.join sup;
          Printf.printf "%s\n" (R.summary router);
          Ok ()
    end
  end

let fleet_cmd =
  let shards =
    let doc = "Number of backend shards to spawn." in
    Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let router_port =
    let doc = "Router TCP port (0 binds an ephemeral port)." in
    Arg.(value & opt int 7460 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let base_port =
    let doc = "Backend $(i,i) listens on BASE+$(i,i)." in
    Arg.(value & opt int 7471 & info [ "base-port" ] ~docv:"BASE" ~doc)
  in
  let queue_capacity =
    let doc = "Per-backend bounded request-queue capacity." in
    Arg.(value & opt int 128 & info [ "queue-capacity" ] ~docv:"Q" ~doc)
  in
  let cache_entries =
    let doc = "Per-backend plan-cache entries (LRU beyond this)." in
    Arg.(value & opt int 128 & info [ "cache-entries" ] ~docv:"E" ~doc)
  in
  let cache_mb =
    let doc = "Per-backend plan-cache budget in MiB." in
    Arg.(value & opt int 256 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let max_sessions =
    let doc = "Per-backend maximum concurrent churn sessions." in
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"S" ~doc)
  in
  let gossip_fanout =
    let doc = "Ring successors each shard advertises cache fills to." in
    Arg.(value & opt int 2 & info [ "gossip-fanout" ] ~docv:"K" ~doc)
  in
  let prom_interval =
    let doc = "Seconds between Prometheus exposition rewrites (with \
               --prom-out)." in
    Arg.(value & opt float 5.0 & info [ "prom-interval" ] ~docv:"SEC" ~doc)
  in
  let term =
    Term.(
      const run_fleet $ host_arg $ router_port $ shards $ base_port
      $ queue_capacity $ cache_entries $ cache_mb $ max_sessions
      $ gossip_fanout $ prom_interval $ telemetry_arg)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Spawn N plan-server shards and front them with the \
          consistent-hash router: plan requests route by content \
          digest so the aggregate cache capacity scales with the \
          fleet, broadcast ops fan out and merge, failed shards are \
          circuit-broken, drained onto survivors and restarted \
          (DESIGN.md, section 16).  SIGINT/SIGTERM tear the fleet \
          down.")
    (Term.term_result term)

(* top -------------------------------------------------------------------- *)

let fmt_ms v = if Float.is_nan v then "      -" else Printf.sprintf "%7.2f" v

let render_top host port (t : Wa_service.Protocol.telemetry_summary) =
  let module P = Wa_service.Protocol in
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "wa top - %s:%d   uptime %.1fs   window %.1fs (%d roll%s)" host port
    t.P.tel_uptime_s t.P.tel_window_s t.P.tel_windows
    (if t.P.tel_windows = 1 then "" else "s");
  line "in-flight %d   queue %d   sessions %d" t.P.tel_in_flight
    t.P.tel_queue_depth t.P.tel_sessions;
  let c = t.P.tel_cache in
  let lookups = c.P.cs_hits + c.P.cs_misses in
  let hit_pct =
    if lookups = 0 then 0.0
    else 100.0 *. float_of_int c.P.cs_hits /. float_of_int lookups
  in
  line "cache %d entries / %.1f MiB   hit %.1f%% (%d/%d)   coalesced %d   \
        evicted %d"
    c.P.cs_entries
    (float_of_int c.P.cs_bytes /. 1048576.0)
    hit_pct c.P.cs_hits lookups c.P.cs_coalesced c.P.cs_evictions;
  let g = t.P.tel_gc in
  line "gc heap %.1f MiB   minor %d   major %d   compactions %d"
    (float_of_int (g.P.gc_heap_words * 8) /. 1048576.0)
    g.P.gc_minor_collections g.P.gc_major_collections g.P.gc_compactions;
  line "";
  line "%-16s %8s %7s %7s %7s %7s" "op" "count" "p50" "p90" "p99" "max(ms)";
  (match t.P.tel_ops with
  | [] -> line "  (no requests in the window yet)"
  | ops ->
      List.iter
        (fun (o : P.op_latency) ->
          line "%-16s %8d %s %s %s %s" o.P.ol_op o.P.ol_count
            (fmt_ms o.P.ol_p50_ms) (fmt_ms o.P.ol_p90_ms)
            (fmt_ms o.P.ol_p99_ms) (fmt_ms o.P.ol_max_ms))
        ops);
  (match t.P.tel_fleet with
  | None -> ()
  | Some fl ->
      line "";
      line "fleet   rerouted %d   peek hits %d   gossip keys %d"
        fl.P.fl_rerouted fl.P.fl_peek_hits fl.P.fl_gossip_keys;
      line "%-10s %-6s %6s %6s %9s %6s %7s %7s %7s" "backend" "state" "queue"
        "infl" "requests" "fails" "hit%" "p50" "p99(ms)";
      List.iter
        (fun (be : P.backend_row) ->
          let state =
            if be.P.be_draining then "drain"
            else if be.P.be_healthy then "up"
            else "down"
          in
          let hit =
            if Float.is_nan be.P.be_hit_ratio then "      -"
            else Printf.sprintf "%6.1f%%" (100.0 *. be.P.be_hit_ratio)
          in
          line "%-10s %-6s %6d %6d %9d %6d %s %s %s" be.P.be_name state
            be.P.be_queue_depth be.P.be_in_flight be.P.be_requests
            be.P.be_failures hit (fmt_ms be.P.be_p50_ms)
            (fmt_ms be.P.be_p99_ms))
        fl.P.fl_backends);
  (match t.P.tel_exemplars with
  | [] -> ()
  | exemplars ->
      line "";
      line "slowest recent:";
      List.iter
        (fun (e : P.exemplar) ->
          line "  %-14s id=%-8d %.2f ms" e.P.ex_op e.P.ex_id e.P.ex_ms)
        exemplars);
  Buffer.contents b

let run_top host port interval iterations =
  let module C = Wa_service.Client in
  let module P = Wa_service.Protocol in
  let ( let* ) = Result.bind in
  let err m = `Msg m in
  let* c = C.connect ~host ~port () |> Result.map_error err in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let tty = Unix.isatty Unix.stdout in
  let rec go i =
    let* r = C.call c P.Telemetry |> Result.map_error err in
    match r.P.body with
    | P.Telemetry_r t ->
        (* On a terminal, redraw in place; piped output just appends
           one frame per poll. *)
        if tty then print_string "\027[H\027[2J";
        print_string (render_top host port t);
        flush stdout;
        if iterations > 0 && i >= iterations then Ok ()
        else begin
          Unix.sleepf interval;
          go (i + 1)
        end
    | P.Error { message; _ } -> Error (`Msg ("telemetry refused: " ^ message))
    | _ -> Error (`Msg "unexpected response to telemetry request")
  in
  go 1

let top_cmd =
  let interval =
    let doc = "Seconds between telemetry polls." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SEC" ~doc)
  in
  let iterations =
    let doc = "Stop after this many polls (0: run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let term =
    Term.(const run_top $ host_arg $ port_arg $ interval $ iterations)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running plan server's telemetry op and render a live \
          dashboard: rolling per-op latency quantiles, cache hit rates, \
          queue depth, slow-request exemplars, GC counters.  Scrapes are \
          answered on the server's event loop, so the dashboard stays \
          live even when all workers are busy.")
    (Term.term_result term)

(* client ----------------------------------------------------------------- *)

let run_client host port deadline_ms trace op seed n side deploy power alpha
    beta gamma no_cache periods =
  let module C = Wa_service.Client in
  let module P = Wa_service.Protocol in
  let ( let* ) = Result.bind in
  let err m = `Msg m in
  let* mode = parse_power power in
  let spec =
    {
      P.deploy = P.Generate { kind = deploy; n; seed; side };
      power = mode;
      alpha;
      beta;
      gamma;
      engine = `Indexed;
      no_cache;
    }
  in
  let* c = C.connect ~host ~port () |> Result.map_error err in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* Each response is printed as its raw wire line: the client doubles
     as a protocol inspector for scripting and the docs. *)
  let step body =
    let* r = C.call ?deadline_ms ~trace c body |> Result.map_error err in
    print_endline (P.response_to_line r);
    Ok r
  in
  match op with
  | "ping" ->
      let* _ = step P.Ping in
      Ok ()
  | "plan" ->
      let* _ = step (P.Plan spec) in
      Ok ()
  | "describe" ->
      let* _ = step (P.Describe spec) in
      Ok ()
  | "simulate" ->
      let* _ = step (P.Simulate { spec; periods }) in
      Ok ()
  | "stats" ->
      let* _ = step P.Stats in
      Ok ()
  | "telemetry" ->
      let* _ = step P.Telemetry in
      Ok ()
  | "shutdown" ->
      let* _ = step P.Shutdown in
      Ok ()
  | "churn-demo" -> (
      (* Scripted session: create a network around a central sink,
         stream a few arrivals, query it, remove one node, close. *)
      let* r =
        step
          (P.Churn_create
             {
               sink = Wa_geom.Vec2.make (side /. 2.0) (side /. 2.0);
               power = mode;
               alpha;
               beta;
               gamma;
             })
      in
      match r.P.body with
      | P.Churn_created session ->
          let rng = Rng.create seed in
          let point () =
            Wa_geom.Vec2.make (Rng.float rng side) (Rng.float rng side)
          in
          let* first = step (P.Churn_add { session; point = point () }) in
          let* _ = step (P.Churn_add { session; point = point () }) in
          let* _ = step (P.Churn_add { session; point = point () }) in
          let* _ = step (P.Churn_info { session }) in
          let* () =
            match first.P.body with
            | P.Churn_r { node = Some node; _ } ->
                let* _ = step (P.Churn_remove { session; node }) in
                Ok ()
            | _ -> Ok ()
          in
          let* _ = step (P.Churn_close { session }) in
          Ok ()
      | _ -> Error (`Msg "churn-demo: session creation was refused"))
  | op ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown op %S (expected ping | plan | describe | simulate | \
              stats | telemetry | churn-demo | shutdown)"
             op))

let client_cmd =
  let op_arg =
    let doc =
      "Operation: ping | plan | describe | simulate | stats | telemetry | \
       churn-demo | shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let trace_arg =
    let doc =
      "Ask the server to return each request's span tree in the response \
       envelope (the protocol's trace flag)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in milliseconds (server-side)." in
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let gamma_arg =
    let doc = "Interference-safety margin gamma (mode default if omitted)." in
    Arg.(value & opt (some float) None & info [ "gamma" ] ~docv:"G" ~doc)
  in
  let no_cache_arg =
    (* Named --cold rather than --no-cache so that --n stays an
       unambiguous prefix of --nodes. *)
    let doc =
      "Bypass the server's plan cache — force a cold computation (the \
       protocol's no_cache flag)."
    in
    Arg.(value & flag & info [ "cold" ] ~doc)
  in
  let term =
    Term.(
      const run_client $ host_arg $ port_arg $ deadline_arg $ trace_arg
      $ op_arg $ seed_arg $ nodes_arg $ side_arg $ deploy_arg $ power_arg
      $ alpha_arg $ beta_arg $ gamma_arg $ no_cache_arg
      $ periods_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one operation (or the scripted churn-demo session) to a \
          running plan server and print the raw response lines.")
    (Term.term_result term)

(* list ------------------------------------------------------------------ *)

let run_list () =
  List.iter
    (fun (e : Wa_experiments.Experiments.t) ->
      Printf.printf "%-4s %s\n" e.Wa_experiments.Experiments.id
        e.Wa_experiments.Experiments.title)
    Wa_experiments.Experiments.all

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.") Term.(const run_list $ const ())

(* main ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "wireless_agg" ~version:"1.0.0"
      ~doc:
        "Wireless aggregation scheduling in the SINR model \
         (Halldorsson-Tonoyan, ICDCS 2018)."
  in
  exit
    (Cmd.eval (Cmd.group info
       [ plan_cmd; generate_cmd; simulate_cmd; median_cmd; kconnect_cmd;
         experiment_cmd; serve_cmd; fleet_cmd; client_cmd; top_cmd;
         list_cmd ]))
