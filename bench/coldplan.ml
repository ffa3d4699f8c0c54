(* End-to-end cold-plan latency harness (PR 6).

   Times a cold [Pipeline.plan] (no cache, fresh pointset) at
   n ∈ {2000, 20000, 200000} on the canonical deployment (uniform
   square, side 1000, seed 42, MST links, global power), with
   per-stage spans read back from [Wa_obs] so regressions are
   attributable to a stage, not just to the total.

   Usage: coldplan.exe [--quick] [--huge] [--json PATH] [--smoke MS]

   --quick   n ∈ {500, 2000} (for CI / bench-smoke)
   --huge    append n = 1000000 to the size list
   --json    output path (default BENCH_PR6.json)
   --smoke   assert the n=2000 cold plan lands under MS milliseconds
             (exit 1 otherwise) — the CI regression guard *)

module Pipeline = Wa_core.Pipeline
module Json = Wa_util.Json

let stages =
  [
    "plan.mst";
    "plan.index";
    "plan.conflict";
    "plan.color";
    "plan.validate";
    "plan.affectance";
    "plan.diversity";
  ]

let deployment n =
  Wa_instances.Random_deploy.uniform_square (Wa_util.Rng.create 42) ~n
    ~side:1000.0

let run_one ?pressure n =
  let ps = deployment n in
  Wa_obs.enable ();
  Wa_obs.reset ();
  let plan, total_ms =
    Wa_obs.Trace.timed "coldplan" (fun () ->
        Pipeline.plan ?pressure `Global ps)
  in
  let report = Wa_obs.Report.capture () in
  Wa_obs.disable ();
  Wa_obs.reset ();
  let stage_ms =
    List.filter_map
      (fun s ->
        Option.map (fun ms -> (s, ms)) (Wa_obs.Report.span_ms report s))
      stages
  in
  (plan, total_ms, stage_ms)

(* Above this size the exact n²/2 pressure pass alone would run for
   minutes, so the harness switches the telemetry stage to the
   certified far-field evaluator; the row records which mode ran. *)
let exact_pressure_limit = 20000

(* The bench host's clock drifts run to run (±30% observed), so the
   small sizes report the median of [reps] independent cold runs —
   each run still plans from scratch; nothing is cached between them.
   Large sizes run once: a multi-minute run averages the drift out by
   itself. *)
let rep_limit = 20000

let median_run ~reps ?pressure n =
  let runs = List.init reps (fun _ -> run_one ?pressure n) in
  let sorted =
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) runs
  in
  List.nth sorted (reps / 2)

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let rec find_value flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find_value flag rest
    | [] -> None
  in
  let json_path = Option.value ~default:"BENCH_PR6.json" (find_value "--json" args) in
  let smoke_ms = Option.map float_of_string (find_value "--smoke" args) in
  let sizes =
    (if has "--quick" then [ 500; 2000 ] else [ 2000; 20000; 200000 ])
    @ (if has "--huge" then [ 1000000 ] else [])
  in
  let rows =
    List.map
      (fun n ->
        let exact = n <= exact_pressure_limit in
        let pressure = if exact then `Exact else `Approx 1e-3 in
        let reps = if n <= rep_limit then 3 else 1 in
        let plan, total_ms, stage_ms = median_run ~reps ~pressure n in
        Printf.printf "n=%7d  cold plan %10.1f ms  (%d slots%s, pressure %s)\n%!"
          n total_ms
          (Pipeline.slots plan)
          (if plan.Pipeline.valid then "" else ", INVALID")
          (if exact then "exact" else "approx 1e-3");
        List.iter (fun (s, ms) -> Printf.printf "  %-18s %10.1f ms\n" s ms) stage_ms;
        (* Approximate far-field pressure at the same size: fidelity
           and speed vs the exact evaluator the row above just ran
           (redundant when the row itself had to run approx). *)
        let approx_total_ms, approx_pressure =
          if exact then begin
            let _, approx_total_ms, approx_stages =
              run_one ~pressure:(`Approx 1e-3) n
            in
            let approx_pressure =
              Option.value ~default:0.0
                (List.assoc_opt "plan.affectance" approx_stages)
            in
            Printf.printf "  %-18s %10.1f ms (approx tol 1e-3; total %.1f ms)\n%!"
              "plan.affectance" approx_pressure approx_total_ms;
            (approx_total_ms, approx_pressure)
          end
          else
            ( total_ms,
              Option.value ~default:0.0
                (List.assoc_opt "plan.affectance" stage_ms) )
        in
        ( n,
          total_ms,
          Json.Obj
            [
              ("n", Int n);
              ("links", Int (Wa_core.Agg_tree.link_count plan.Pipeline.agg));
              ("slots", Int (Pipeline.slots plan));
              ("valid", Bool plan.Pipeline.valid);
              ("pressure_mode", String (if exact then "exact" else "approx_1e-3"));
              ("reps", Int reps);
              ("total_ms", Float total_ms);
              ("approx_total_ms", Float approx_total_ms);
              ("pressure_approx_ms", Float approx_pressure);
              ( "stages_ms",
                Obj (List.map (fun (s, ms) -> (s, Json.Float ms)) stage_ms) );
            ] ))
      sizes
  in
  let doc =
    Json.Obj
      [
        ("benchmark", String "cold-plan end-to-end latency");
        ("deployment", String "uniform square, side 1000, seed 42, MST links");
        ("power_mode", String "global");
        ("engine", String "indexed");
        ("domains", Int (Wa_util.Parallel.available_domains ()));
        ("rows", List (List.map (fun (_, _, j) -> j) rows));
      ]
  in
  let oc = open_out json_path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  match smoke_ms with
  | None -> ()
  | Some budget -> (
      match List.find_opt (fun (n, _, _) -> n = 2000) rows with
      | None -> prerr_endline "smoke: no n=2000 row to gate on"
      | Some (_, total_ms, _) ->
          if total_ms > budget then begin
            Printf.eprintf
              "FATAL: cold plan at n=2000 took %.1f ms, over the %.0f ms \
               budget\n"
              total_ms budget;
            exit 1
          end
          else
            Printf.printf "smoke: cold plan n=2000 %.1f ms <= %.0f ms budget\n%!"
              total_ms budget)
