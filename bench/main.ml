(* Benchmark & reproduction harness.

   Running this executable regenerates every table/figure of the
   reproduction (the T*/F* experiment index of DESIGN.md), runs the
   conflict-graph / validation scaling benchmarks (dense vs indexed
   engine, JSON-recorded), and then times the pipeline stages and each
   experiment with Bechamel.

   Usage:
     main.exe                 tables (full sizes) + scaling + bechamel
     main.exe --quick         reduced sizes everywhere
     main.exe --table T1      a single experiment table
     main.exe --no-bench      skip the bechamel micro-benchmarks
     main.exe --no-tables     skip the experiment tables
     main.exe --no-scaling    skip the scaling benchmarks
     main.exe --json PATH     also write the scaling timings as JSON
     main.exe --audit-bench   also measure Pipeline.plan ~audit:true
                              overhead
     main.exe --audit-json PATH  also write the audit timings as JSON

   An unknown or incomplete flag prints this usage and exits 2. *)

open Bechamel

let p = Wa_sinr.Params.default

let deployment n seed =
  Wa_instances.Random_deploy.uniform_square (Wa_util.Rng.create seed) ~n
    ~side:1000.0

(* Scaling benchmarks: the spatial-indexed conflict-graph pipeline
   against the dense O(n²) reference, on uniform MST link sets.  One
   wall-clock sample per cell — these are second-scale effects, not
   nanosecond ones, and the JSON is meant for cross-PR trajectory
   tracking, so simplicity beats OLS here. *)

let timed f = Wa_obs.Trace.timed "bench.stage" f

(* Disabled-path guard: with telemetry off every span costs one atomic
   read plus a closure call.  Measure the no-op [with_span] against a
   bare loop and fail the bench hard if the difference regresses past
   the budget — the "near-zero overhead when disabled" contract that
   lets the instrumentation stay compiled into the pipeline. *)
let overhead_budget_ns = 500.0

let span_overhead_ns () =
  Wa_obs.disable ();
  let iters = 200_000 in
  let sink = ref 0 in
  let loop traced =
    snd
      (Wa_obs.Trace.timed "overhead" (fun () ->
           if traced then
             for i = 1 to iters do
               Wa_obs.Trace.with_span "noop" (fun () -> sink := !sink + i)
             done
           else
             for i = 1 to iters do
               sink := !sink + i
             done))
  in
  let bare = loop false in
  let traced = loop true in
  ignore !sink;
  Float.max 0.0 ((traced -. bare) *. 1e6 /. float_of_int iters)

(* Whole-pipeline cost with telemetry off vs on (min of three runs
   each).  Both runs compute the same plan with the same stages, so the
   difference is pure observation overhead; it is reported for the
   record, not gated. *)
let plan_overhead ~quick =
  let n = if quick then 300 else 1000 in
  let ps = deployment n 11 in
  let best f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let ms = snd (timed f) in
      if ms < !best then best := ms
    done;
    !best
  in
  Wa_obs.disable ();
  let disabled_ms = best (fun () -> Wa_core.Pipeline.plan ~params:p `Global ps) in
  Wa_obs.enable ();
  Wa_obs.reset ();
  let enabled_ms = best (fun () -> Wa_core.Pipeline.plan ~params:p `Global ps) in
  Wa_obs.disable ();
  Wa_obs.reset ();
  (disabled_ms, enabled_ms)

let sorted_edges g = List.sort compare (Wa_graph.Graph.edges g)

(* Dense references above this size take minutes and add nothing:
   the equivalence oracle and speedup row at 5000 is the contract. *)
let dense_reference_limit = 5000

let scaling_row n =
  let module C = Wa_core.Conflict in
  let ps = deployment n 42 in
  let agg, mst_ms = timed (fun () -> Wa_core.Agg_tree.mst ps) in
  (* Both MST constructions, timed separately from the routed
     [Agg_tree.mst] call above: the dense Prim reference (up to the
     dense limit) and the Delaunay–Kruskal path at every size, so the
     crossover behind [Agg_tree.dense_mst_limit] stays visible. *)
  let mst_fast_ms =
    snd (timed (fun () -> ignore (Wa_graph.Mst.euclidean_fast ps)))
  in
  let mst_dense_ms =
    if n <= dense_reference_limit then
      Some (snd (timed (fun () -> ignore (Wa_graph.Mst.euclidean ps))))
    else None
  in
  let ls = agg.Wa_core.Agg_tree.links in
  let th = C.log_power () in
  let index, index_ms = timed (fun () -> Wa_sinr.Link_index.build ls) in
  let g_indexed, indexed_ms =
    timed (fun () -> C.graph ~engine:`Indexed ~index p th ls)
  in
  let dense =
    if n <= dense_reference_limit then
      Some (timed (fun () -> C.graph_dense p th ls))
    else None
  in
  let equivalent =
    Option.map (fun (g, _) -> sorted_edges g = sorted_edges g_indexed) dense
  in
  let _, pressure_ms =
    timed (fun () -> Wa_core.Refinement.longer_pressure p ls)
  in
  let _, inductive_indexed_ms =
    timed (fun () -> C.inductive_independence ~engine:`Indexed ~index p th ls)
  in
  let inductive_dense_ms =
    if n <= dense_reference_limit then
      Some (snd (timed (fun () -> C.inductive_independence ~engine:`Dense p th ls)))
    else None
  in
  let (sched, _), schedule_ms =
    timed (fun () ->
        Wa_core.Greedy_schedule.schedule p ls
          (Wa_core.Greedy_schedule.Oblivious_power 0.5))
  in
  let valid, validate_ms =
    timed (fun () -> Wa_core.Schedule.is_valid p ls sched)
  in
  let fopt = function Some v -> Wa_util.Json.Float v | None -> Wa_util.Json.Null in
  let speedup =
    Option.map (fun (_, dense_ms) -> dense_ms /. indexed_ms) dense
  in
  let row_json =
    Wa_util.Json.Obj
      [
        ("n", Int n);
        ("links", Int (Wa_sinr.Linkset.size ls));
        ("length_classes", Int (Wa_sinr.Link_index.class_count index));
        ("edges", Int (Wa_graph.Graph.edge_count g_indexed));
        ("mst_ms", Float mst_ms);
        ("mst_fast_ms", Float mst_fast_ms);
        ("mst_dense_ms", fopt mst_dense_ms);
        ("index_build_ms", Float index_ms);
        ("graph_indexed_ms", Float indexed_ms);
        ("graph_dense_ms", fopt (Option.map snd dense));
        ("graph_speedup", fopt speedup);
        ( "graph_equivalent",
          match equivalent with Some b -> Bool b | None -> Null );
        ("pressure_ms", Float pressure_ms);
        ("inductive_indexed_ms", Float inductive_indexed_ms);
        ("inductive_dense_ms", fopt inductive_dense_ms);
        ("schedule_ms", Float schedule_ms);
        ("slots", Int (Wa_core.Schedule.length sched));
        ("validate_ms", Float validate_ms);
        ("valid", Bool valid);
      ]
  in
  let cell = Printf.sprintf "%.1f" in
  let table_row =
    [
      string_of_int n;
      cell indexed_ms;
      (match dense with Some (_, ms) -> cell ms | None -> "-");
      (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-");
      (match equivalent with
      | Some true -> "yes"
      | Some false -> "NO"
      | None -> "-");
      cell validate_ms;
    ]
  in
  (row_json, table_row, equivalent = Some false)

let write_json path doc =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Wa_util.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n%!" path)
    path

let run_scaling ~quick ~json_path =
  let sizes = if quick then [ 200; 500 ] else [ 1000; 5000; 20000; 50000 ] in
  print_endline "running conflict-graph/validation scaling benchmarks...";
  let rows = List.map scaling_row sizes in
  let table =
    Wa_util.Table.create
      ~title:"Conflict graph + validation scaling (uniform MST links)"
      ~notes:
        [ "dense reference and equivalence oracle run up to n = 5000" ]
      [ "n"; "indexed ms"; "dense ms"; "speedup"; "equal"; "validate ms" ]
  in
  List.iter (fun (_, r, _) -> Wa_util.Table.add_row table r) rows;
  Wa_util.Table.print table;
  let overhead_ns = span_overhead_ns () in
  let plan_disabled_ms, plan_enabled_ms = plan_overhead ~quick in
  Printf.printf
    "telemetry: %.0f ns/span disabled (budget %.0f); plan %.1f ms off, %.1f \
     ms on\n%!"
    overhead_ns overhead_budget_ns plan_disabled_ms plan_enabled_ms;
  let doc =
    Wa_util.Json.Obj
      [
        ("benchmark", String "conflict-graph and validation scaling");
        ("engine_default", String "indexed");
        ("threshold", String "log_power (Garb)");
        ("deployment", String "uniform square, side 1000, seed 42, MST links");
        ("quick", Bool quick);
        ( "domains",
          Int (Wa_util.Parallel.available_domains ()) );
        ("span_overhead_ns", Float overhead_ns);
        ("plan_ms_disabled", Float plan_disabled_ms);
        ("plan_ms_enabled", Float plan_enabled_ms);
        ("rows", List (List.map (fun (j, _, _) -> j) rows));
      ]
  in
  write_json json_path doc;
  if List.exists (fun (_, _, mismatch) -> mismatch) rows then begin
    prerr_endline
      "FATAL: indexed conflict graph differs from the dense reference";
    exit 1
  end;
  if overhead_ns > overhead_budget_ns then begin
    Printf.eprintf
      "FATAL: disabled-telemetry span overhead %.0f ns/call exceeds the %.0f \
       ns budget\n"
      overhead_ns overhead_budget_ns;
    exit 1
  end

(* Audit-overhead benchmark: the same plan with and without the
   Wa_analysis invariant auditor, plus the per-check cost read back
   from the audit.* spans.  The auditor rebuilds both conflict-graph
   engines (its dense oracle is O(n²)), so the interesting number is
   the factor, not just the delta. *)
let run_audit_bench ~quick ~json_path =
  let n = if quick then 500 else 5000 in
  let runs = if quick then 3 else 2 in
  let ps = deployment n 42 in
  print_endline "running audit-overhead benchmark...";
  let best f =
    let best = ref infinity in
    let last = ref None in
    for _ = 1 to runs do
      let v, ms = timed f in
      last := Some v;
      if ms < !best then best := ms
    done;
    (Option.get !last, !best)
  in
  Wa_obs.enable ();
  Wa_obs.reset ();
  let _, plan_ms = best (fun () -> Wa_core.Pipeline.plan ~params:p `Global ps) in
  let audited, plan_audit_ms =
    best (fun () -> Wa_core.Pipeline.plan ~params:p ~audit:true `Global ps)
  in
  let report = Wa_obs.Report.capture () in
  Wa_obs.disable ();
  Wa_obs.reset ();
  let audit =
    match audited.Wa_core.Pipeline.audit with
    | Some a -> a
    | None -> failwith "audit bench: plan ~audit:true returned no report"
  in
  let check_ms name =
    Option.value ~default:0.0 (Wa_obs.Report.span_ms report ("audit." ^ name))
  in
  let checks = audit.Wa_analysis.Audit.checks in
  let violations = List.length audit.Wa_analysis.Audit.violations in
  Printf.printf
    "audit overhead (n=%d, global power): plan %.1f ms, plan+audit %.1f ms \
     (x%.2f); %d check(s), %d violation(s)\n%!"
    n plan_ms plan_audit_ms
    (plan_audit_ms /. plan_ms)
    (List.length checks) violations;
  let doc =
    Wa_util.Json.Obj
      [
        ("benchmark", String "pipeline audit overhead");
        ("deployment", String "uniform square, side 1000, seed 42, MST links");
        ("power_mode", String "global");
        ("quick", Bool quick);
        ("n", Int n);
        ("runs", Int runs);
        ("plan_ms", Float plan_ms);
        ("plan_audit_ms", Float plan_audit_ms);
        ("audit_overhead_ms", Float (plan_audit_ms -. plan_ms));
        ("audit_overhead_factor", Float (plan_audit_ms /. plan_ms));
        ("violations", Int violations);
        ( "checks_ms",
          Obj
            ((* Total spans across both runs; divide by the run count
                for a per-run figure. *)
             List.map (fun c -> (c, Wa_util.Json.Float (check_ms c))) checks) );
      ]
  in
  write_json json_path doc;
  if violations > 0 then begin
    prerr_endline "FATAL: the audited benchmark plan violates its invariants";
    exit 1
  end

(* Micro-benchmarks of the pipeline stages. *)
let stage_tests () =
  let ps = deployment 200 1 in
  let agg = Wa_core.Agg_tree.mst ps in
  let ls = agg.Wa_core.Agg_tree.links in
  let garb = Wa_core.Conflict.log_power () in
  let graph = Wa_core.Conflict.graph p garb ls in
  let coloring =
    Wa_graph.Coloring.greedy ~order:(Wa_sinr.Linkset.by_decreasing_length ls) graph
  in
  let slots = Wa_graph.Coloring.classes coloring in
  let big_slot =
    Array.to_list slots |> List.sort (fun a b -> compare (List.length b) (List.length a))
    |> List.hd
  in
  let plan = Wa_core.Pipeline.plan ~params:p `Global ps in
  let sched = plan.Wa_core.Pipeline.schedule in
  [
    Test.make ~name:"mst-200" (Staged.stage (fun () -> Wa_graph.Mst.euclidean ps));
    Test.make ~name:"mst-delaunay-2000"
      (Staged.stage
         (let big = deployment 2000 3 in
          fun () -> Wa_graph.Mst.euclidean_fast big));
    Test.make ~name:"conflict-graph-200"
      (Staged.stage (fun () -> Wa_core.Conflict.graph p garb ls));
    Test.make ~name:"greedy-coloring-200"
      (Staged.stage (fun () ->
           Wa_graph.Coloring.greedy
             ~order:(Wa_sinr.Linkset.by_decreasing_length ls)
             graph));
    Test.make ~name:"refinement-200"
      (Staged.stage (fun () -> Wa_core.Refinement.refine p ls));
    Test.make ~name:"power-solver-slot"
      (Staged.stage (fun () -> Wa_sinr.Power_solver.solve p ls big_slot));
    Test.make ~name:"schedule-validate"
      (Staged.stage (fun () -> Wa_core.Schedule.is_valid p ls sched));
    Test.make ~name:"simulate-20-periods"
      (Staged.stage (fun () ->
           Wa_core.Simulator.run agg sched
             (Wa_core.Simulator.config
                ~horizon:(20 * Wa_core.Schedule.length sched)
                sched)));
    Test.make ~name:"capacity-one-shot"
      (Staged.stage (fun () ->
           Wa_core.Capacity.max_feasible_subset p ls
             Wa_core.Capacity.With_power_control));
    Test.make ~name:"multicolor-balanced"
      (Staged.stage (fun () ->
           Wa_core.Multicolor.balanced p ls Wa_core.Schedule.Arbitrary));
    Test.make ~name:"radio-protocol-60"
      (Staged.stage
         (let small = deployment 60 2 in
          let small_agg = Wa_core.Agg_tree.mst small in
          fun () ->
            Wa_distributed.Protocol.run p small_agg
              Wa_core.Greedy_schedule.Global_power));
    Test.make ~name:"metric-core-3d-100"
      (Staged.stage
         (let module E3 = Wa_metric.Scheduling.Make (Wa_metric.Space.Euclid3) in
          let rng = Wa_util.Rng.create 9 in
          let stations =
            Array.init 100 (fun _ ->
                ( Wa_util.Rng.float rng 1000.0,
                  Wa_util.Rng.float rng 1000.0,
                  Wa_util.Rng.float rng 1000.0 ))
          in
          fun () ->
            let inst = E3.instance stations in
            E3.greedy_slots ~alpha:3.0 (E3.Constant 1.0) inst));
  ]

(* One Bechamel test per experiment table (quick sizes, output dropped). *)
let table_tests () =
  List.map
    (fun (e : Wa_experiments.Experiments.t) ->
      Test.make ~name:("table-" ^ e.Wa_experiments.Experiments.id)
        (Staged.stage (fun () ->
             ignore (e.Wa_experiments.Experiments.run ~quick:true))))
    Wa_experiments.Experiments.all

let run_bechamel ~quick tests =
  let cfg =
    (* Quick mode trades statistical weight for wall time so the
       bench-smoke alias can run inside the test suite. *)
    let quota = Time.second (if quick then 0.05 else 0.4) in
    let limit = if quick then 25 else 200 in
    Benchmark.cfg ~limit ~quota ~kde:None ~stabilize:false ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"wireless_agg" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let table =
    Wa_util.Table.create ~title:"Bechamel timings (monotonic clock)"
      ~notes:[ "time is the OLS estimate per call" ]
      [ "benchmark"; "time/call"; "r^2" ]
  in
  let fmt_ns ns =
    if Float.is_nan ns then "-"
    else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, est, r2) ->
      Wa_util.Table.add_row table
        [ name; fmt_ns est;
          (if Float.is_nan r2 then "-" else Printf.sprintf "%.4f" r2) ])
    (List.sort compare !rows);
  Wa_util.Table.print table

let usage =
  {|usage: main.exe [--quick] [--table ID] [--no-tables] [--no-scaling] [--no-bench]
                [--json PATH] [--audit-bench] [--audit-json PATH]
|}

let usage_error msg =
  Printf.eprintf "main: %s\n%s" msg usage;
  exit 2

type options = {
  quick : bool;
  table : string option;
  tables : bool;
  scaling : bool;
  bench : bool;
  json : string option;
  audit_bench : bool;
  audit_json : string option;
}

let rec parse o = function
  | [] -> o
  | "--quick" :: rest -> parse { o with quick = true } rest
  | "--no-tables" :: rest -> parse { o with tables = false } rest
  | "--no-scaling" :: rest -> parse { o with scaling = false } rest
  | "--no-bench" :: rest -> parse { o with bench = false } rest
  | "--audit-bench" :: rest -> parse { o with audit_bench = true } rest
  | "--table" :: v :: rest -> parse { o with table = Some v } rest
  | "--json" :: v :: rest -> parse { o with json = Some v } rest
  | "--audit-json" :: v :: rest -> parse { o with audit_json = Some v } rest
  | [ ("--table" | "--json" | "--audit-json") as f ] ->
      usage_error (f ^ " expects a value")
  | f :: _ -> usage_error ("unknown flag " ^ f)

let () =
  let o =
    parse
      {
        quick = false;
        table = None;
        tables = true;
        scaling = true;
        bench = true;
        json = None;
        audit_bench = false;
        audit_json = None;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  let quick = o.quick in
  let t0 = Unix.gettimeofday () in
  (if o.tables then
     match o.table with
     | Some id -> Wa_experiments.Experiments.run_all ~quick ~ids:[ id ] ()
     | None -> Wa_experiments.Experiments.run_all ~quick ());
  if o.scaling then run_scaling ~quick ~json_path:o.json;
  if o.audit_bench then run_audit_bench ~quick ~json_path:o.audit_json;
  if o.bench then begin
    print_endline "running bechamel micro-benchmarks...";
    (* The per-table timings rerun every experiment; in quick mode the
       stage micro-benchmarks alone keep the run seconds-scale. *)
    run_bechamel ~quick
      (if quick then stage_tests () else stage_tests () @ table_tests ())
  end;
  Printf.printf "total wall time: %.1f s\n%!" (Unix.gettimeofday () -. t0)
