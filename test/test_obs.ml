(* The observability layer: span nesting and timing, metric
   correctness (atomic counters under domain fan-outs, dyadic
   histograms against Wa_util.Stats), JSON export round-trips, the
   disabled-sink contract, and the instrumented pipeline's stage spans
   matching the plan record. *)

module Obs = Wa_obs
module Trace = Wa_obs.Trace
module Metrics = Wa_obs.Metrics
module Report = Wa_obs.Report
module Export = Wa_obs.Export
module Json = Wa_util.Json
module Stats = Wa_util.Stats
module Parallel = Wa_util.Parallel
module Pipeline = Wa_core.Pipeline
module Conflict = Wa_core.Conflict
module Agg_tree = Wa_core.Agg_tree
module Refinement = Wa_core.Refinement
module Rng = Wa_util.Rng
module Random_deploy = Wa_instances.Random_deploy

let p = Wa_sinr.Params.default

let deployment n seed =
  Random_deploy.uniform_square (Rng.create seed) ~n ~side:1000.0

(* Every test starts from a clean, enabled sink and leaves the sink
   off so suites that run after this one see the default state. *)
let with_fresh f () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

(* Spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let v =
    Trace.with_span "outer" (fun () ->
        ignore (Trace.with_span "inner" (fun () -> 7));
        ignore (Trace.with_span "inner" (fun () -> 8));
        42)
  in
  Alcotest.(check int) "with_span returns the thunk's value" 42 v;
  let r = Report.capture () in
  let outer =
    match Report.find_spans r "outer" with
    | [ s ] -> s
    | l -> Alcotest.failf "expected 1 outer span, got %d" (List.length l)
  in
  let inners = Report.find_spans r "inner" in
  Alcotest.(check int) "two inner spans" 2 (List.length inners);
  Alcotest.(check int) "outer is depth 0" 0 outer.Trace.depth;
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check int) "inner is depth 1" 1 s.depth;
      Alcotest.(check bool) "inner starts after outer" true
        (Int64.compare s.start_ns outer.start_ns >= 0);
      Alcotest.(check bool) "inner fits inside outer" true
        (Int64.compare s.dur_ns outer.dur_ns <= 0))
    inners

let test_span_timing_monotone () =
  ignore (Trace.with_span "a" (fun () -> Sys.opaque_identity (ref 0)));
  ignore (Trace.with_span "b" (fun () -> Sys.opaque_identity (ref 0)));
  let r = Report.capture () in
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "durations are non-negative" true
        (Int64.compare s.dur_ns 0L >= 0))
    r.Report.spans;
  let rec sorted = function
    | (a : Trace.span) :: (b : Trace.span) :: rest ->
        Int64.compare a.start_ns b.start_ns <= 0 && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "spans sorted by start time" true (sorted r.Report.spans);
  let (), ms = Trace.timed "timed" (fun () -> ignore (Sys.opaque_identity 1)) in
  Alcotest.(check bool) "timed measures non-negative ms" true (ms >= 0.0)

let test_span_exception_closes () =
  (try Trace.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  let r = Report.capture () in
  Alcotest.(check bool) "span recorded despite exception" true
    (Report.has_span r "boom")

(* Metrics -------------------------------------------------------------- *)

let test_counter_gauge () =
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.counter_value c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 3.0;
  Metrics.set g 2.0;
  Alcotest.(check (float 0.0)) "gauge: last write wins" 2.0 (Metrics.gauge_value g);
  Metrics.set_max g 9.0;
  Metrics.set_max g 4.0;
  Alcotest.(check (float 0.0)) "set_max keeps the max" 9.0 (Metrics.gauge_value g);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Wa_obs.Metrics: test.counter already registered as a counter")
    (fun () -> ignore (Metrics.gauge "test.counter"))

let hist_vs_stats =
  QCheck.Test.make ~count:60 ~name:"histogram moments match Wa_util.Stats"
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e6))
    (fun samples ->
      QCheck.assume (samples <> []);
      Obs.enable ();
      Obs.reset ();
      let h = Metrics.histogram "test.hist" in
      List.iter (fun v -> Metrics.observe h v) samples;
      let s = Metrics.hist_snapshot h in
      let ref_stats = Stats.summarize samples in
      let positives = List.filter (fun v -> v > 0.0) samples in
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs b) in
      s.Metrics.count = ref_stats.Stats.count
      && close s.Metrics.sum
           (List.fold_left ( +. ) 0.0 samples)
      && close s.Metrics.min ref_stats.Stats.min
      && close s.Metrics.max ref_stats.Stats.max
      && s.Metrics.nonpositive_count = List.length samples - List.length positives
      (* every bucket is dyadic and every positive sample has a bucket *)
      && List.for_all
           (fun (lo, hi, n) -> n > 0 && lo > 0.0 && close hi (2.0 *. lo))
           s.Metrics.filled
      && List.fold_left (fun acc (_, _, n) -> acc + n) 0 s.Metrics.filled
         = List.length positives
      && List.for_all
           (fun v ->
             List.exists (fun (lo, hi, _) -> lo <= v && v < hi) s.Metrics.filled)
           positives)

(* Quantiles ------------------------------------------------------------ *)

(* Dyadic bucket index of a positive value: v lives in
   [2^(e-1), 2^e), frexp's exponent. *)
let dyadic_exp v = snd (Float.frexp v)

let test_quantile_basic () =
  let h = Metrics.histogram "test.quantile_point" in
  Metrics.observe h 42.0;
  let s = Metrics.hist_snapshot h in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single sample pins q=%.2f" q)
        42.0 (Metrics.quantile s q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let h2 = Metrics.histogram "test.quantile_ramp" in
  for i = 1 to 1000 do
    Metrics.observe h2 (float_of_int i)
  done;
  let s2 = Metrics.hist_snapshot h2 in
  (* monotone in q, clamped to the observed range *)
  let qs = [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ] in
  let vs = List.map (Metrics.quantile s2) qs in
  let rec mono = function
    | a :: b :: rest -> a <= b && mono (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "quantile monotone in q" true (mono vs);
  List.iter
    (fun v ->
      Alcotest.(check bool) "within observed range" true
        (v >= 1.0 && v <= 1000.0))
    vs;
  (* dyadic accuracy against the exact order statistic *)
  List.iter
    (fun q ->
      let exact =
        float_of_int (max 1 (int_of_float (Float.ceil (q *. 1000.0))))
      in
      let est = Metrics.quantile s2 q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within one dyadic bucket" q)
        true
        (abs (dyadic_exp est - dyadic_exp exact) <= 1))
    qs;
  (* empty histogram has no quantiles *)
  let e = Metrics.hist_snapshot (Metrics.histogram "test.quantile_empty") in
  Alcotest.(check bool) "empty snapshot yields nan" true
    (Float.is_nan (Metrics.quantile e 0.5))

(* Live windows --------------------------------------------------------- *)

module Live = Wa_obs.Live

(* The tentpole oracle: feed samples through several Live windows, then
   check the merged rolling quantile against the exact sorted-sample
   quantile computed from the raw list.  "Correct" means landing
   within one dyadic bucket — the histogram's resolution — for every
   probed q. *)
let windowed_quantile_oracle =
  QCheck.Test.make ~count:40 ~name:"live windowed quantile vs exact oracle"
    QCheck.(
      pair
        (list_of_size Gen.(5 -- 300)
           (map (fun v -> v +. 1e-3) (float_bound_exclusive 1e5)))
        (int_range 1 5))
    (fun (samples, chunks) ->
      QCheck.assume (samples <> []);
      Obs.enable ();
      Obs.reset ();
      let live = Live.create ~windows:16 () in
      let h = Metrics.histogram "test.live_oracle" in
      let n = List.length samples in
      let per = max 1 (n / chunks) in
      List.iteri
        (fun i v ->
          Metrics.observe h v;
          if (i + 1) mod per = 0 then Live.roll live)
        samples;
      Live.roll live;
      let sorted = List.sort Float.compare samples in
      let exact q =
        List.nth sorted (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
      in
      match Live.quantiles live "test.live_oracle" with
      | None -> QCheck.Test.fail_report "live lost the histogram"
      | Some d ->
          if d.Live.q_count <> n then
            QCheck.Test.fail_reportf "count %d <> %d" d.Live.q_count n
          else
            List.for_all
              (fun (q, est) ->
                abs (dyadic_exp est - dyadic_exp (exact q)) <= 1)
              [ (0.5, d.Live.q_p50); (0.9, d.Live.q_p90); (0.99, d.Live.q_p99) ])

let test_live_multi_domain_counters () =
  let live = Live.create ~windows:8 () in
  let c = Metrics.counter "test.live_parallel" in
  let phase n =
    Parallel.iter ~domains:4 ~threshold:1 n (fun _ -> Metrics.incr c);
    Live.roll live
  in
  phase 4000;
  phase 2500;
  phase 1500;
  (* every increment lands in exactly one window: totals are exact,
     not approximate, even under domain fan-out *)
  Alcotest.(check int) "last window exact" 1500
    (Live.counter_delta ~last:1 live "test.live_parallel");
  Alcotest.(check int) "last two windows exact" 4000
    (Live.counter_delta ~last:2 live "test.live_parallel");
  Alcotest.(check int) "all windows exact" 8000
    (Live.counter_delta live "test.live_parallel");
  Alcotest.(check int) "three windows held" 3 (Live.window_count live);
  Alcotest.(check bool) "horizon is positive" true (Live.horizon_s live > 0.0);
  Live.sample_runtime ();
  Live.roll live;
  let r = Report.capture () in
  Alcotest.(check bool) "runtime heap gauge sampled" true
    (match Report.gauge_value r "runtime.heap_words" with
    | Some v -> v > 0.0
    | None -> false)

let test_live_window_ring_bound () =
  let live = Live.create ~windows:3 () in
  let c = Metrics.counter "test.live_ring" in
  for _ = 1 to 10 do
    Metrics.incr c;
    Live.roll live
  done;
  Alcotest.(check int) "ring capped at capacity" 3 (Live.window_count live);
  Alcotest.(check int) "delta covers only retained windows" 3
    (Live.counter_delta live "test.live_ring")

(* Request-scoped span collection --------------------------------------- *)

let test_with_collector () =
  ignore (Trace.with_span "outside.before" (fun () -> ()));
  let v, spans =
    Trace.with_collector (fun () ->
        Trace.with_span "req.outer" (fun () ->
            ignore (Trace.with_span "req.inner" (fun () -> 1));
            17))
  in
  Alcotest.(check int) "value passes through" 17 v;
  Alcotest.(check (list string)) "exactly the request's spans, in order"
    [ "req.outer"; "req.inner" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) spans);
  ignore (Trace.with_span "outside.after" (fun () -> ()));
  (* collection is additive: the global list still sees everything *)
  let r = Report.capture () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in global list") true
        (Report.has_span r name))
    [ "outside.before"; "req.outer"; "req.inner"; "outside.after" ];
  (* the exception path restores the previous collector *)
  (try
     ignore
       (Trace.with_collector (fun () ->
            Trace.with_span "req.boom" (fun () -> failwith "no")))
   with Failure _ -> ());
  let _, after = Trace.with_collector (fun () -> ()) in
  Alcotest.(check int) "collector state clean after exception" 0
    (List.length after)

(* Two systhreads of one domain record nested spans at the same time,
   each under its own collector.  A barrier holds both inside their
   outer span before either records a child, and every inner span
   yields, so the threads interleave span by span.  Per-domain state
   would mix their depths and their collectors. *)
let test_threads_keep_own_spans () =
  let rounds = 40 in
  let mu = Mutex.create () and arrived = Condition.create () in
  let inside = ref 0 in
  let barrier () =
    Mutex.protect mu (fun () ->
        incr inside;
        Condition.broadcast arrived;
        while !inside < 2 do
          Condition.wait arrived mu
        done)
  in
  let captured = Array.make 2 [] in
  let body k () =
    let tag = Printf.sprintf "thread%d" k in
    let (), spans =
      Trace.with_collector (fun () ->
          Trace.with_span (tag ^ ".outer") (fun () ->
              barrier ();
              for _ = 1 to rounds do
                Trace.with_span (tag ^ ".mid") (fun () ->
                    Trace.with_span (tag ^ ".inner") Thread.yield)
              done))
    in
    captured.(k) <- spans
  in
  let threads = List.init 2 (fun k -> Thread.create (body k) ()) in
  List.iter Thread.join threads;
  let depth_of name =
    if String.ends_with ~suffix:".outer" name then 0
    else if String.ends_with ~suffix:".mid" name then 1
    else 2
  in
  let all = Trace.spans () in
  for k = 0 to 1 do
    let tag = Printf.sprintf "thread%d" k in
    let mine =
      List.filter
        (fun (s : Trace.span) -> String.starts_with ~prefix:tag s.Trace.name)
        all
    in
    Alcotest.(check int) (tag ^ ": no span lost") ((2 * rounds) + 1)
      (List.length mine);
    List.iter
      (fun (s : Trace.span) ->
        Alcotest.(check int) (s.Trace.name ^ " depth") (depth_of s.Trace.name)
          s.Trace.depth)
      mine;
    Alcotest.(check int) (tag ^ ": collector holds its own spans")
      ((2 * rounds) + 1)
      (List.length captured.(k));
    Alcotest.(check bool) (tag ^ ": collector holds no other thread's span")
      true
      (List.for_all
         (fun (s : Trace.span) -> String.starts_with ~prefix:tag s.Trace.name)
         captured.(k))
  done

(* Prometheus exposition ------------------------------------------------ *)

let test_prometheus_shape () =
  Metrics.add (Metrics.counter "prom.requests") 3;
  Metrics.set (Metrics.gauge "prom.depth") 2.5;
  let h = Metrics.histogram "prom.latency_ms" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; -1.0 ];
  let text = Export.prometheus_string (Report.capture_metrics ()) in
  let lines = String.split_on_char '\n' text in
  let has s = List.exists (fun l -> l = s) lines in
  let has_prefix p =
    List.exists (fun l -> String.length l >= String.length p
                          && String.sub l 0 (String.length p) = p) lines
  in
  Alcotest.(check bool) "counter TYPE line" true
    (has "# TYPE wa_prom_requests counter");
  Alcotest.(check bool) "counter sample" true (has "wa_prom_requests 3");
  Alcotest.(check bool) "gauge TYPE line" true
    (has "# TYPE wa_prom_depth gauge");
  Alcotest.(check bool) "gauge sample" true (has "wa_prom_depth 2.5");
  Alcotest.(check bool) "histogram TYPE line" true
    (has "# TYPE wa_prom_latency_ms histogram");
  Alcotest.(check bool) "+Inf bucket equals count" true
    (has {|wa_prom_latency_ms_bucket{le="+Inf"} 4|});
  Alcotest.(check bool) "_count sample" true (has "wa_prom_latency_ms_count 4");
  Alcotest.(check bool) "_sum sample" true (has_prefix "wa_prom_latency_ms_sum ");
  (* cumulative bucket counts never decrease *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        match String.index_opt l '}' with
        | Some i
          when String.length l > String.length "wa_prom_latency_ms_bucket"
               && String.sub l 0 (String.length "wa_prom_latency_ms_bucket")
                  = "wa_prom_latency_ms_bucket" ->
            int_of_string_opt
              (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  let rec mono = function
    | a :: b :: rest -> a <= b && mono (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "buckets cumulative" true (mono bucket_counts);
  Alcotest.(check bool) "nonpositive folded into first bucket" true
    (match bucket_counts with n :: _ -> n >= 1 | [] -> false)

(* Trace file validation ------------------------------------------------ *)

let test_validate_trace_blank_lines () =
  let tmp = Filename.temp_file "wa_obs_blank" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc
        "{\"type\":\"span\",\"name\":\"a\"}\n\n  \n{\"type\":\"span\",\"name\":\"b\"}\n\n";
      close_out oc;
      (match Export.validate_trace_file tmp with
      | Ok n -> Alcotest.(check int) "blank lines skipped" 2 n
      | Error m -> Alcotest.fail ("blank lines rejected: " ^ m));
      let oc = open_out tmp in
      output_string oc "{\"ok\":1}\n\n{\"ok\":2}\nnot json\n";
      close_out oc;
      match Export.validate_trace_file tmp with
      | Ok _ -> Alcotest.fail "bad line accepted"
      | Error m ->
          (* the blank line still advances the count: the report names
             the true position in the file *)
          Alcotest.(check bool)
            (Printf.sprintf "error names line 4: %s" m)
            true
            (let needle = "line 4" in
             let rec find i =
               i + String.length needle <= String.length m
               && (String.sub m i (String.length needle) = needle || find (i + 1))
             in
             find 0))

(* Disabled sink -------------------------------------------------------- *)

let test_disabled_sink () =
  Obs.enable ();
  Obs.reset ();
  Obs.disable ();
  let c = Metrics.counter "test.disabled_counter" in
  let h = Metrics.histogram "test.disabled_hist" in
  ignore (Trace.with_span "invisible" (fun () -> Metrics.incr c));
  Metrics.observe h 5.0;
  let r = Report.capture () in
  Alcotest.(check int) "no spans recorded" 0 (List.length r.Report.spans);
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.hist_snapshot h).Metrics.count;
  (* timed still measures even when the sink is off *)
  let (), ms = Trace.timed "still-timed" (fun () -> ()) in
  Alcotest.(check bool) "timed works disabled" true (ms >= 0.0)

(* Export --------------------------------------------------------------- *)

let test_export_roundtrip () =
  ignore (Trace.with_span "export.span" (fun () -> ()));
  Metrics.incr (Metrics.counter "export.counter");
  Metrics.set (Metrics.gauge "export.gauge") 1.5;
  Metrics.observe (Metrics.histogram "export.hist") 3.0;
  let r = Report.capture () in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) ->
          List.iter
            (fun k ->
              Alcotest.(check bool) ("span field " ^ k) true
                (List.mem_assoc k fields))
            [ "type"; "name"; "start_ns"; "dur_ns"; "depth"; "domain" ]
      | Ok _ -> Alcotest.fail "span line is not an object"
      | Error m -> Alcotest.fail ("span line does not parse: " ^ m))
    (Export.trace_lines r);
  (match Json.of_string (Export.metrics_string r) with
  | Ok doc ->
      let member k =
        match Json.member k doc with Some v -> v | None -> Json.Null
      in
      Alcotest.(check bool) "counters object present" true
        (match member "counters" with Json.Obj _ -> true | _ -> false);
      Alcotest.(check (option int)) "counter round-trips" (Some 1)
        (Json.to_int_opt
           (Option.value ~default:Json.Null
              (Json.member "export.counter" (member "counters"))))
  | Error m -> Alcotest.fail ("metrics doc does not parse: " ^ m));
  let tmp_trace = Filename.temp_file "wa_obs_trace" ".jsonl" in
  let tmp_metrics = Filename.temp_file "wa_obs_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp_trace; Sys.remove tmp_metrics)
    (fun () ->
      Export.write_trace tmp_trace r;
      Export.write_metrics tmp_metrics r;
      (match Export.validate_trace_file tmp_trace with
      | Ok n ->
          Alcotest.(check int) "all spans written" (List.length r.Report.spans) n
      | Error m -> Alcotest.fail ("trace file invalid: " ^ m));
      match Export.validate_metrics_file tmp_metrics with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("metrics file invalid: " ^ m))

(* Pipeline instrumentation --------------------------------------------- *)

(* The recorded plan.* spans are exactly the stages of a global-power
   [Pipeline.plan]. *)
let check_plan_stages r =
  Alcotest.(check (list string)) "exactly the plan stages"
    [
      "plan.color"; "plan.conflict"; "plan.diversity"; "plan.index"; "plan.mst";
      "plan.validate";
    ]
    (List.filter (String.starts_with ~prefix:"plan.") (Report.span_names r))

let test_pipeline_spans () =
  let ps = deployment 150 3 in
  let plan = Pipeline.plan ~params:p `Global ps in
  let r = Report.capture () in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("span " ^ name ^ " present") true
        (Report.has_span r name))
    [
      "pipeline.plan"; "plan.mst"; "plan.index"; "plan.conflict"; "plan.color";
      "plan.validate"; "schedule.repair";
    ];
  Alcotest.(check (option (float 0.0))) "slots_raw gauge matches plan"
    (Some (float_of_int plan.Pipeline.raw_colors))
    (Report.gauge_value r "schedule.slots_raw");
  Alcotest.(check (option int)) "repair_added counter matches plan"
    (Some plan.Pipeline.repair_added)
    (Report.counter_value r "schedule.repair_added");
  (* stage spans nest under the pipeline span *)
  let plan_span = List.hd (Report.find_spans r "pipeline.plan") in
  let mst_span = List.hd (Report.find_spans r "plan.mst") in
  Alcotest.(check bool) "mst nested in pipeline" true
    (mst_span.Trace.depth > plan_span.Trace.depth);
  (* Lemma-1 pressure is not a plan stage: the plan.* spans are exactly
     the pipeline's own, and no pressure span or gauge is recorded. *)
  check_plan_stages r;
  Alcotest.(check bool) "no affectance.pressure" false
    (Report.has_span r "affectance.pressure");
  Alcotest.(check (option (float 0.0))) "no pressure gauge" None
    (Report.gauge_value r "affectance.max_pressure")

(* [Refinement.longer_pressure] is the one pressure entry point: it
   emits its own span and gauge, and its value is the maximum of the
   batch kernel. *)
let test_longer_pressure_telemetry () =
  let ls = (Agg_tree.mst (deployment 150 3)).Agg_tree.links in
  let v = Refinement.longer_pressure p ls in
  let r = Report.capture () in
  Alcotest.(check bool) "span affectance.pressure present" true
    (Report.has_span r "affectance.pressure");
  Alcotest.(check (option (float 0.0))) "gauge holds the value" (Some v)
    (Report.gauge_value r "affectance.max_pressure");
  let per_link = Wa_sinr.Affectance.mst_longer_pressure_all p ls in
  Alcotest.(check (float 0.0)) "max of the batch kernel"
    (Array.fold_left Float.max 0.0 per_link) v;
  Alcotest.(check bool) "positive" true (v > 0.0)

(* Oracle: turning observation on changes nothing that is computed.
   The same spec planned with the sink off and then on yields equal
   plans, and the traced run executes exactly the plan stages. *)
let test_observation_changes_nothing () =
  let ps = deployment 200 17 in
  Obs.disable ();
  let off = Pipeline.plan ~params:p `Global ps in
  Obs.enable ();
  Obs.reset ();
  let on = Pipeline.plan ~params:p `Global ps in
  let r = Report.capture () in
  let edges (pl : Pipeline.plan) =
    Wa_graph.Tree.directed_edges pl.Pipeline.agg.Agg_tree.tree
  in
  let slots (pl : Pipeline.plan) =
    Array.to_list pl.Pipeline.schedule.Wa_core.Schedule.slots
  in
  Alcotest.(check (list (pair int int))) "same tree edges" (edges off) (edges on);
  Alcotest.(check (list (list int))) "same schedule, slot by slot" (slots off)
    (slots on);
  Alcotest.(check int) "same raw_colors" off.Pipeline.raw_colors
    on.Pipeline.raw_colors;
  Alcotest.(check int) "same repair_added" off.Pipeline.repair_added
    on.Pipeline.repair_added;
  Alcotest.(check bool) "same valid" off.Pipeline.valid on.Pipeline.valid;
  Alcotest.(check bool) "same point diversity" true
    (Float.equal off.Pipeline.point_diversity on.Pipeline.point_diversity);
  Alcotest.(check bool) "same link diversity" true
    (Float.equal off.Pipeline.link_diversity on.Pipeline.link_diversity);
  check_plan_stages r

let test_simulator_metrics () =
  let ps = deployment 60 5 in
  let plan = Pipeline.plan ~params:p `Global ps in
  let result = Pipeline.simulate ~horizon_periods:40 plan in
  let r = Report.capture () in
  Alcotest.(check (option int)) "delivered counter matches result"
    (Some result.Wa_core.Simulator.frames_delivered)
    (Report.counter_value r "sim.frames_delivered");
  Alcotest.(check bool) "simulate.run span present" true
    (Report.has_span r "simulate.run")

(* Concurrency safety --------------------------------------------------- *)

let test_parallel_counter_totals () =
  let c = Metrics.counter "test.parallel_counter" in
  let h = Metrics.histogram "test.parallel_hist" in
  let n = 10_000 in
  Parallel.iter ~domains:4 ~threshold:1 n (fun i ->
      Metrics.incr c;
      Metrics.observe h (float_of_int (i + 1)));
  Alcotest.(check int) "no lost counter increments" n (Metrics.counter_value c);
  let s = Metrics.hist_snapshot h in
  Alcotest.(check int) "no lost histogram samples" n s.Metrics.count;
  Alcotest.(check (float 1e-6)) "histogram sum exact"
    (float_of_int (n * (n + 1) / 2)) s.Metrics.sum

let conflict_edge_total ~domains ls th =
  Obs.reset ();
  let g = Conflict.graph ~engine:`Indexed ~domains p th ls in
  let r = Report.capture () in
  (Report.counter_value r "conflict.edges", Wa_graph.Graph.edge_count g)

let test_parallel_conflict_metrics () =
  let ls = (Agg_tree.mst (deployment 400 7)).Agg_tree.links in
  let th = Conflict.log_power () in
  let total1, edges1 = conflict_edge_total ~domains:1 ls th in
  let total4, edges4 = conflict_edge_total ~domains:4 ls th in
  Alcotest.(check int) "same graph across fan-outs" edges1 edges4;
  Alcotest.(check (option int)) "single-domain total = edge count"
    (Some edges1) total1;
  Alcotest.(check (option int)) "multi-domain total = single-domain total"
    total1 total4;
  (* worker-domain spans were merged into the global list *)
  let r = Report.capture () in
  Alcotest.(check bool) "indexed build span survives fan-out" true
    (Report.has_span r "conflict.build.indexed")

let () =
  Alcotest.run "wa_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick (with_fresh test_span_nesting);
          Alcotest.test_case "timing monotone" `Quick
            (with_fresh test_span_timing_monotone);
          Alcotest.test_case "exception closes span" `Quick
            (with_fresh test_span_exception_closes);
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick
            (with_fresh test_counter_gauge);
          QCheck_alcotest.to_alcotest hist_vs_stats;
          Alcotest.test_case "quantile basics" `Quick
            (with_fresh test_quantile_basic);
          Alcotest.test_case "disabled sink" `Quick test_disabled_sink;
        ] );
      ( "live",
        [
          QCheck_alcotest.to_alcotest windowed_quantile_oracle;
          Alcotest.test_case "multi-domain counter exactness" `Quick
            (with_fresh test_live_multi_domain_counters);
          Alcotest.test_case "window ring bound" `Quick
            (with_fresh test_live_window_ring_bound);
          Alcotest.test_case "request span collector" `Quick
            (with_fresh test_with_collector);
          Alcotest.test_case "systhreads keep their own spans" `Quick
            (with_fresh test_threads_keep_own_spans);
        ] );
      ( "export",
        [
          Alcotest.test_case "json round-trip" `Quick
            (with_fresh test_export_roundtrip);
          Alcotest.test_case "prometheus shape" `Quick
            (with_fresh test_prometheus_shape);
          Alcotest.test_case "trace file blank lines" `Quick
            test_validate_trace_blank_lines;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage spans and plan metrics" `Quick
            (with_fresh test_pipeline_spans);
          Alcotest.test_case "longer_pressure span and gauge" `Quick
            (with_fresh test_longer_pressure_telemetry);
          Alcotest.test_case "observation changes nothing" `Quick
            (with_fresh test_observation_changes_nothing);
          Alcotest.test_case "simulator metrics" `Quick
            (with_fresh test_simulator_metrics);
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "parallel counter totals" `Quick
            (with_fresh test_parallel_counter_totals);
          Alcotest.test_case "conflict metrics across fan-outs" `Quick
            (with_fresh test_parallel_conflict_metrics);
        ] );
    ]
