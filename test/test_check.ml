(* The wa-check typed-AST analyzer: every bad_* fixture under
   check_fixtures/ triggers its rule exactly once (from the .cmt files
   dune produced while building the fixture library), the good_* twins
   and the suppressed spellings stay silent, and reports round-trip
   through the check_report.json schema (qcheck).

   The *_call fixture twins exercise the whole-program summary engine:
   their verdicts depend on facts about callees living in
   fix_sources.ml, a different compilation unit.  [good_smart_ctor]
   additionally pins the intraprocedural/interprocedural boundary: the
   same file reports without summaries and is proven clean with them. *)

module Check = Wa_check_core.Check
module Summary = Wa_check_core.Summary
module Json = Wa_util.Json

(* The test runner's cwd is _build/default/test; the fixture library's
   .cmt files live in its hidden .objs directory, with dune's wrapped
   unit names. *)
let cmt name =
  "check_fixtures/.check_fixtures.objs/byte/check_fixtures__" ^ name ^ ".cmt"

(* Only the division fixtures are hot: the unit-mix fixtures use bare
   [Float.log] and must not pick up float-unguarded noise. *)
let config =
  let hot name = "test/check_fixtures/" ^ name ^ ".ml" in
  {
    Check.Config.default with
    Check.Config.hot_paths =
      [
        hot "bad_div"; hot "good_div"; hot "bad_guard_call";
        hot "good_guard_call"; hot "scc_fixture"; hot "bad_smart_ctor";
        hot "good_smart_ctor"; hot "bad_witness"; hot "good_witness";
        hot "bad_posarray"; hot "good_posarray";
      ];
    capture_allowed = [];
  }

(* Phase 1+2 over the whole fixture library, shared by every
   summary-consuming case below. *)
let summaries = lazy (Check.summarize_paths ~config [ "check_fixtures" ])

let rules_of violations = List.map (fun v -> v.Check.rule) violations

let analyze ~summaries:with_summaries unit_name =
  if with_summaries then
    Check.analyze_cmt ~config ~summaries:(Lazy.force summaries) (cmt unit_name)
  else Check.analyze_cmt ~config (cmt unit_name)

let check_fixture ?(summaries = true) unit_name expected () =
  let fr = analyze ~summaries unit_name in
  Alcotest.(check bool) (unit_name ^ " was analyzed") true fr.Check.analyzed;
  Alcotest.(check (list string))
    (unit_name ^ " rules") expected
    (rules_of fr.Check.file_violations);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "positions are 1-based lines" true (v.Check.line >= 1))
    fr.Check.file_violations

(* Satellite pin: re-adding the guard-free smart-constructor shape must
   still report when the summary engine is off — deleting the lib
   suppressions relied on whole-program proof, not on a laxer rule. *)
let test_smart_ctor_boundary () =
  let without = analyze ~summaries:false "Good_smart_ctor" in
  Alcotest.(check (list string))
    "per-file run still reports the unproven field" [ "float-unguarded" ]
    (rules_of without.Check.file_violations);
  let with_s = analyze ~summaries:true "Good_smart_ctor" in
  Alcotest.(check (list string))
    "whole-program run discharges it" []
    (rules_of with_s.Check.file_violations)

(* The hot-alloc diagnostic must name the allocating call chain, not
   just the kernel. *)
let test_hot_chain () =
  let fr = analyze ~summaries:true "Bad_hot_call" in
  match fr.Check.file_violations with
  | [ v ] ->
      Alcotest.(check string) "rule" "hot-alloc" v.Check.rule;
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i =
          i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "message names the allocating callee" true
        (contains "alloc_pair" v.Check.message)
  | vs ->
      Alcotest.failf "expected exactly one hot-alloc violation, got %d"
        (List.length vs)

let test_stats () =
  let fr = analyze ~summaries:true "Bad_capture" in
  Alcotest.(check int) "one chunk closure analyzed" 1 fr.Check.file_closures;
  Alcotest.(check bool)
    "unit pass visited expressions" true
    (fr.Check.file_expressions > 0)

let test_cmt_error () =
  let fr = Check.analyze_cmt ~config "check_fixtures/no_such.cmt" in
  Alcotest.(check bool) "not analyzed" false fr.Check.analyzed;
  Alcotest.(check (list string))
    "unreadable file reports cmt-error" [ "cmt-error" ]
    (rules_of fr.Check.file_violations)

let test_tree_totals () =
  let report = Check.analyze_paths ~config [ "check_fixtures" ] in
  Alcotest.(check int)
    "analyzed all forty-two fixtures (alias module skipped)" 42
    report.Check.files_scanned;
  let expected =
    [
      "check-then-act"; "domain-capture"; "domain-capture"; "domain-capture";
      "event-loop-block";
      "exn-escape"; "exn-escape"; "float-unguarded"; "float-unguarded";
      "float-unguarded"; "float-unguarded"; "float-unguarded"; "hot-alloc";
      "lock-order"; "lock-order"; "lockset"; "nan-compare"; "unit-mix";
      "unit-mix";
    ]
  in
  Alcotest.(check (list string))
    "exactly the nineteen planted violations" expected
    (List.sort String.compare (rules_of report.Check.violations));
  Alcotest.(check bool)
    "guarded accesses certified in the fixtures" true
    (report.Check.guarded_accesses > 0);
  Alcotest.(check int)
    "exactly the two good event-loop roots certified" 2
    report.Check.event_loop_roots

(* The on-disk summary cache: a second run over unchanged .cmt files is
   fully warm and rebuilds the aggregate report byte-for-byte. *)
let test_cache_roundtrip () =
  let cache = Filename.temp_file "wa_check_cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove cache with Sys_error _ -> ())
    (fun () ->
      let cold, cold_stats =
        Check.analyze_program ~config ~cache [ "check_fixtures" ]
      in
      Alcotest.(check bool)
        "first run is cold" false cold_stats.Summary.st_warm;
      let warm, warm_stats =
        Check.analyze_program ~config ~cache [ "check_fixtures" ]
      in
      Alcotest.(check bool) "second run is warm" true warm_stats.Summary.st_warm;
      Alcotest.(check int)
        "every unit is a cache hit" warm_stats.Summary.st_units
        warm_stats.Summary.st_hits;
      Alcotest.(check string)
        "warm report is byte-identical"
        (Json.to_string (Check.report_to_json cold))
        (Json.to_string (Check.report_to_json warm)))

(* JSON round-trips ----------------------------------------------------- *)

let violation_gen =
  QCheck.Gen.(
    let str = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
    let* file = str in
    let* line = int_range 1 10_000 in
    let* col = int_range 0 500 in
    let* rule = oneofl Check.all_rules in
    let* message = str in
    return { Check.file; line; col; rule; message })

let violation_arb =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" Check.pp_violation v)
    violation_gen

let report_arb =
  QCheck.make
    ~print:(fun r -> Json.to_string (Check.report_to_json r))
    QCheck.Gen.(
      let* files_scanned = int_range 0 1_000 in
      let* closures_analyzed = int_range 0 1_000 in
      let* expressions_analyzed = int_range 0 1_000_000 in
      let* guarded_accesses = int_range 0 10_000 in
      let* event_loop_roots = int_range 0 100 in
      let* violations = list_size (int_range 0 8) violation_gen in
      return
        {
          Check.files_scanned;
          closures_analyzed;
          expressions_analyzed;
          guarded_accesses;
          event_loop_roots;
          violations;
        })

let test_violation_roundtrip =
  QCheck.Test.make ~count:200 ~name:"violation JSON round-trip" violation_arb
    (fun v ->
      match Json.of_string (Json.to_string (Check.violation_to_json v)) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok j -> (
          match Check.violation_of_json j with
          | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
          | Ok v' -> Check.equal_violation v v'))

let test_report_roundtrip =
  QCheck.Test.make ~count:100 ~name:"report JSON round-trip" report_arb
    (fun r ->
      match Json.of_string (Json.to_string (Check.report_to_json r)) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok j -> (
          match Check.report_of_json j with
          | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
          | Ok r' ->
              r.Check.files_scanned = r'.Check.files_scanned
              && r.Check.closures_analyzed = r'.Check.closures_analyzed
              && r.Check.expressions_analyzed = r'.Check.expressions_analyzed
              && r.Check.guarded_accesses = r'.Check.guarded_accesses
              && r.Check.event_loop_roots = r'.Check.event_loop_roots
              && List.equal Check.equal_violation r.Check.violations
                   r'.Check.violations))

(* Analyzer budget: the whole-program run over the library tree (the
   .cmt files of ../lib, built before this test runs) must stay cheap
   enough to sit in every build.  Cold, with an empty summary cache,
   it takes under 5 s; warm, against the cache the cold run wrote, it
   is at least 3x faster and rebuilds a byte-identical report. *)
let test_analyzer_budget () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let cache = Filename.temp_file "wa_check_budget" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove cache) @@ fun () ->
  let run () = time (fun () -> Check.analyze_program ~cache [ "../lib" ]) in
  let (cold, cold_stats), cold_ms = run () in
  let (warm, warm_stats), warm_ms = run () in
  Alcotest.(check bool) "first run is cold" false cold_stats.Summary.st_warm;
  Alcotest.(check bool) "second run is warm" true warm_stats.Summary.st_warm;
  Alcotest.(check bool) "library tree scanned" true
    (cold.Check.files_scanned > 0);
  Alcotest.(check string) "warm report byte-identical"
    (Json.to_string (Check.report_to_json cold))
    (Json.to_string (Check.report_to_json warm));
  Alcotest.(check bool) (Printf.sprintf "cold %.0f ms < 5000 ms" cold_ms) true
    (cold_ms < 5000.0);
  Alcotest.(check bool)
    (Printf.sprintf "warm %.0f ms at least 3x faster than cold %.0f ms"
       warm_ms cold_ms)
    true
    (cold_ms >= 3.0 *. warm_ms)

let () =
  Alcotest.run "wa_check"
    [
      ( "rules",
        [
          Alcotest.test_case "domain-capture" `Quick
            (check_fixture "Bad_capture" [ "domain-capture" ]);
          Alcotest.test_case "unit-mix" `Quick
            (check_fixture "Bad_unit_mix" [ "unit-mix" ]);
          Alcotest.test_case "float-unguarded" `Quick
            (check_fixture "Bad_div" [ "float-unguarded" ]);
          Alcotest.test_case "nan-compare" `Quick
            (check_fixture "Bad_nan_compare" [ "nan-compare" ]);
          Alcotest.test_case "exn-escape" `Quick
            (check_fixture "Bad_exn" [ "exn-escape" ]);
          Alcotest.test_case "cmt-error" `Quick test_cmt_error;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "callee precondition unproven" `Quick
            (check_fixture "Bad_guard_call" [ "float-unguarded" ]);
          Alcotest.test_case "callee precondition discharged" `Quick
            (check_fixture "Good_guard_call" []);
          Alcotest.test_case "callee result domain mixes" `Quick
            (check_fixture "Bad_unit_call" [ "unit-mix" ]);
          Alcotest.test_case "callee result domain consistent" `Quick
            (check_fixture "Good_unit_call" []);
          Alcotest.test_case "transitive chunk write" `Quick
            (check_fixture "Bad_capture_call" [ "domain-capture" ]);
          Alcotest.test_case "transitive atomic helper" `Quick
            (check_fixture "Good_capture_call" []);
          Alcotest.test_case "transitive chunk raise" `Quick
            (check_fixture "Bad_exn_call" [ "exn-escape" ]);
          Alcotest.test_case "caller try covers summary" `Quick
            (check_fixture "Good_exn_call" []);
          Alcotest.test_case "Fun.protect delegates cleanup" `Quick
            (check_fixture "Good_exn_protect" []);
          Alcotest.test_case "hot kernel allocates via callee" `Quick
            (check_fixture "Bad_hot_call" [ "hot-alloc" ]);
          Alcotest.test_case "hot kernel certified transitively" `Quick
            (check_fixture "Good_hot_call" []);
          Alcotest.test_case "hot-alloc chain names callee" `Quick
            test_hot_chain;
          Alcotest.test_case "SCC positivity fixpoint" `Quick
            (check_fixture "Scc_fixture" []);
          Alcotest.test_case "guard-free smart constructor" `Quick
            (check_fixture "Bad_smart_ctor" [ "float-unguarded" ]);
          Alcotest.test_case "smart-ctor proof needs summaries" `Quick
            test_smart_ctor_boundary;
          Alcotest.test_case "untested witness ref" `Quick
            (check_fixture "Bad_witness" [ "float-unguarded" ]);
          Alcotest.test_case "tested witness ref" `Quick
            (check_fixture "Good_witness" []);
          Alcotest.test_case "unfloored scratch write" `Quick
            (check_fixture "Bad_posarray" [ "float-unguarded" ]);
          Alcotest.test_case "floored scratch array" `Quick
            (check_fixture "Good_posarray" []);
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "unguarded access at a root" `Quick
            (check_fixture "Bad_lockset" [ "lockset" ]);
          Alcotest.test_case "requirement discharged by locked caller"
            `Quick
            (check_fixture "Good_lockset" []);
          Alcotest.test_case "lock-order cycle, first edge" `Quick
            (check_fixture "Lock_order_a" [ "lock-order" ]);
          Alcotest.test_case "lock-order cycle, second edge" `Quick
            (check_fixture "Lock_order_b" [ "lock-order" ]);
          Alcotest.test_case "lock definitions stay silent" `Quick
            (check_fixture "Lock_order_locks" []);
          Alcotest.test_case "event-loop root reaches compute" `Quick
            (check_fixture "Bad_block" [ "event-loop-block" ]);
          Alcotest.test_case "deferred compute certified" `Quick
            (check_fixture "Good_block" []);
          Alcotest.test_case "thread closure writes a captured ref" `Quick
            (check_fixture "Bad_thread" [ "domain-capture" ]);
          Alcotest.test_case "thread closure deferred, atomic counter"
            `Quick
            (check_fixture "Good_thread" []);
          Alcotest.test_case "atomic check-then-act window" `Quick
            (check_fixture "Bad_ctoa" [ "check-then-act" ]);
          Alcotest.test_case "compare_and_set spelling" `Quick
            (check_fixture "Good_cas" []);
          Alcotest.test_case "concurrency suppressions" `Quick
            (check_fixture "Allowed_conc" []);
        ] );
      ( "clean",
        [
          Alcotest.test_case "atomic counter" `Quick
            (check_fixture "Good_capture" []);
          Alcotest.test_case "consistent units" `Quick
            (check_fixture "Good_unit_mix" []);
          Alcotest.test_case "guarded division" `Quick
            (check_fixture "Good_div" []);
          Alcotest.test_case "guarded comparator" `Quick
            (check_fixture "Good_nan_compare" []);
          Alcotest.test_case "local handler" `Quick
            (check_fixture "Good_exn" []);
          Alcotest.test_case "suppressions" `Quick
            (check_fixture "Allowed_check" []);
          Alcotest.test_case "shared callees stay silent" `Quick
            (check_fixture "Fix_sources" []);
        ] );
      ( "coverage",
        [
          Alcotest.test_case "closure/expression stats" `Quick test_stats;
          Alcotest.test_case "whole-tree scan" `Quick test_tree_totals;
          Alcotest.test_case "summary cache round-trip" `Quick
            test_cache_roundtrip;
          Alcotest.test_case "analyzer budget" `Quick test_analyzer_budget;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest test_violation_roundtrip;
          QCheck_alcotest.to_alcotest test_report_roundtrip;
        ] );
    ]
