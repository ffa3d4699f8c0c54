(* The wa-lint analyzer: every fixture under lint_fixtures/ triggers
   its rule exactly once, compliant and suppressed spellings stay
   silent, and violation reports round-trip through JSON (qcheck). *)

module Lint = Wa_lint_core.Lint
module Json = Wa_util.Json

(* Paths are relative to the test runner's cwd (_build/default/test);
   the dune deps clause copies the fixtures there. *)
let fixture name = "lint_fixtures/" ^ name

let config =
  {
    Lint.Config.hot_paths = [ fixture "bad_printf_hot.ml" ];
    atomic_allowed = [];
    unix_allowed = [];
    float_modules = [ "Link"; "Vec2"; "Float" ];
    mli_required_roots = [ "lint_fixtures/liblike" ];
    export_roots = [ "lint_fixtures/exportlike" ];
  }

let rules_of violations = List.map (fun v -> v.Lint.rule) violations

let check_single_rule file rule () =
  let violations = Lint.lint_file ~config (fixture file) in
  Alcotest.(check (list string))
    (file ^ " reports exactly one " ^ rule)
    [ rule ] (rules_of violations);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "positions are 1-based lines" true (v.Lint.line >= 1))
    violations

let test_good () =
  Alcotest.(check (list string))
    "good.ml is clean" []
    (rules_of (Lint.lint_file ~config (fixture "good.ml")))

let test_allowed () =
  Alcotest.(check (list string))
    "suppression attributes silence the rules" []
    (rules_of (Lint.lint_file ~config (fixture "allowed.ml")))

let test_missing_mli () =
  let report = Lint.lint_paths ~config [ "lint_fixtures/liblike" ] in
  Alcotest.(check (list string))
    "orphan.ml reports exactly one missing-mli" [ "missing-mli" ]
    (rules_of report.Lint.violations)

let test_unused_export () =
  (* ref_paths activates the rule; the empty list adds no extra
     reference roots beyond the scanned tree itself. *)
  let report =
    Lint.lint_paths ~config ~ref_paths:[] [ "lint_fixtures/exportlike" ]
  in
  Alcotest.(check (list string))
    "only dead_fn is flagged" [ "unused-export" ]
    (rules_of report.Lint.violations);
  List.iter
    (fun v ->
      Alcotest.(check string)
        "flagged in the interface" "lint_fixtures/exportlike/exports.mli"
        v.Lint.file)
    report.Lint.violations

(* The values [unused-export] reports when the rule sees only [files]
   of the exportlike fixture (paths relative to it). *)
let flagged_values files =
  let report =
    Lint.lint_paths ~config ~ref_paths:[]
      (List.map (fun f -> "lint_fixtures/exportlike/" ^ f) files)
  in
  List.map
    (fun v ->
      Alcotest.(check string) "rule" "unused-export" v.Lint.rule;
      (* "value <name> is exported by ..." *)
      List.nth (String.split_on_char ' ' v.Lint.message) 1)
    report.Lint.violations

let test_unused_export_aliases () =
  Alcotest.(check (list string))
    "no consumer: both unsuppressed values flagged" [ "used_fn"; "dead_fn" ]
    (flagged_values [ "exports.ml" ]);
  List.iter
    (fun consumer ->
      Alcotest.(check (list string))
        (consumer ^ ": the alias use counts, the alias keeps nothing else")
        [ "dead_fn" ]
        (flagged_values [ "exports.ml"; consumer ]))
    [ "alias_consumer.ml"; "let_alias_consumer.ml"; "chain_consumer.ml" ];
  Alcotest.(check (list string))
    "an opened module stays wholesale-used" []
    (flagged_values [ "opened_mod.ml"; "consumer.ml" ])

let test_unused_export_inactive () =
  let report = Lint.lint_paths ~config [ "lint_fixtures/exportlike" ] in
  Alcotest.(check (list string))
    "without ref_paths the rule stays off" []
    (rules_of report.Lint.violations)

let test_dedupe () =
  let once = Lint.lint_paths ~config [ "lint_fixtures" ] in
  let twice = Lint.lint_paths ~config [ "lint_fixtures"; "lint_fixtures" ] in
  Alcotest.(check int)
    "overlapping paths scan each file once" once.Lint.files_scanned
    twice.Lint.files_scanned;
  Alcotest.(check bool)
    "overlapping paths report each violation once" true
    (List.equal Lint.equal_violation once.Lint.violations
       twice.Lint.violations)

let test_paths_totals () =
  let report = Lint.lint_paths ~config [ "lint_fixtures" ] in
  Alcotest.(check bool)
    "scanned every fixture" true
    (report.Lint.files_scanned >= 10);
  (* One violation per bad_* fixture plus the orphan .mli. *)
  let expected =
    [
      "atomic-scope";
      "float-eq";
      "list-eq";
      "missing-mli";
      "obj-magic";
      "obs-scope";
      "poly-compare";
      "printf-hot";
      "unix-scope";
    ]
  in
  Alcotest.(check (list string))
    "exactly the nine planted violations" expected
    (List.sort_uniq String.compare (rules_of report.Lint.violations));
  Alcotest.(check int)
    "no rule fires twice" (List.length expected)
    (List.length report.Lint.violations)

(* JSON round-trips ----------------------------------------------------- *)

let violation_gen =
  QCheck.Gen.(
    let str = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
    let* file = str in
    let* line = int_range 1 10_000 in
    let* col = int_range 0 500 in
    let* rule = oneofl Lint.all_rules in
    let* message = str in
    return { Lint.file; line; col; rule; message })

let violation_arb =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" Lint.pp_violation v)
    violation_gen

let report_arb =
  QCheck.make
    ~print:(fun r ->
      Json.to_string (Lint.report_to_json r))
    QCheck.Gen.(
      let* files_scanned = int_range 0 1_000 in
      let* violations = list_size (int_range 0 8) violation_gen in
      return { Lint.files_scanned; violations })

let test_violation_roundtrip =
  QCheck.Test.make ~count:200 ~name:"violation JSON round-trip" violation_arb
    (fun v ->
      match
        Json.of_string (Json.to_string (Lint.violation_to_json v))
      with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok j -> (
          match Lint.violation_of_json j with
          | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
          | Ok v' -> Lint.equal_violation v v'))

let test_report_roundtrip =
  QCheck.Test.make ~count:100 ~name:"report JSON round-trip" report_arb
    (fun r ->
      match Json.of_string (Json.to_string (Lint.report_to_json r)) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok j -> (
          match Lint.report_of_json j with
          | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
          | Ok r' ->
              r.Lint.files_scanned = r'.Lint.files_scanned
              && List.equal Lint.equal_violation r.Lint.violations
                   r'.Lint.violations))

let () =
  Alcotest.run "wa_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "list-eq" `Quick
            (check_single_rule "bad_list_eq.ml" "list-eq");
          Alcotest.test_case "float-eq" `Quick
            (check_single_rule "bad_float_eq.ml" "float-eq");
          Alcotest.test_case "poly-compare" `Quick
            (check_single_rule "bad_poly_compare.ml" "poly-compare");
          Alcotest.test_case "atomic-scope" `Quick
            (check_single_rule "bad_atomic.ml" "atomic-scope");
          Alcotest.test_case "unix-scope" `Quick
            (check_single_rule "bad_unix.ml" "unix-scope");
          Alcotest.test_case "obs-scope" `Quick
            (check_single_rule "bad_obs_enabled.ml" "obs-scope");
          Alcotest.test_case "obj-magic" `Quick
            (check_single_rule "bad_obj_magic.ml" "obj-magic");
          Alcotest.test_case "printf-hot" `Quick
            (check_single_rule "bad_printf_hot.ml" "printf-hot");
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "unused-export" `Quick test_unused_export;
          Alcotest.test_case "unused-export through aliases" `Quick
            test_unused_export_aliases;
          Alcotest.test_case "unused-export off by default" `Quick
            test_unused_export_inactive;
          Alcotest.test_case "clean file" `Quick test_good;
          Alcotest.test_case "suppressions" `Quick test_allowed;
          Alcotest.test_case "dedupe" `Quick test_dedupe;
          Alcotest.test_case "whole-tree scan" `Quick test_paths_totals;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest test_violation_roundtrip;
          QCheck_alcotest.to_alcotest test_report_roundtrip;
        ] );
    ]
