module Json = Wa_util.Json
module Pointset_io = Wa_io.Pointset_io
module Export = Wa_io.Export
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Pipeline = Wa_core.Pipeline
module Schedule = Wa_core.Schedule
module Rng = Wa_util.Rng

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ JSON *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (Json.escape_string "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (Json.escape_string "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (Json.escape_string "a\nb");
  Alcotest.(check string) "control" "\"\\u0001\"" (Json.escape_string "\x01")

let test_json_compound () =
  let v = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]); ("b", Json.Null) ] in
  let compact = Json.to_string ~pretty:false v in
  Alcotest.(check string) "compact" "{\"a\":[1,2],\"b\":null}" compact;
  let pretty = Json.to_string v in
  Alcotest.(check bool) "pretty has newlines" true (contains pretty "\n")

let test_json_floats () =
  Alcotest.(check string) "integer-valued" "3.0" (Json.to_string (Json.Float 3.0));
  Alcotest.(check bool) "roundtrip precision" true
    (contains (Json.to_string (Json.Float 0.1)) "0.1");
  Alcotest.(check string) "nan becomes null" "null" (Json.to_string (Json.Float nan))

(* ------------------------------------------------------------------- CSV *)

let test_csv_roundtrip () =
  let ps =
    Pointset.of_list
      [ Vec2.make 0.5 1.25; Vec2.make (-3.0) 4.75; Vec2.make 1e-9 2e10 ]
  in
  match Pointset_io.of_csv (Pointset_io.to_csv ps) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "size" (Pointset.size ps) (Pointset.size back);
      for i = 0 to Pointset.size ps - 1 do
        Alcotest.(check bool) "coords equal" true
          (Vec2.equal (Pointset.get ps i) (Pointset.get back i))
      done

let test_csv_tolerates_noise () =
  let content = "# a comment\nx,y\n\n1.0, 2.0\n 3 ,4\n" in
  match Pointset_io.of_csv content with
  | Error e -> Alcotest.fail e
  | Ok ps ->
      Alcotest.(check int) "two points" 2 (Pointset.size ps);
      Alcotest.(check (float 1e-9)) "first x" 1.0 (Pointset.get ps 0).Vec2.x

let test_csv_errors () =
  (match Pointset_io.of_csv "1.0\n" with
  | Error e -> Alcotest.(check bool) "mentions line" true (contains e "line 1")
  | Ok _ -> Alcotest.fail "expected arity error");
  (match Pointset_io.of_csv "1.0,zzz\n" with
  | Error e -> Alcotest.(check bool) "malformed number" true (contains e "malformed")
  | Ok _ -> Alcotest.fail "expected number error");
  match Pointset_io.of_csv "# nothing\n" with
  | Error e -> Alcotest.(check string) "empty" "no points found" e
  | Ok _ -> Alcotest.fail "expected empty error"

let test_csv_file_roundtrip () =
  let ps = Pointset.of_list [ Vec2.make 1.0 2.0; Vec2.make 3.0 4.0 ] in
  let path = Filename.temp_file "wa_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pointset_io.write_file path ps;
      match Pointset_io.read_file path with
      | Ok back -> Alcotest.(check int) "size" 2 (Pointset.size back)
      | Error e -> Alcotest.fail e)

let test_csv_missing_file () =
  match Pointset_io.read_file "/nonexistent/nope.csv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* --------------------------------------------------------------- Export *)

let plan_for_test () =
  let ps =
    Wa_instances.Random_deploy.uniform_square (Rng.create 5) ~n:20 ~side:100.0
  in
  Pipeline.plan `Global ps

let test_plan_json_shape () =
  let plan = plan_for_test () in
  let json = Export.plan_to_json plan in
  let text = Json.to_string json in
  List.iter
    (fun key -> Alcotest.(check bool) ("has " ^ key) true (contains text key))
    [ "nodes"; "links"; "schedule"; "slots"; "valid"; "sink"; "rate" ];
  (* Every link id appears exactly once across the slots. *)
  match json with
  | Json.Obj fields -> (
      match List.assoc "schedule" fields with
      | Json.Obj sched_fields -> (
          match List.assoc "slots" sched_fields with
          | Json.List slots ->
              let ids =
                List.concat_map
                  (function
                    | Json.List items ->
                        List.map (function Json.Int i -> i | _ -> -1) items
                    | _ -> [])
                  slots
              in
              Alcotest.(check int) "19 links scheduled" 19 (List.length ids);
              Alcotest.(check (list int)) "each once" (List.init 19 Fun.id)
                (List.sort compare ids)
          | _ -> Alcotest.fail "slots not a list")
      | _ -> Alcotest.fail "schedule not an object")
  | _ -> Alcotest.fail "plan not an object"

let test_plan_dot_shape () =
  let plan = plan_for_test () in
  let dot = Export.plan_to_dot plan in
  Alcotest.(check bool) "digraph" true (contains dot "digraph aggregation");
  Alcotest.(check bool) "sink highlighted" true (contains dot "doublecircle");
  Alcotest.(check bool) "has positions" true (contains dot "pos=");
  (* One edge line per link. *)
  let edge_count =
    List.length
      (List.filter
         (fun line -> contains line " -> ")
         (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "19 edges" 19 edge_count

let test_schedule_json () =
  let plan = plan_for_test () in
  let ls = plan.Pipeline.agg.Wa_core.Agg_tree.links in
  let json = Export.schedule_to_json ls plan.Pipeline.schedule in
  let text = Json.to_string ~pretty:false json in
  Alcotest.(check bool) "has rate" true (contains text "\"rate\"");
  Alcotest.(check bool) "has mode" true (contains text "arbitrary")

let () =
  Alcotest.run "wa_io"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "compound" `Quick test_json_compound;
          Alcotest.test_case "floats" `Quick test_json_floats;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "tolerates noise" `Quick test_csv_tolerates_noise;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "file roundtrip" `Quick test_csv_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_csv_missing_file;
        ] );
      ( "export",
        [
          Alcotest.test_case "plan json" `Quick test_plan_json_shape;
          Alcotest.test_case "plan dot" `Quick test_plan_dot_shape;
          Alcotest.test_case "schedule json" `Quick test_schedule_json;
        ] );
    ]
