(* The serving layer: protocol round-trips and id splicing (qcheck), the
   golden wire corpus, malformed-input rejection, cache semantics (including structural equality of a
   cached plan against a freshly computed one), and the worker pool's
   backpressure and drain behavior. *)

module P = Wa_service.Protocol
module Cache = Wa_service.Cache
module Engine = Wa_service.Engine
module Pool = Wa_util.Parallel.Pool
module Json = Wa_util.Json
module Vec2 = Wa_geom.Vec2
module Pipeline = Wa_core.Pipeline

(* Generators ----------------------------------------------------------- *)

let gen_finite lo hi = QCheck.Gen.float_range lo hi

let gen_vec2 =
  QCheck.Gen.map
    (fun (x, y) -> Vec2.make x y)
    (QCheck.Gen.pair (gen_finite (-2000.0) 2000.0) (gen_finite (-2000.0) 2000.0))

let gen_power =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return `Global;
      QCheck.Gen.return `Uniform;
      QCheck.Gen.return `Linear;
      QCheck.Gen.map (fun tau -> `Oblivious tau) (gen_finite 0.05 0.95);
    ]

let gen_deploy =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map
        (fun pts -> P.Points (Array.of_list pts))
        QCheck.Gen.(list_size (int_range 1 8) gen_vec2);
      QCheck.Gen.map
        (fun (kind, n, seed, side) -> P.Generate { kind; n; seed; side })
        QCheck.Gen.(
          quad
            (oneofl [ "uniform"; "disk"; "grid"; "clusters"; "line" ])
            (int_range 1 500) (int_range 0 9999) (gen_finite 10.0 5000.0));
    ]

let gen_spec =
  QCheck.Gen.map
    (fun ((deploy, power, engine), (alpha, beta, gamma, no_cache)) ->
      { P.deploy; power; alpha; beta; gamma; engine; no_cache })
    QCheck.Gen.(
      pair
        (triple gen_deploy gen_power (oneofl [ `Dense; `Indexed ]))
        (quad (gen_finite 2.1 6.0) (gen_finite 0.2 3.0)
           (opt (gen_finite 0.1 0.9))
           bool))

(* Cache keys on the wire are MD5 hex digests of canonical specs. *)
let gen_cache_key =
  QCheck.Gen.map
    (fun s -> Digest.to_hex (Digest.string s))
    QCheck.Gen.string_printable

let gen_request_body =
  QCheck.Gen.frequency
    [
      (1, QCheck.Gen.return P.Ping);
      (1, QCheck.Gen.map (fun key -> P.Cache_peek { key }) gen_cache_key);
      ( 1,
        QCheck.Gen.map
          (fun (origin, invalidate, keys) ->
            P.Cache_advertise { origin; invalidate; keys })
          QCheck.Gen.(
            triple
              (oneofl [ "shard0"; "shard1"; "shard2" ])
              bool
              (list_size (int_range 0 6) gen_cache_key)) );
      (1, QCheck.Gen.return P.Stats);
      (1, QCheck.Gen.return P.Telemetry);
      (1, QCheck.Gen.return P.Shutdown);
      (4, QCheck.Gen.map (fun s -> P.Plan s) gen_spec);
      (2, QCheck.Gen.map (fun s -> P.Describe s) gen_spec);
      ( 2,
        QCheck.Gen.map
          (fun (spec, periods) -> P.Simulate { spec; periods })
          QCheck.Gen.(pair gen_spec (int_range 1 200)) );
      ( 2,
        QCheck.Gen.map
          (fun (sink, power, (alpha, beta, gamma)) ->
            P.Churn_create { sink; power; alpha; beta; gamma })
          QCheck.Gen.(
            triple gen_vec2 gen_power
              (triple (gen_finite 2.1 6.0) (gen_finite 0.2 3.0)
                 (opt (gen_finite 0.1 0.9)))) );
      ( 2,
        QCheck.Gen.map
          (fun (session, point) -> P.Churn_add { session; point })
          QCheck.Gen.(pair (int_range 1 1000) gen_vec2) );
      ( 2,
        QCheck.Gen.map
          (fun (session, node) -> P.Churn_remove { session; node })
          QCheck.Gen.(pair (int_range 1 1000) (int_range 0 1000)) );
      ( 1,
        QCheck.Gen.map
          (fun session -> P.Churn_info { session })
          QCheck.Gen.(int_range 1 1000) );
      ( 1,
        QCheck.Gen.map
          (fun session -> P.Churn_close { session })
          QCheck.Gen.(int_range 1 1000) );
    ]

let gen_request =
  QCheck.Gen.map
    (fun (id, deadline_ms, trace, body) -> { P.id; deadline_ms; trace; body })
    QCheck.Gen.(
      quad (int_range 0 1_000_000)
        (opt (gen_finite 0.1 60_000.0))
        bool gen_request_body)

let gen_plan_summary =
  QCheck.Gen.map
    (fun ((nodes, links, slots, rate), (raw_colors, repair_added, plan_valid),
          (point_diversity, link_diversity, description),
          (cached, compute_ms)) ->
      {
        P.nodes;
        links;
        slots;
        rate;
        raw_colors;
        repair_added;
        plan_valid;
        point_diversity;
        link_diversity;
        description;
        cached;
        compute_ms;
      })
    QCheck.Gen.(
      quad
        (quad (int_range 1 10_000) (int_range 0 10_000) (int_range 1 500)
           (gen_finite 0.001 1.0))
        (triple (int_range 0 500) (int_range 0 100) bool)
        (triple (gen_finite 0.0 1e6) (gen_finite 0.0 1e6) string_printable)
        (pair bool (gen_finite 0.0 1e5)))

let gen_cache_summary =
  QCheck.Gen.map
    (fun ((cs_entries, cs_bytes, cs_hits), (cs_misses, cs_coalesced, cs_evictions)) ->
      { P.cs_entries; cs_bytes; cs_hits; cs_misses; cs_coalesced; cs_evictions })
    QCheck.Gen.(
      pair
        (triple (int_range 0 10_000) (int_range 0 1_000_000) (int_range 0 100_000))
        (triple (int_range 0 100_000) (int_range 0 1000) (int_range 0 1000)))

let gen_stats_summary =
  QCheck.Gen.map
    (fun ((st_requests, st_responses, st_overloaded, st_deadline_misses),
          (st_inflight_peak, st_draining, st_workers, st_queue_depth),
          (st_queue_capacity, st_in_flight, st_sessions),
          st_cache) ->
      {
        P.st_requests;
        st_responses;
        st_overloaded;
        st_deadline_misses;
        st_inflight_peak;
        st_draining;
        st_workers;
        st_queue_depth;
        st_queue_capacity;
        st_in_flight;
        st_cache;
        st_sessions;
      })
    QCheck.Gen.(
      quad
        (quad (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range 0 1000)
           (int_range 0 1000))
        (quad (int_range 0 256) bool (int_range 1 64) (int_range 0 256))
        (triple (int_range 1 1024) (int_range 0 256) (int_range 0 64))
        gen_cache_summary)

(* The latency quantiles travel through the nan <-> null codec; make
   sure the empty-window shape (all nan) is generated too. *)
let gen_stat_float =
  QCheck.Gen.frequency
    [ (6, gen_finite 0.0 10_000.0); (1, QCheck.Gen.return Float.nan) ]

let gen_op_latency =
  QCheck.Gen.map
    (fun ((ol_op, ol_count), (ol_p50_ms, ol_p90_ms, ol_p99_ms, ol_max_ms)) ->
      { P.ol_op; ol_count; ol_p50_ms; ol_p90_ms; ol_p99_ms; ol_max_ms })
    QCheck.Gen.(
      pair
        (pair (oneofl [ "plan"; "simulate"; "churn_add"; "ping" ])
           (int_range 0 100_000))
        (quad gen_stat_float gen_stat_float gen_stat_float gen_stat_float))

let gen_exemplar =
  QCheck.Gen.map
    (fun (ex_op, ex_id, ex_ms) -> { P.ex_op; ex_id; ex_ms })
    QCheck.Gen.(
      triple (oneofl [ "plan"; "simulate" ]) (int_range 0 1_000_000)
        (gen_finite 0.0 60_000.0))

let gen_gc_summary =
  QCheck.Gen.map
    (fun (gc_heap_words, gc_minor_collections, gc_major_collections,
          gc_compactions) ->
      { P.gc_heap_words; gc_minor_collections; gc_major_collections;
        gc_compactions })
    QCheck.Gen.(
      quad (int_range 0 100_000_000) (int_range 0 1_000_000)
        (int_range 0 100_000) (int_range 0 100))

(* The fleet rows also exercise the nan <-> null codec (hit ratio and
   latency digests are nan until the first probe / roll). *)
let gen_backend_row =
  QCheck.Gen.map
    (fun ((be_name, be_healthy, be_draining),
          (be_queue_depth, be_in_flight, be_requests, be_failures),
          (be_hit_ratio, be_p50_ms, be_p99_ms)) ->
      {
        P.be_name;
        be_healthy;
        be_draining;
        be_queue_depth;
        be_in_flight;
        be_requests;
        be_failures;
        be_hit_ratio;
        be_p50_ms;
        be_p99_ms;
      })
    QCheck.Gen.(
      triple
        (triple (oneofl [ "shard0"; "shard1"; "shard7" ]) bool bool)
        (quad (int_range 0 256) (int_range 0 256) (int_range 0 1_000_000)
           (int_range 0 1000))
        (triple gen_stat_float gen_stat_float gen_stat_float))

let gen_fleet_summary =
  QCheck.Gen.map
    (fun (fl_backends, (fl_rerouted, fl_peek_hits, fl_gossip_keys)) ->
      { P.fl_backends; fl_rerouted; fl_peek_hits; fl_gossip_keys })
    QCheck.Gen.(
      pair
        (list_size (int_range 0 4) gen_backend_row)
        (triple (int_range 0 10_000) (int_range 0 10_000) (int_range 0 4096)))

let gen_telemetry_summary =
  QCheck.Gen.map
    (fun ((tel_uptime_s, tel_window_s, tel_windows),
          (tel_in_flight, tel_queue_depth, tel_sessions),
          (tel_ops, tel_cache, tel_exemplars),
          (tel_gc, tel_fleet)) ->
      {
        P.tel_uptime_s;
        tel_window_s;
        tel_windows;
        tel_in_flight;
        tel_queue_depth;
        tel_ops;
        tel_cache;
        tel_sessions;
        tel_exemplars;
        tel_gc;
        tel_fleet;
      })
    QCheck.Gen.(
      quad
        (triple (gen_finite 0.0 1e6) (gen_finite 0.0 3600.0) (int_range 0 60))
        (triple (int_range 0 256) (int_range 0 256) (int_range 0 64))
        (triple
           (list_size (int_range 0 6) gen_op_latency)
           gen_cache_summary
           (list_size (int_range 0 8) gen_exemplar))
        (pair gen_gc_summary (opt gen_fleet_summary)))

let gen_trace_span =
  QCheck.Gen.map
    (fun (t_name, t_start_ns, t_dur_ns, t_depth) ->
      { P.t_name; t_start_ns; t_dur_ns; t_depth })
    QCheck.Gen.(
      quad
        (oneofl
           [ "service.request"; "plan.links"; "plan.color"; "plan.repair" ])
        (int_range 0 1_000_000_000) (int_range 0 1_000_000_000) (int_range 0 8))

let gen_response_body =
  QCheck.Gen.frequency
    [
      (1, QCheck.Gen.return P.Pong);
      (1, QCheck.Gen.return P.Shutdown_ok);
      (3, QCheck.Gen.map (fun p -> P.Plan_r p) gen_plan_summary);
      (1, QCheck.Gen.map (fun d -> P.Describe_r d) QCheck.Gen.string_printable);
      ( 1,
        QCheck.Gen.map
          (fun s -> P.Churn_created s)
          QCheck.Gen.(int_range 1 1000) );
      ( 2,
        QCheck.Gen.map
          (fun ((session, node), (a, b, c, d)) ->
            P.Churn_r
              {
                session;
                node;
                links_total = a;
                links_kept = b;
                links_recolored = c;
                churn_slots = d;
                recompute_slots = a + d;
              })
          QCheck.Gen.(
            pair
              (pair (int_range 1 1000) (opt (int_range 0 1000)))
              (quad (int_range 0 100) (int_range 0 100) (int_range 0 100)
                 (int_range 0 100))) );
      ( 1,
        QCheck.Gen.map
          (fun (info_session, size, info_slots, info_valid) ->
            P.Session_r { info_session; size; info_slots; info_valid })
          QCheck.Gen.(
            quad (int_range 1 1000) (int_range 0 5000) (int_range 0 500) bool)
      );
      ( 1,
        QCheck.Gen.map
          (fun s -> P.Churn_closed s)
          QCheck.Gen.(int_range 1 1000) );
      (1, QCheck.Gen.map (fun s -> P.Stats_r s) gen_stats_summary);
      (1, QCheck.Gen.map (fun t -> P.Telemetry_r t) gen_telemetry_summary);
      ( 1,
        QCheck.Gen.map
          (fun (present, origin) -> P.Cache_peek_r { present; origin })
          QCheck.Gen.(pair bool (opt (oneofl [ "shard0"; "shard4" ]))) );
      ( 1,
        QCheck.Gen.map
          (fun n -> P.Advertise_ok n)
          QCheck.Gen.(int_range 0 64) );
      ( 2,
        QCheck.Gen.map
          (fun (code, message, shard) -> P.Error { code; message; shard })
          QCheck.Gen.(
            triple
              (oneofl
                 [
                   P.Bad_request;
                   P.Bad_version;
                   P.Overloaded;
                   P.Deadline_exceeded;
                   P.No_such_session;
                   P.Shutting_down;
                   P.Internal;
                 ])
              string_printable
              (opt (oneofl [ "shard0"; "shard3" ]))) );
    ]

let gen_response =
  QCheck.Gen.map
    (fun (rid, body, rtrace) -> { P.rid; body; rtrace })
    QCheck.Gen.(
      triple (int_range 0 1_000_000) gen_response_body
        (opt (list_size (int_range 1 6) gen_trace_span)))

(* Round-trip properties ------------------------------------------------- *)

(* Equality via the canonical wire line: exact for every payload the
   encoder can produce, and insensitive to float re-parsing because
   the emitter's literals are read back verbatim. *)
let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode (encode request) = request"
    (QCheck.make ~print:(fun r -> P.request_to_line r) gen_request)
    (fun r ->
      match P.request_of_line (P.request_to_line r) with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Ok r' -> String.equal (P.request_to_line r) (P.request_to_line r'))

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode (encode response) = response"
    (QCheck.make ~print:(fun r -> P.response_to_line r) gen_response)
    (fun r ->
      match P.response_of_line (P.response_to_line r) with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Ok r' -> String.equal (P.response_to_line r) (P.response_to_line r'))

(* Golden wire corpus ---------------------------------------------------- *)

(* [protocol_corpus.jsonl] holds 200 request and 200 response lines
   drawn from the generators above (QCheck seed 20181106) by the
   hand-written encoders that preceded the codec combinator, plus the
   cache key of every plan-like request's spec.  Decoding and
   re-encoding each line must give back the same bytes, and every key
   must be unchanged: cache keys and ring placement depend on both. *)
let test_golden_corpus () =
  let lines =
    In_channel.with_open_text "protocol_corpus.jsonl" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))
  in
  let requests = ref 0 and responses = ref 0 in
  List.iter
    (fun entry ->
      let json = Result.get_ok (Json.of_string entry) in
      let text name = Option.bind (Json.member name json) Json.to_string_opt in
      match (text "request", text "response") with
      | Some line, _ -> (
          incr requests;
          match P.request_of_line line with
          | Error m -> Alcotest.failf "corpus request does not decode (%s): %s" m line
          | Ok r -> (
              Alcotest.(check string) "request bytes" line (P.request_to_line r);
              match (r.P.body, text "spec_key") with
              | (P.Plan spec | P.Describe spec | P.Simulate { spec; _ }), Some key ->
                  Alcotest.(check string) "spec key" key (Engine.spec_key spec)
              | (P.Plan _ | P.Describe _ | P.Simulate _), None ->
                  Alcotest.failf "plan-like corpus request without a key: %s" line
              | _ -> ()))
      | None, Some line -> (
          incr responses;
          match P.response_of_line line with
          | Error m -> Alcotest.failf "corpus response does not decode (%s): %s" m line
          | Ok r ->
              Alcotest.(check string) "response bytes" line (P.response_to_line r))
      | None, None -> Alcotest.failf "corpus entry without a line: %s" entry)
    lines;
  Alcotest.(check (pair int int)) "corpus size" (200, 200) (!requests, !responses)

(* Envelope splicing ----------------------------------------------------- *)

let rest_of line pos = String.sub line pos (String.length line - pos)

let prop_request_splice =
  QCheck.Test.make ~count:500
    ~name:"splicing id k into a request line = encoding with id k"
    (QCheck.make
       ~print:(fun (r, k) -> Printf.sprintf "%s with id %d" (P.request_to_line r) k)
       QCheck.Gen.(pair gen_request (int_range 0 1_000_000)))
    (fun (r, k) ->
      let line = P.request_to_line r in
      match P.split_id line with
      | None -> r.P.trace || Option.is_some r.P.deadline_ms
      | Some (id, pos) ->
          id = r.P.id
          && String.equal
               (P.id_prefix k ^ rest_of line pos)
               (P.request_to_line { r with P.id = k }))

let prop_response_splice =
  QCheck.Test.make ~count:500
    ~name:"splicing id k into a response line = encoding with id k"
    (QCheck.make
       ~print:(fun (r, k) -> Printf.sprintf "%s with id %d" (P.response_to_line r) k)
       QCheck.Gen.(pair gen_response (int_range 0 1_000_000)))
    (fun (r, k) ->
      let line = P.response_to_line r in
      match P.split_id line with
      | None -> false
      | Some (id, pos) ->
          id = r.P.rid
          && P.ok_at line pos = (match r.P.body with P.Error _ -> false | _ -> true)
          && String.equal
               (P.id_prefix k ^ rest_of line pos)
               (P.response_to_line { r with P.rid = k }))

(* Malformed input ------------------------------------------------------- *)

let bad_requests =
  [
    ("not json", "this is not json");
    ("empty object", "{}");
    ("array", "[1,2,3]");
    ("missing op", {|{"v":1,"id":1}|});
    ("unknown op", {|{"v":1,"id":1,"op":"frobnicate"}|});
    ("future version", {|{"v":99,"id":1,"op":"ping"}|});
    ("string id", {|{"v":1,"id":"seven","op":"ping"}|});
    ("plan without deploy", {|{"v":1,"id":1,"op":"plan"}|});
    ( "plan with bad power",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"power":"loud"}|}
    );
    ( "plan with malformed point",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1]]}}|} );
    ( "plan with string alpha",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"alpha":"three"}|}
    );
    ( "plan with empty points",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[]}}|} );
    ( "plan with bad engine",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"engine":"quantum"}|}
    );
    ( "oblivious tau out of range",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"power":"oblivious:1.5"}|}
    );
    ("churn_add without session", {|{"v":1,"id":1,"op":"churn_add","point":[1,2]}|});
    ("non-bool trace", {|{"v":1,"id":1,"op":"ping","trace":"yes"}|});
    ( "simulate with string periods",
      {|{"v":1,"id":1,"op":"simulate","deploy":{"points":[[0,0],[1,1]]},"periods":"many"}|}
    );
    (* The parser reads 1e999 as infinity; no spec value may be one. *)
    ( "infinite alpha",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"alpha":1e999}|} );
    ( "infinite beta",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"beta":-1e999}|} );
    ( "infinite gamma",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"gamma":1e999}|} );
    ( "infinite side",
      {|{"v":1,"id":1,"op":"plan","deploy":{"kind":"uniform","n":10,"seed":1,"side":1e999}}|}
    );
    ( "infinite point",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[1e999,0],[1,1]]}}|} );
    ( "infinite sink",
      {|{"v":1,"id":1,"op":"churn_create","sink":[0,-1e999],"power":"global"}|} );
    ( "infinite churn point",
      {|{"v":1,"id":1,"op":"churn_add","session":1,"point":[1e999,1]}|} );
    ( "infinite oblivious tau",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"power":"oblivious:1e999"}|}
    );
    ( "nan oblivious tau",
      {|{"v":1,"id":1,"op":"plan","deploy":{"points":[[0,0],[1,1]]},"power":"oblivious:nan"}|}
    );
  ]

let test_malformed_requests () =
  List.iter
    (fun (name, line) ->
      match P.request_of_line line with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error msg -> (
          let expected =
            if String.equal name "future version" then P.Bad_version else P.Bad_request
          in
          let reply = P.undecodable ~line msg in
          Alcotest.(check int) (name ^ " id") (P.id_of_line line) reply.P.rid;
          match reply.P.body with
          | P.Error { code; _ } ->
              Alcotest.(check string)
                (name ^ " code")
                (P.error_code_to_string expected)
                (P.error_code_to_string code)
          | _ -> Alcotest.failf "%s: reply is not an error" name))
    bad_requests

let bad_responses =
  [
    ("not json", "][");
    ("missing ok+error", {|{"v":1,"id":1}|});
    ("unknown op", {|{"v":1,"id":1,"ok":true,"op":"mystery","result":null}|});
    ("error without code", {|{"v":1,"id":1,"ok":false,"error":{"message":"m"}}|});
    ( "error with unknown code",
      {|{"v":1,"id":1,"ok":false,"error":{"code":"doom","message":"m"}}|} );
    ("ok without result", {|{"v":1,"id":1,"ok":true,"op":"ping"}|});
    ( "telemetry without ops",
      {|{"v":1,"id":1,"ok":true,"op":"telemetry","result":{"uptime_s":1}}|} );
    ( "non-array trace in response",
      {|{"v":1,"id":1,"ok":true,"op":"ping","result":null,"trace":"spans"}|} );
    ( "trace span without name",
      {|{"v":1,"id":1,"ok":true,"op":"ping","result":null,"trace":[{"start_ns":0,"dur_ns":1,"depth":0}]}|}
    );
  ]

let test_malformed_responses () =
  List.iter
    (fun (name, line) ->
      Alcotest.(check bool)
        (name ^ " rejected") true
        (Result.is_error (P.response_of_line line)))
    bad_responses

let test_id_recovery () =
  Alcotest.(check int)
    "id recovered from malformed request" 42
    (P.id_of_line {|{"v":1,"id":42,"op":"frobnicate"}|});
  Alcotest.(check int) "unrecoverable id is 0" 0 (P.id_of_line "garbage")

(* Content addressing ---------------------------------------------------- *)

let spec_gen n seed =
  {
    P.deploy = P.Generate { kind = "uniform"; n; seed; side = 500.0 };
    power = `Global;
    alpha = 3.0;
    beta = 1.0;
    gamma = None;
    engine = `Indexed;
    no_cache = false;
  }

let test_content_key () =
  let s = spec_gen 40 5 in
  Alcotest.(check string)
    "key is deterministic" (Engine.spec_key s) (Engine.spec_key s);
  Alcotest.(check bool)
    "different seed, different key" false
    (String.equal (Engine.spec_key s) (Engine.spec_key (spec_gen 40 6)));
  (* no_cache steers the cache, it must not change the address. *)
  Alcotest.(check string)
    "no_cache not part of the key"
    (Engine.spec_key s)
    (Engine.spec_key { s with P.no_cache = true })

(* The tentpole correctness property of the cache: a plan served from
   the cache is structurally identical to one computed fresh by the
   pipeline for the same spec. *)
let test_cached_plan_equals_fresh () =
  let engine = Engine.create () in
  let spec = spec_gen 40 5 in
  let p1, cached1, _ = Engine.obtain_plan engine spec in
  let p2, cached2, _ = Engine.obtain_plan engine spec in
  Alcotest.(check bool) "first computes" false cached1;
  Alcotest.(check bool) "second is a hit" true cached2;
  let fresh =
    let params = Wa_sinr.Params.make ~alpha:3.0 ~beta:1.0 () in
    Pipeline.plan ~params ~engine:`Indexed `Global
      (Engine.pointset_of_spec spec)
  in
  let shape p = Json.to_string ~pretty:false (Wa_io.Export.plan_to_json p) in
  Alcotest.(check string) "cached = computed" (shape p1) (shape p2);
  Alcotest.(check string) "cached = fresh pipeline plan" (shape p2)
    (shape fresh)

(* Cache unit behavior --------------------------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~max_entries:2 ~metrics_prefix:"test.cache_lru" () in
  Cache.store c "a" ~bytes:10 1;
  Cache.store c "b" ~bytes:10 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Cache.find c "a");
  (* [b] is now least recently used; the third insert evicts it. *)
  Cache.store c "c" ~bytes:10 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "two entries" 2 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.stats c).Cache.entries

let test_cache_byte_bound () =
  let c =
    Cache.create ~max_entries:100 ~max_bytes:25
      ~metrics_prefix:"test.cache_bytes" ()
  in
  Cache.store c "a" ~bytes:10 1;
  Cache.store c "b" ~bytes:10 2;
  Cache.store c "c" ~bytes:10 3;
  let s = Cache.stats c in
  Alcotest.(check bool) "byte bound holds" true (s.Cache.total_bytes <= 25)

let test_cache_find_or_compute () =
  let c = Cache.create ~metrics_prefix:"test.cache_foc" () in
  let runs = ref 0 in
  let compute () =
    incr runs;
    99
  in
  (match Cache.find_or_compute c "k" ~bytes_of:(fun _ -> 8) compute with
  | `Computed v -> Alcotest.(check int) "computed value" 99 v
  | _ -> Alcotest.fail "first call must compute");
  (match Cache.find_or_compute c "k" ~bytes_of:(fun _ -> 8) compute with
  | `Hit v -> Alcotest.(check int) "hit value" 99 v
  | _ -> Alcotest.fail "second call must hit");
  Alcotest.(check int) "compute ran once" 1 !runs;
  (* A failing compute leaves no entry behind. *)
  (try
     ignore
       (Cache.find_or_compute c "boom" ~bytes_of:(fun _ -> 8) (fun () ->
            failwith "no"))
   with Failure _ -> ());
  Alcotest.(check (option int)) "failed compute not stored" None
    (Cache.find c "boom")

(* Worker pool ----------------------------------------------------------- *)

let test_pool_runs_jobs () =
  let pool = Pool.create ~workers:1 ~queue_capacity:16 () in
  let mu = Mutex.create () in
  let hits = ref 0 in
  let bump () =
    Mutex.lock mu;
    incr hits;
    Mutex.unlock mu
  in
  for _ = 1 to 10 do
    match Pool.submit pool bump with
    | `Queued -> ()
    | `Rejected | `Stopping -> Alcotest.fail "submit refused below capacity"
  done;
  Pool.drain pool;
  Alcotest.(check int) "all jobs ran" 10 !hits;
  Pool.shutdown pool;
  Alcotest.(check bool)
    "submit after shutdown is stopping" true
    (match Pool.submit pool (fun () -> ()) with
    | `Stopping -> true
    | `Queued | `Rejected -> false)

let test_pool_backpressure () =
  let pool = Pool.create ~workers:1 ~queue_capacity:2 () in
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let blocker () =
    Mutex.lock gate;
    while not !release do
      Condition.wait cond gate
    done;
    Mutex.unlock gate
  in
  (* First job occupies the worker; the queue then fills to capacity
     and the next submit must be rejected, not block or queue. *)
  Alcotest.(check bool)
    "blocker queued" true
    (Pool.submit pool blocker = `Queued);
  (* Wait for the worker to pick the blocker up so queue slots free. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Pool.queue_depth pool > 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "fill 1" true (Pool.submit pool (fun () -> ()) = `Queued);
  Alcotest.(check bool) "fill 2" true (Pool.submit pool (fun () -> ()) = `Queued);
  Alcotest.(check bool)
    "over capacity is rejected" true
    (Pool.submit pool (fun () -> ()) = `Rejected);
  Alcotest.(check bool) "in flight counts" true (Pool.in_flight pool >= 3);
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  Pool.drain pool;
  Alcotest.(check int) "drained" 0 (Pool.in_flight pool);
  Pool.shutdown pool

(* One worker per CPU.  The main domain holds one slot of the domain
   budget, so at least the last worker is a systhread of this domain
   (on one CPU, all of them are).  The pool must behave as with domain
   workers: every worker takes jobs, backpressure and drain hold,
   shutdown runs what is queued before it returns, and the jobs never
   see more domains than there are CPUs. *)
let test_pool_thread_workers () =
  let cpus = Wa_util.Parallel.available_domains () in
  let capacity = 4 in
  let pool = Pool.create ~workers:cpus ~queue_capacity:capacity () in
  Alcotest.(check int) "worker count" cpus (Pool.workers pool);
  let mu = Mutex.create () and cond = Condition.create () in
  let release = ref false and started = ref 0 and ran = ref 0 in
  let domains = ref [] in
  let record () = domains := (Domain.self () :> int) :: !domains in
  let blocker () =
    Mutex.protect mu (fun () ->
        record ();
        incr started;
        while not !release do
          Condition.wait cond mu
        done;
        incr ran)
  in
  let job () =
    Mutex.protect mu (fun () ->
        record ();
        incr ran)
  in
  let queued j = Pool.submit pool j = `Queued in
  (* One blocker per worker: they all start only if every worker,
     thread or domain, takes a job. *)
  for i = 1 to cpus do
    Alcotest.(check bool) (Printf.sprintf "blocker %d queued" i) true (queued blocker)
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Mutex.protect mu (fun () -> !started < cpus) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.001
  done;
  Alcotest.(check int) "every worker took a blocker" cpus
    (Mutex.protect mu (fun () -> !started));
  for i = 1 to capacity do
    Alcotest.(check bool) (Printf.sprintf "fill %d" i) true (queued job)
  done;
  Alcotest.(check bool) "over capacity is rejected" true
    (Pool.submit pool job = `Rejected);
  Alcotest.(check int) "in flight counts" (cpus + capacity) (Pool.in_flight pool);
  Mutex.protect mu (fun () ->
      release := true;
      Condition.broadcast cond);
  Pool.drain pool;
  Alcotest.(check int) "drained" 0 (Pool.in_flight pool);
  Alcotest.(check int) "drain waited for every job" (cpus + capacity)
    (Mutex.protect mu (fun () -> !ran));
  for i = 1 to capacity do
    Alcotest.(check bool) (Printf.sprintf "late job %d queued" i) true (queued job)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "shutdown ran the queue, then joined" (cpus + (2 * capacity))
    (Mutex.protect mu (fun () -> !ran));
  Alcotest.(check int) "no worker left" 0 (Pool.workers pool);
  Alcotest.(check bool) "submit after shutdown is stopping" true
    (Pool.submit pool job = `Stopping);
  let distinct = List.length (List.sort_uniq Int.compare !domains) in
  Alcotest.(check bool)
    (Printf.sprintf "jobs saw %d domain(s), at most %d" distinct cpus)
    true (distinct <= cpus)

(* Live server ------------------------------------------------------------ *)

(* In-process servers on ephemeral loopback ports, driven over real TCP
   sockets.  The cases of a "server" group share one server and run in
   order; the last one shuts it down.  The queue capacity of 128 is
   what the bursts below are sized against: 68 (or 100) requests in
   flight must all be accepted.  [live] has the default pool; [live_threads] has
   one worker per CPU, so at least one worker is a systhread. *)
module Server = Wa_service.Server
module Client = Wa_service.Client

(* The server is created on the domain that runs it, as [serve] does:
   worker threads then share that domain with the event loop, not with
   the client threads of this test. *)
let start_live workers =
  lazy
    (let mu = Mutex.create () and made = Condition.create () in
     let cell = ref None in
     let publish v =
       Mutex.protect mu (fun () ->
           cell := Some v;
           Condition.signal made)
     in
     let dom =
       Domain.spawn (fun () ->
           match
             Server.create
               { Server.default_config with port = 0; queue_capacity = 128; workers }
           with
           | srv ->
               publish (Ok srv);
               Server.run srv
           | exception e -> publish (Error e))
     in
     let made =
       Mutex.protect mu (fun () ->
           while Option.is_none !cell do
             Condition.wait made mu
           done;
           Option.get !cell)
     in
     match made with Ok srv -> (srv, dom) | Error e -> raise e)

let live = start_live None
let live_threads = start_live (Some (Wa_util.Parallel.available_domains ()))
let live_port ?(on = live) () = Server.port (fst (Lazy.force on))

let connect ?on () =
  match Client.connect ~port:(live_port ?on ()) () with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let call ?trace c body =
  match Client.call ?trace c body with
  | Ok r -> r
  | Error m -> Alcotest.failf "call: %s" m

let send c body =
  match Client.send c (Client.request c body) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "send: %s" m

let recv c =
  match Client.recv c with Ok r -> r | Error m -> Alcotest.failf "recv: %s" m

let live_spec ?(no_cache = false) n seed = { (spec_gen n seed) with P.no_cache }

let is_ok (r : P.response) = match r.P.body with P.Error _ -> false | _ -> true

let error_code (r : P.response) =
  match r.P.body with
  | P.Error { code; _ } -> P.error_code_to_string code
  | _ -> "ok"

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.0

(* One raw line over the socket: the greeting and the one reply line. *)
let raw_roundtrip line =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, live_port ()));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let greeting = input_line ic in
  output_string oc (line ^ "\n");
  flush oc;
  match P.response_of_line (input_line ic) with
  | Ok r -> (greeting, r)
  | Error m -> Alcotest.failf "undecodable reply to %s: %s" line m

let test_live_ping () =
  let greeting, r = raw_roundtrip {|{"v":1,"id":3,"op":"ping"}|} in
  Alcotest.(check bool) "greeting verifies" true
    (Result.is_ok (P.check_greeting greeting));
  Alcotest.(check bool) "pong" true (r.P.rid = 3 && r.P.body = P.Pong)

(* A hit must not pay for scheduling: every repeat is served from the
   cache, and its median is at least twice as fast as a cold plan. *)
let test_live_cached () =
  let c = connect () in
  let t0 = Unix.gettimeofday () in
  let cold = call c (P.Plan (live_spec ~no_cache:true 300 11)) in
  let cold_ms = ms_since t0 in
  Alcotest.(check bool) "cold plan ok" true (is_ok cold);
  let spec = live_spec 300 11 in
  Alcotest.(check bool) "store plan ok" true (is_ok (call c (P.Plan spec)));
  let lats =
    Array.init 30 (fun i ->
        let t0 = Unix.gettimeofday () in
        let r = call c (P.Plan spec) in
        let ms = ms_since t0 in
        match r.P.body with
        | P.Plan_r { P.cached = true; _ } -> ms
        | _ ->
            Alcotest.failf "repeat %d not served from cache: %s" i
              (P.response_to_line r))
  in
  Client.close c;
  Array.sort Float.compare lats;
  let cached_ms = lats.(Array.length lats / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "cached p50 %.3f ms at least 2x faster than cold %.1f ms"
       cached_ms cold_ms)
    true
    (cold_ms >= 2.0 *. cached_ms)

(* Windowed pipelining on two connections; responses are counted, not
   matched, since the protocol allows out-of-order completion. *)
let test_live_pipelined () =
  let specs = Array.init 4 (fun i -> live_spec 120 (20 + i)) in
  let warm = connect () in
  Array.iter (fun s -> ignore (call warm (P.Plan s))) specs;
  Client.close warm;
  let window = 8 and per_conn = 50 in
  let answered = ref 0 and bad = ref [] in
  for ci = 0 to 1 do
    let c = connect () in
    let outstanding = ref 0 in
    let recv_one () =
      let r = recv c in
      decr outstanding;
      incr answered;
      if not (is_ok r) then bad := error_code r :: !bad
    in
    for i = 1 to per_conn do
      send c (P.Plan specs.((ci + i) mod Array.length specs));
      incr outstanding;
      if !outstanding >= window then recv_one ()
    done;
    while !outstanding > 0 do
      recv_one ()
    done;
    Client.close c
  done;
  Alcotest.(check int) "every request answered" (2 * per_conn) !answered;
  Alcotest.(check (list string)) "no failed responses" [] !bad

(* Send [total] uncacheable plans round-robin over [conns] before
   reading any reply, run [meanwhile], then collect every reply.
   Returns (answered, overloaded, other failures). *)
let burst ~conns ~total ~seed0 ~meanwhile =
  let n_conns = Array.length conns in
  for i = 0 to total - 1 do
    send conns.(i mod n_conns) (P.Plan (live_spec ~no_cache:true 120 (seed0 + i)))
  done;
  meanwhile ();
  let answered = ref 0 and overloaded = ref 0 and bad = ref 0 in
  Array.iteri
    (fun ci c ->
      let mine = (total / n_conns) + if ci < total mod n_conns then 1 else 0 in
      for _ = 1 to mine do
        let r = recv c in
        incr answered;
        match r.P.body with
        | P.Error { code = P.Overloaded; _ } -> incr overloaded
        | P.Error _ -> incr bad
        | _ -> ()
      done;
      Client.close c)
    conns;
  (!answered, !overloaded, !bad)

(* The event loop ingests far faster than the pool retires cold plans,
   so queued + executing peaks at 64 or more; with a queue of 128 none
   may be refused and every one must be answered.  A worker thread
   takes the loop's domain at each of its reads, so the loop ingests
   at about the pool's pace and retires several plans on the way: the
   server with thread workers gets a 100-request burst. *)
let test_live_burst ~total on () =
  let conns = Array.init 4 (fun _ -> connect ~on ()) in
  let answered, overloaded, bad =
    burst ~conns ~total ~seed0:1000 ~meanwhile:ignore
  in
  Alcotest.(check int) "zero dropped" total answered;
  Alcotest.(check int) "zero overloaded" 0 overloaded;
  Alcotest.(check int) "zero failed" 0 bad;
  let c = connect ~on () in
  let peak =
    match (call c P.Stats).P.body with
    | P.Stats_r s -> s.P.st_inflight_peak
    | _ -> Alcotest.fail "stats refused"
  in
  Client.close c;
  Alcotest.(check bool)
    (Printf.sprintf "in-flight peak %d >= 64" peak)
    true (peak >= 64)

let test_live_traced on () =
  let c = connect ~on () in
  for i = 0 to 2 do
    let cold seed = P.Plan (live_spec ~no_cache:true 300 seed) in
    let untraced = call c (cold (3000 + (2 * i))) in
    let traced = call ~trace:true c (cold (3001 + (2 * i))) in
    Alcotest.(check bool) "both ok" true (is_ok untraced && is_ok traced);
    Alcotest.(check bool) "untraced response has no trace" true
      (untraced.P.rtrace = None);
    Alcotest.(check bool) "traced response carries the service.plan span" true
      (match traced.P.rtrace with
      | Some spans -> List.exists (fun s -> s.P.t_name = "service.plan") spans
      | None -> false)
  done;
  Client.close c

(* Scrapes are answered inline on the event loop, never queued behind
   compute, so every one succeeds while a deep burst saturates the
   workers, and the burst itself still loses nothing. *)
let test_live_scrapes () =
  let conns = Array.init 4 (fun _ -> connect ()) in
  let scraped = ref 0 in
  let scrape () =
    let mon = connect () in
    for _ = 1 to 10 do
      match Client.call mon P.Telemetry with
      | Ok { P.body = P.Telemetry_r _; _ } -> incr scraped
      | Ok _ | Error _ -> ()
    done;
    Client.close mon
  in
  let answered, overloaded, bad =
    burst ~conns ~total:68 ~seed0:5000 ~meanwhile:scrape
  in
  Alcotest.(check int) "every scrape answered" 10 !scraped;
  Alcotest.(check int) "zero dropped" 68 answered;
  Alcotest.(check int) "zero overloaded" 0 overloaded;
  Alcotest.(check int) "zero failed" 0 bad

let test_live_errors () =
  let check_code name line ~id code =
    let _, r = raw_roundtrip line in
    Alcotest.(check int) (name ^ " id") id r.P.rid;
    Alcotest.(check string) name (P.error_code_to_string code) (error_code r)
  in
  check_code "malformed line" "this is not json" ~id:0 P.Bad_request;
  check_code "future version" {|{"v":99,"id":5,"op":"ping"}|} ~id:5 P.Bad_version;
  (* The O(n^2) reference engine is a test oracle, not a service. *)
  check_code "dense engine"
    {|{"v":1,"id":6,"op":"plan","deploy":{"kind":"uniform","n":50,"seed":1,"side":1000},"power":"global","engine":"dense"}|}
    ~id:6 P.Bad_request;
  let c = connect () in
  Alcotest.(check string) "unknown session"
    (P.error_code_to_string P.No_such_session)
    (error_code (call c (P.Churn_remove { session = 424242; node = 0 })));
  Client.close c

let test_live_churn () =
  let c = connect () in
  let sid =
    match
      (call c
         (P.Churn_create
            {
              sink = Vec2.make 500.0 500.0;
              power = `Global;
              alpha = 3.0;
              beta = 1.0;
              gamma = None;
            }))
        .P.body
    with
    | P.Churn_created sid -> sid
    | _ -> Alcotest.fail "churn_create refused"
  in
  let rng = Wa_util.Rng.create 7 in
  let adds = 3 in
  let nodes =
    List.init adds (fun _ ->
        let point =
          Vec2.make (Wa_util.Rng.float rng 1000.0) (Wa_util.Rng.float rng 1000.0)
        in
        match (call c (P.Churn_add { session = sid; point })).P.body with
        | P.Churn_r { node = Some n; _ } -> n
        | _ -> Alcotest.fail "arrival not scheduled")
  in
  (match (call c (P.Churn_info { session = sid })).P.body with
  | P.Session_r { size; info_valid; _ } ->
      Alcotest.(check int) "size = sink + arrivals" (adds + 1) size;
      Alcotest.(check bool) "schedule verified" true info_valid
  | _ -> Alcotest.fail "churn_info refused");
  let departure = P.Churn_remove { session = sid; node = List.hd nodes } in
  (match (call c departure).P.body with
  | P.Churn_r _ -> ()
  | _ -> Alcotest.fail "departure not repaired");
  (match (call c (P.Churn_close { session = sid })).P.body with
  | P.Churn_closed _ -> ()
  | _ -> Alcotest.fail "session not closed");
  Client.close c

(* Accepted work is never dropped: cold plans queued ahead of the
   shutdown on the same connection are all answered before the
   acknowledgement, and then the server domain joins. *)
let test_live_shutdown on () =
  let srv, dom = Lazy.force on in
  let c = connect ~on () in
  let pending = 8 in
  for i = 1 to pending do
    send c (P.Plan (live_spec ~no_cache:true 300 (7000 + i)))
  done;
  send c P.Shutdown;
  let plans = ref 0 and acked = ref false in
  for _ = 0 to pending do
    let r = recv c in
    match r.P.body with
    | P.Plan_r _ -> incr plans
    | P.Shutdown_ok -> acked := true
    | _ -> Alcotest.failf "unexpected reply: %s" (P.response_to_line r)
  done;
  Client.close c;
  Alcotest.(check int) "queued plans answered" pending !plans;
  Alcotest.(check bool) "shutdown acknowledged" true !acked;
  Domain.join dom;
  print_endline (Server.summary srv)

(* Runner ----------------------------------------------------------------- *)

let () =
  Alcotest.run "wa_service"
    [
      ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_request_roundtrip;
            prop_response_roundtrip;
            prop_request_splice;
            prop_response_splice;
          ]
        @ [
            Alcotest.test_case "golden corpus byte-identical" `Quick
              test_golden_corpus;
            Alcotest.test_case "malformed requests rejected" `Quick
              test_malformed_requests;
            Alcotest.test_case "malformed responses rejected" `Quick
              test_malformed_responses;
            Alcotest.test_case "id recovery" `Quick test_id_recovery;
          ] );
      ( "cache",
        [
          Alcotest.test_case "content key" `Quick test_content_key;
          Alcotest.test_case "cached plan = fresh plan" `Quick
            test_cached_plan_equals_fresh;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "byte bound" `Quick test_cache_byte_bound;
          Alcotest.test_case "find_or_compute" `Quick
            test_cache_find_or_compute;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs jobs" `Quick test_pool_runs_jobs;
          Alcotest.test_case "backpressure" `Quick test_pool_backpressure;
          Alcotest.test_case "thread workers beyond the domain budget" `Quick
            test_pool_thread_workers;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and greeting" `Quick test_live_ping;
          Alcotest.test_case "cached beats cold" `Quick test_live_cached;
          Alcotest.test_case "pipelined 2x50" `Quick test_live_pipelined;
          Alcotest.test_case "68-request burst" `Quick
            (test_live_burst ~total:68 live);
          Alcotest.test_case "traced responses" `Quick (test_live_traced live);
          Alcotest.test_case "scrapes under a burst" `Quick test_live_scrapes;
          Alcotest.test_case "error envelopes" `Quick test_live_errors;
          Alcotest.test_case "churn lifecycle" `Quick test_live_churn;
          Alcotest.test_case "graceful shutdown" `Quick (test_live_shutdown live);
        ] );
      (* At most as long as "protocol": Alcotest pads every group name to
         the longest, and a wider column cuts the long protocol names. *)
      ( "threads",
        [
          Alcotest.test_case "100-request burst" `Quick
            (test_live_burst ~total:100 live_threads);
          Alcotest.test_case "traced responses" `Quick
            (test_live_traced live_threads);
          Alcotest.test_case "graceful shutdown" `Quick
            (test_live_shutdown live_threads);
        ] );
    ]
