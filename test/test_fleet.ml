(* Properties of the fleet tier's pure pieces: the consistent-hash
   ring (minimal arc movement, failover-order coherence, order
   independence, balance) and the fan-out merges (every integer field
   of a merged stats/telemetry view equals the per-backend sum).
   These are the invariants DESIGN.md §16 leans on: reroutes touch
   only the dead shard's arc, and a scrape through the router is
   indistinguishable from summing the members. *)

module Ring = Wa_fleet.Ring
module Merge = Wa_fleet.Merge
module O = Wa_fleet.Orchestrator
module R = Wa_fleet.Router
module Client = Wa_service.Client
module P = Wa_service.Protocol

(* Generators ----------------------------------------------------------- *)

let name_of i = Printf.sprintf "shard%d" i

let gen_members =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "members=%d seed=%d" n seed)
    QCheck.Gen.(
      map (fun (n, seed) -> (2 + (abs n mod 8), seed)) (pair int (int_bound 100000)))

let members_of n = List.init n name_of

let gen_keys seed k =
  List.init k (fun i -> Printf.sprintf "key-%d-%d" seed i)

(* Ring properties ------------------------------------------------------- *)

(* Removing a node moves only the keys it owned; every other key keeps
   its owner.  This is the whole point of consistent hashing: a dead
   shard's arc drains onto survivors without reshuffling the rest. *)
let prop_remove_moves_only_lost_arc =
  QCheck.Test.make ~count:60 ~name:"ring: remove moves only the removed arc"
    gen_members (fun (n, seed) ->
      let ring = Ring.create (members_of n) in
      let victim = name_of (seed mod n) in
      let ring' = Ring.remove ring victim in
      List.for_all
        (fun key ->
          match (Ring.lookup ring key, Ring.lookup ring' key) with
          | Some before, Some after ->
              if before = victim then after <> victim else after = before
          | _, _ -> false)
        (gen_keys seed 200))

(* Adding a node only claims keys for itself: nothing moves between
   the existing members. *)
let prop_add_claims_only_new_arc =
  QCheck.Test.make ~count:60 ~name:"ring: add claims only the new node's arc"
    gen_members (fun (n, seed) ->
      let ring = Ring.create (members_of n) in
      let ring' = Ring.add ring (name_of n) in
      List.for_all
        (fun key ->
          match (Ring.lookup ring key, Ring.lookup ring' key) with
          | Some before, Some after -> after = before || after = name_of n
          | _, _ -> false)
        (gen_keys (seed + 1) 200))

(* The failover order starts at the owner and covers every member
   exactly once — the router walks it when the head is down. *)
let prop_lookup_order_head_and_coverage =
  QCheck.Test.make ~count:60
    ~name:"ring: lookup_order head = lookup, covers all members once"
    gen_members (fun (n, seed) ->
      let ring = Ring.create (members_of n) in
      List.for_all
        (fun key ->
          let order = Ring.lookup_order ring key in
          Ring.lookup ring key = (match order with h :: _ -> Some h | [] -> None)
          && List.length order = n
          && List.sort compare order = List.sort compare (members_of n))
        (gen_keys (seed + 2) 50))

(* Membership, not insertion order, determines the ring: shuffled
   creation assigns every key identically. *)
let prop_order_independent =
  QCheck.Test.make ~count:60 ~name:"ring: creation order does not matter"
    gen_members (fun (n, seed) ->
      let members = members_of n in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.mapi (fun i m -> ((i * 7919) + seed mod 104729, m)) members))
      in
      let a = Ring.create members and b = Ring.create shuffled in
      List.for_all
        (fun key -> Ring.lookup a key = Ring.lookup b key)
        (gen_keys (seed + 3) 100))

(* With 64 vnodes per member no shard should own a wildly
   disproportionate share.  Loose bound: no member owns more than 4x
   its fair share of 2000 keys. *)
let prop_balance_sane =
  QCheck.Test.make ~count:20 ~name:"ring: no shard owns > 4x fair share"
    gen_members (fun (n, seed) ->
      let ring = Ring.create (members_of n) in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun key ->
          match Ring.lookup ring key with
          | Some owner ->
              Hashtbl.replace counts owner
                (1 + Option.value (Hashtbl.find_opt counts owner) ~default:0)
          | None -> ())
        (gen_keys (seed + 4) 2000);
      let fair = 2000.0 /. float_of_int n in
      Hashtbl.fold (fun _ c acc -> acc && float_of_int c <= 4.0 *. fair) counts
        true)

(* Merge properties ------------------------------------------------------ *)

let gen_summaries =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "backends=%d seed=%d" n seed)
    QCheck.Gen.(
      map (fun (n, seed) -> (1 + (abs n mod 6), seed)) (pair int (int_bound 100000)))

let mk_cache rng =
  {
    P.cs_entries = Random.State.int rng 1000;
    cs_bytes = Random.State.int rng 1_000_000;
    cs_hits = Random.State.int rng 10_000;
    cs_misses = Random.State.int rng 10_000;
    cs_coalesced = Random.State.int rng 100;
    cs_evictions = Random.State.int rng 100;
  }

let mk_stats rng =
  {
    P.st_requests = Random.State.int rng 100_000;
    st_responses = Random.State.int rng 100_000;
    st_overloaded = Random.State.int rng 1_000;
    st_deadline_misses = Random.State.int rng 1_000;
    st_inflight_peak = Random.State.int rng 64;
    st_draining = Random.State.bool rng;
    st_workers = 1 + Random.State.int rng 8;
    st_queue_depth = Random.State.int rng 256;
    st_queue_capacity = 256;
    st_in_flight = Random.State.int rng 64;
    st_cache = mk_cache rng;
    st_sessions = Random.State.int rng 32;
  }

let sum f parts = List.fold_left (fun acc p -> acc + f p) 0 parts

(* Every integer field of the merged stats equals the per-backend sum
   (the summed peak is the fleet peak's upper bound); draining ORs. *)
let prop_merge_stats_sums =
  QCheck.Test.make ~count:100 ~name:"merge: stats fields sum across backends"
    gen_summaries (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let parts = List.init n (fun _ -> mk_stats rng) in
      let m = Merge.merge_stats parts in
      m.P.st_requests = sum (fun s -> s.P.st_requests) parts
      && m.P.st_responses = sum (fun s -> s.P.st_responses) parts
      && m.P.st_overloaded = sum (fun s -> s.P.st_overloaded) parts
      && m.P.st_deadline_misses = sum (fun s -> s.P.st_deadline_misses) parts
      && m.P.st_workers = sum (fun s -> s.P.st_workers) parts
      && m.P.st_queue_depth = sum (fun s -> s.P.st_queue_depth) parts
      && m.P.st_in_flight = sum (fun s -> s.P.st_in_flight) parts
      && m.P.st_sessions = sum (fun s -> s.P.st_sessions) parts
      && m.P.st_inflight_peak = sum (fun s -> s.P.st_inflight_peak) parts
      && m.P.st_queue_capacity = sum (fun s -> s.P.st_queue_capacity) parts
      && m.P.st_draining = List.exists (fun s -> s.P.st_draining) parts
      && m.P.st_cache.P.cs_hits = sum (fun s -> s.P.st_cache.P.cs_hits) parts
      && m.P.st_cache.P.cs_misses = sum (fun s -> s.P.st_cache.P.cs_misses) parts
      && m.P.st_cache.P.cs_entries = sum (fun s -> s.P.st_cache.P.cs_entries) parts
      && m.P.st_cache.P.cs_bytes = sum (fun s -> s.P.st_cache.P.cs_bytes) parts
      && m.P.st_cache.P.cs_coalesced
         = sum (fun s -> s.P.st_cache.P.cs_coalesced) parts
      && m.P.st_cache.P.cs_evictions
         = sum (fun s -> s.P.st_cache.P.cs_evictions) parts)

let mk_op rng op =
  {
    P.ol_op = op;
    ol_count = Random.State.int rng 10_000;
    ol_p50_ms = Random.State.float rng 10.0;
    ol_p90_ms = Random.State.float rng 20.0;
    ol_p99_ms = Random.State.float rng 50.0;
    ol_max_ms = Random.State.float rng 100.0;
  }

let mk_telemetry rng =
  {
    P.tel_uptime_s = Random.State.float rng 1000.0;
    tel_window_s = Random.State.float rng 60.0;
    tel_windows = 1 + Random.State.int rng 8;
    tel_in_flight = Random.State.int rng 64;
    tel_queue_depth = Random.State.int rng 256;
    tel_ops =
      List.filter_map
        (fun op ->
          if Random.State.bool rng then Some (mk_op rng op) else None)
        [ "plan"; "describe"; "simulate" ];
    tel_cache = mk_cache rng;
    tel_sessions = Random.State.int rng 32;
    tel_exemplars = [];
    tel_gc =
      {
        P.gc_heap_words = Random.State.int rng 1_000_000;
        gc_minor_collections = Random.State.int rng 1_000;
        gc_major_collections = Random.State.int rng 100;
        gc_compactions = Random.State.int rng 10;
      };
    tel_fleet = None;
  }

(* Telemetry merge: gauges and op counts sum; uptime is the max; the
   merged window covers only what every member covers (min). *)
let prop_merge_telemetry_sums =
  QCheck.Test.make ~count:100
    ~name:"merge: telemetry fields sum across backends" gen_summaries
    (fun (n, seed) ->
      let rng = Random.State.make [| seed + 17 |] in
      let parts = List.init n (fun _ -> mk_telemetry rng) in
      let m = Merge.merge_telemetry parts in
      let op_count name t =
        match List.find_opt (fun o -> o.P.ol_op = name) t.P.tel_ops with
        | Some o -> o.P.ol_count
        | None -> 0
      in
      m.P.tel_in_flight = sum (fun t -> t.P.tel_in_flight) parts
      && m.P.tel_queue_depth = sum (fun t -> t.P.tel_queue_depth) parts
      && m.P.tel_sessions = sum (fun t -> t.P.tel_sessions) parts
      && m.P.tel_cache.P.cs_hits = sum (fun t -> t.P.tel_cache.P.cs_hits) parts
      && m.P.tel_gc.P.gc_heap_words
         = sum (fun t -> t.P.tel_gc.P.gc_heap_words) parts
      && m.P.tel_uptime_s
         = List.fold_left (fun acc t -> Float.max acc t.P.tel_uptime_s) 0.0 parts
      && List.for_all
           (fun name ->
             op_count name m = sum (op_count name) parts)
           [ "plan"; "describe"; "simulate" ])

(* Chaos drain ------------------------------------------------------------- *)

(* Three real [wa serve] backends, started by the orchestrator with the
   argv that [wa fleet] builds, behind an in-process router.  One
   backend is SIGKILLed in the middle of a pipelined burst of cached
   plans: the router must re-route everything the dead shard held, so
   every request is answered and none fails. *)

(* The CLI sits next to this test in the build tree (bin/ beside test/). *)
let wa_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/wireless_agg.exe"

let make_argv ~name ~port ~peers =
  Array.of_list
    ([
       wa_exe; "serve"; "--host"; "127.0.0.1"; "--port"; string_of_int port;
       "--name"; name; "--queue-capacity"; "128"; "--cache-entries"; "128";
       "--cache-mb"; "256"; "--max-sessions"; "64";
     ]
    @ List.concat_map
        (fun (h, p) -> [ "--peer"; Printf.sprintf "%s:%d" h p ])
        peers)

let connect port =
  match Client.connect ~port () with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let call c body =
  match Client.call c body with
  | Ok r -> r
  | Error m -> Alcotest.failf "call: %s" m

let fleet_summary port =
  let c = connect port in
  let r = call c P.Telemetry in
  Client.close c;
  match r.P.body with
  | P.Telemetry_r { P.tel_fleet = Some fl; _ } -> fl
  | _ ->
      Alcotest.failf "telemetry without a fleet summary: %s"
        (P.response_to_line r)

let healthy fl =
  List.length (List.filter (fun b -> b.P.be_healthy) fl.P.fl_backends)

(* Health is earned by the first probe reply: wait until the router
   sees every shard up before opening traffic. *)
let wait_healthy port ~count =
  let deadline = Unix.gettimeofday () +. 15.0 in
  while healthy (fleet_summary port) < count do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "router never saw every backend healthy";
    Unix.sleepf 0.02
  done

let spec seed =
  {
    P.deploy = P.Generate { kind = "uniform"; n = 60; seed; side = 1000.0 };
    power = `Global;
    alpha = 3.0;
    beta = 1.0;
    gamma = None;
    engine = `Indexed;
    no_cache = false;
  }

(* Windowed pipelining over [conns]; [on_sent i] runs after the i-th
   send.  Returns (answered, failed). *)
let blast conns ~total ~window ~specs ~on_sent =
  let n = Array.length conns in
  let outstanding = Array.make n 0 in
  let ok = ref 0 and bad = ref 0 in
  let recv_one ci =
    match Client.recv conns.(ci) with
    | Ok r ->
        outstanding.(ci) <- outstanding.(ci) - 1;
        (match r.P.body with P.Error _ -> incr bad | _ -> incr ok)
    | Error m -> Alcotest.failf "recv: %s" m
  in
  for i = 0 to total - 1 do
    let ci = i mod n in
    let c = conns.(ci) in
    let spec = specs.(i mod Array.length specs) in
    (match Client.send c (Client.request c (P.Plan spec)) with
    | Ok () -> outstanding.(ci) <- outstanding.(ci) + 1
    | Error m -> Alcotest.failf "send: %s" m);
    on_sent i;
    if outstanding.(ci) >= window then
      while outstanding.(ci) > window / 2 do
        recv_one ci
      done
  done;
  Array.iteri
    (fun ci _ ->
      while outstanding.(ci) > 0 do
        recv_one ci
      done)
    conns;
  (!ok + !bad, !bad)

(* A request the router loses would block its reader forever, so a
   watchdog fails the whole run instead, after stopping the backends. *)
let with_watchdog ~seconds orch f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then begin
          Printf.eprintf "chaos drain: still waiting after %.0f s\n%!" seconds;
          O.stop_all orch;
          exit 1
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog;
      O.stop_all orch)
    f

let test_chaos_drain () =
  let orch =
    O.create { (O.default_config ~make_argv) with base_port = 7611; count = 3 }
  in
  with_watchdog ~seconds:60.0 orch @@ fun () ->
  Alcotest.(check bool) "every backend ready" true (O.wait_ready orch);
  let router =
    R.create { (R.default_config ~backends:(O.backend_addrs orch)) with port = 0 }
  in
  let router_dom = Domain.spawn (fun () -> R.run router) in
  let port = R.port router in
  wait_healthy port ~count:3;
  (* Warming fills each home shard and gossips the digests to its ring
     successors, so re-routed requests can find warm replicas. *)
  let specs = Array.init 12 (fun i -> spec (100 + i)) in
  let warm = connect port in
  Array.iter (fun s -> ignore (call warm (P.Plan s))) specs;
  Client.close warm;
  let total = 240 in
  let conns = Array.init 2 (fun _ -> connect port) in
  let on_sent i =
    if i = total / 2 && not (O.kill_member orch "shard1") then
      Alcotest.fail "kill_member failed"
  in
  let answered, failed = blast conns ~total ~window:16 ~specs ~on_sent in
  Array.iter Client.close conns;
  let fl = fleet_summary port in
  Alcotest.(check int) "every request answered" total answered;
  Alcotest.(check int) "zero failed" 0 failed;
  Alcotest.(check int) "killed shard marked down" 2 (healthy fl);
  Alcotest.(check bool)
    (Printf.sprintf "survivors absorbed the moved arc (rerouted %d)"
       fl.P.fl_rerouted)
    true (fl.P.fl_rerouted > 0);
  let c = connect port in
  Alcotest.(check bool) "router shutdown acknowledged" true
    ((call c P.Shutdown).P.body = P.Shutdown_ok);
  Client.close c;
  Domain.join router_dom

let () =
  Alcotest.run "wa_fleet"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_remove_moves_only_lost_arc;
            prop_add_claims_only_new_arc;
            prop_lookup_order_head_and_coverage;
            prop_order_independent;
            prop_balance_sane;
            prop_merge_stats_sums;
            prop_merge_telemetry_sums;
          ] );
      ("chaos", [ Alcotest.test_case "chaos drain" `Quick test_chaos_drain ]);
    ]
