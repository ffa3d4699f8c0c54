(* Tests for the message-level radio substrate and the Sec-3.3
   protocol implementation on top of it. *)

module Params = Wa_sinr.Params
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2
module Rng = Wa_util.Rng
module Radio = Wa_distributed.Radio
module Protocol = Wa_distributed.Protocol
module Agg_tree = Wa_core.Agg_tree
module Schedule = Wa_core.Schedule
module Greedy_schedule = Wa_core.Greedy_schedule

let p = Params.default
let v = Vec2.make

(* ------------------------------------------------------------------ Radio *)

let three_nodes () =
  Radio.create (Pointset.of_list [ v 0.0 0.0; v 10.0 0.0; v 1000.0 0.0 ])

let test_radio_lone_transmitter_heard () =
  let radio = three_nodes () in
  let rs =
    Radio.round radio (fun node ->
        if node = 0 then Radio.Transmit { power = 1.0; payload = "hello" }
        else Radio.Listen)
  in
  (match rs.(1) with
  | Radio.Received { from; payload } ->
      Alcotest.(check int) "from 0" 0 from;
      Alcotest.(check string) "payload" "hello" payload
  | _ -> Alcotest.fail "node 1 should decode");
  (* Interference-limited regime: even the far node decodes a lone
     transmitter. *)
  (match rs.(2) with
  | Radio.Received _ -> ()
  | _ -> Alcotest.fail "node 2 should decode a lone transmitter");
  (* Half duplex: the transmitter hears nothing. *)
  match rs.(0) with
  | Radio.Silence -> ()
  | _ -> Alcotest.fail "transmitter observes silence"

let test_radio_collision () =
  (* Two equal-power transmitters equidistant from the listener: no
     decode, but the medium is audibly busy. *)
  let radio =
    Radio.create (Pointset.of_list [ v (-10.0) 0.0; v 10.0 0.0; v 0.0 5.0 ])
  in
  let rs =
    Radio.round radio (fun node ->
        if node = 2 then Radio.Listen
        else Radio.Transmit { power = 1.0; payload = node })
  in
  match rs.(2) with
  | Radio.Collision -> ()
  | Radio.Received _ -> Alcotest.fail "symmetric transmitters cannot be decoded"
  | Radio.Silence -> Alcotest.fail "medium is busy"

let test_radio_capture () =
  (* A much closer transmitter captures the channel despite a far
     concurrent one. *)
  let radio =
    Radio.create (Pointset.of_list [ v 1.0 0.0; v 500.0 0.0; v 0.0 0.0 ])
  in
  let rs =
    Radio.round radio (fun node ->
        if node = 2 then Radio.Listen
        else Radio.Transmit { power = 1.0; payload = node })
  in
  match rs.(2) with
  | Radio.Received { from; _ } -> Alcotest.(check int) "near wins" 0 from
  | _ -> Alcotest.fail "capture expected"

let test_radio_noise_limits_range () =
  let noisy = Params.make ~noise:1e-3 () in
  let radio =
    Radio.create ~params:noisy (Pointset.of_list [ v 0.0 0.0; v 1000.0 0.0 ])
  in
  let rs =
    Radio.round radio (fun node ->
        if node = 0 then Radio.Transmit { power = 1.0; payload = () }
        else Radio.Listen)
  in
  (* 1/1000^3 = 1e-9 received power, below the 1e-3 noise floor. *)
  match rs.(1) with
  | Radio.Silence -> ()
  | _ -> Alcotest.fail "out-of-range transmitter should be silent"

let test_radio_rounds_counted () =
  let radio = three_nodes () in
  Alcotest.(check int) "zero" 0 (Radio.rounds_used radio);
  ignore (Radio.round radio (fun _ -> Radio.Listen));
  ignore (Radio.round radio (fun _ -> Radio.Listen));
  Alcotest.(check int) "two" 2 (Radio.rounds_used radio)

let test_radio_rejects_bad_power () =
  let radio = three_nodes () in
  Alcotest.check_raises "zero power"
    (Invalid_argument "Radio.round: non-positive transmission power") (fun () ->
      ignore
        (Radio.round radio (fun node ->
             if node = 0 then Radio.Transmit { power = 0.0; payload = () }
             else Radio.Listen)))

(* --------------------------------------------------------------- Protocol *)

let random_agg seed n =
  Agg_tree.mst
    (Wa_instances.Random_deploy.uniform_square (Rng.create seed) ~n ~side:1000.0)

let test_protocol_produces_valid_schedule () =
  List.iter
    (fun seed ->
      let agg = random_agg seed 60 in
      let r = Protocol.run ~seed p agg Greedy_schedule.Global_power in
      Alcotest.(check bool) "valid" true r.Protocol.schedule_valid;
      Alcotest.(check bool) "covers" true
        (Schedule.covers r.Protocol.schedule agg.Agg_tree.links);
      Alcotest.(check int) "all resolved over the radio" 0 r.Protocol.unresolved;
      Alcotest.(check bool)
        (Printf.sprintf "properness %.3f high" r.Protocol.properness)
        true
        (r.Protocol.properness >= 0.95))
    [ 1; 2; 3 ]

let test_protocol_deterministic () =
  let agg = random_agg 7 40 in
  let a = Protocol.run ~seed:11 p agg Greedy_schedule.Global_power in
  let b = Protocol.run ~seed:11 p agg Greedy_schedule.Global_power in
  Alcotest.(check int) "same rounds" a.Protocol.rounds b.Protocol.rounds;
  Alcotest.(check int) "same colors" a.Protocol.colors b.Protocol.colors

let test_protocol_oblivious_mode () =
  let agg = random_agg 13 50 in
  let r = Protocol.run p agg (Greedy_schedule.Oblivious_power 0.5) in
  Alcotest.(check bool) "valid" true r.Protocol.schedule_valid;
  Alcotest.(check bool) "rounds positive" true (r.Protocol.rounds > 0)

let test_protocol_rejects_fixed () =
  let agg = random_agg 17 10 in
  Alcotest.check_raises "fixed scheme"
    (Invalid_argument "Protocol.run: protocol requires a geometric conflict graph")
    (fun () ->
      ignore
        (Protocol.run p agg (Greedy_schedule.Fixed_scheme Wa_sinr.Power.Uniform)))

let test_protocol_colors_near_constant () =
  (* The point of the paper: message-level colors stay nearly flat as n
     quadruples. *)
  let colors n = (Protocol.run p (random_agg 23 n) Greedy_schedule.Global_power).Protocol.colors in
  let c60 = colors 60 and c240 = colors 240 in
  Alcotest.(check bool)
    (Printf.sprintf "colors %d -> %d stay near-constant" c60 c240)
    true
    (c240 <= c60 + 8)

let test_protocol_phase_cap_fallback () =
  (* With an absurdly small cap, links stay unresolved but the final
     schedule is still centrally completed and valid. *)
  let agg = random_agg 29 40 in
  let r =
    Protocol.run ~phase_round_cap:2 p agg Greedy_schedule.Global_power
  in
  Alcotest.(check bool) "some unresolved" true (r.Protocol.unresolved > 0);
  Alcotest.(check bool) "still valid" true r.Protocol.schedule_valid;
  Alcotest.(check bool) "still covers" true
    (Schedule.covers r.Protocol.schedule agg.Agg_tree.links)

(* [Protocol.run] (like [Dynamic]'s replans) takes its verdict from
   [Schedule.repair_validated] instead of re-solving every slot with
   [Schedule.is_valid]; the two must agree on the returned schedule. *)
let test_protocol_verdict_is_ground_truth () =
  let noisy = Params.make ~noise:1e-9 () in
  List.iter
    (fun (name, params, mode) ->
      let agg = random_agg 31 80 in
      let r = Protocol.run ~seed:31 params agg mode in
      Alcotest.(check bool) (name ^ ": valid") true r.Protocol.schedule_valid;
      Alcotest.(check bool)
        (name ^ ": verdict = is_valid")
        (Schedule.is_valid params agg.Agg_tree.links r.Protocol.schedule)
        r.Protocol.schedule_valid)
    [
      ("global", p, Greedy_schedule.Global_power);
      ("oblivious", p, Greedy_schedule.Oblivious_power 0.5);
      ("oblivious, noisy", noisy, Greedy_schedule.Oblivious_power 0.5);
    ]

(* The false verdict: oblivious powers always clear the noise floor,
   so the protocol cannot produce one; a custom power vector can.  A
   lone link under the noise floor is infeasible in every slot, repair
   cannot fix it, and the fused verdict must read false exactly as
   [is_valid] does.  With every power above the floor, repair splits
   the one crowded slot into certified parts and both read true. *)
let test_repair_verdict_noise_floor () =
  let params = Params.make ~noise:1.0 () in
  let ls = (random_agg 37 30).Agg_tree.links in
  let n = Wa_sinr.Linkset.size ls in
  let check name powers expected =
    let crowded =
      Schedule.of_slots
        [ List.init n Fun.id ]
        (Schedule.Scheme (Wa_sinr.Power.Custom powers))
    in
    let repaired, _, verdict = Schedule.repair_validated params ls crowded in
    Alcotest.(check bool) (name ^ ": verdict") expected verdict;
    Alcotest.(check bool)
      (name ^ ": verdict = is_valid")
      (Schedule.is_valid params ls repaired)
      verdict
  in
  (* Received power 2·l^3/l^3 = 2 > beta·noise = 1 for every link. *)
  let loud = Array.init n (fun i -> 2.0 *. (Wa_sinr.Linkset.length ls i ** 3.0)) in
  check "every link above the floor" loud true;
  let quiet = Array.copy loud in
  quiet.(0) <- 0.5 *. (Wa_sinr.Linkset.length ls 0 ** 3.0);
  check "one link under the floor" quiet false

(* ------------------------------------------------------------ properties *)

let qcheck_tests =
  let gen =
    QCheck.make ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
      (QCheck.Gen.int_bound 100000)
  in
  [
    QCheck.Test.make ~count:50 ~name:"removing an interferer never breaks a decode"
      gen (fun seed ->
        let rng = Rng.create seed in
        let n = 4 + Rng.int rng 8 in
        let pts =
          Pointset.of_array
            (Array.init n (fun _ ->
                 v (Rng.float rng 200.0) (Rng.float rng 200.0)))
        in
        let radio = Radio.create pts in
        (* Random transmitter set (at least 2, not everyone). *)
        let tx = Array.init n (fun i -> i < 2 || Rng.bool rng) in
        tx.(n - 1) <- false;
        let behaviour drop node =
          if tx.(node) && node <> drop then
            Radio.Transmit { power = 1.0; payload = node }
          else Radio.Listen
        in
        let before = Radio.round radio (behaviour (-1)) in
        (* Drop one transmitter that was NOT the decoded source. *)
        let listener = n - 1 in
        match before.(listener) with
        | Radio.Received { from; _ } ->
            let candidates =
              List.filter (fun i -> tx.(i) && i <> from) (List.init n Fun.id)
            in
            (match candidates with
            | [] -> true
            | drop :: _ -> (
                let after = Radio.round radio (behaviour drop) in
                match after.(listener) with
                | Radio.Received { from = from'; _ } -> from' = from
                | Radio.Collision | Radio.Silence -> false))
        | Radio.Collision | Radio.Silence -> true);
    QCheck.Test.make ~count:30 ~name:"protocol schedule always verifies" gen
      (fun seed ->
        let rng = Rng.create seed in
        let n = 10 + Rng.int rng 30 in
        let pts =
          Wa_instances.Random_deploy.uniform_square rng ~n ~side:800.0
        in
        let agg = Agg_tree.mst pts in
        let r = Protocol.run ~seed p agg Greedy_schedule.Global_power in
        r.Protocol.schedule_valid
        && Schedule.covers r.Protocol.schedule agg.Agg_tree.links);
  ]

let () =
  Alcotest.run "wa_distributed"
    [
      ( "radio",
        [
          Alcotest.test_case "lone transmitter" `Quick test_radio_lone_transmitter_heard;
          Alcotest.test_case "collision" `Quick test_radio_collision;
          Alcotest.test_case "capture" `Quick test_radio_capture;
          Alcotest.test_case "noise limits range" `Quick test_radio_noise_limits_range;
          Alcotest.test_case "rounds counted" `Quick test_radio_rounds_counted;
          Alcotest.test_case "bad power rejected" `Quick test_radio_rejects_bad_power;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "valid schedule" `Quick test_protocol_produces_valid_schedule;
          Alcotest.test_case "deterministic" `Quick test_protocol_deterministic;
          Alcotest.test_case "oblivious mode" `Quick test_protocol_oblivious_mode;
          Alcotest.test_case "rejects fixed" `Quick test_protocol_rejects_fixed;
          Alcotest.test_case "near-constant colors" `Quick test_protocol_colors_near_constant;
          Alcotest.test_case "phase cap fallback" `Quick test_protocol_phase_cap_fallback;
          Alcotest.test_case "verdict is ground truth" `Quick
            test_protocol_verdict_is_ground_truth;
          Alcotest.test_case "noise-floor verdict" `Quick
            test_repair_verdict_noise_floor;
        ]
        @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
    ]
