(* Tests for the benchmark's statistics helpers and load generator. *)

let floats = Alcotest.(list (float 1e-9))
let sample_of_range a b = Sample.of_list (List.init (b - a + 1) (fun i -> float_of_int (a + i)))

let test_nearest_rank () =
  let s = sample_of_range 1 10 in
  Alcotest.(check int) "count" 10 (Sample.count s);
  Alcotest.check floats "p0 p25 p50 p90 p100"
    [ 1.0; 3.0; 5.0; 9.0; 10.0 ]
    (List.map (Sample.percentile s) [ 0.0; 25.0; 50.0; 90.0; 100.0 ]);
  (* A reported percentile is always a measured sample. *)
  let s = Sample.of_list [ 0.5; 7.25; 3.0 ] in
  Alcotest.(check (float 0.0)) "median of three" 3.0 (Sample.median s);
  let s = sample_of_range 1 1000 in
  Alcotest.(check (float 0.0)) "p99.9 of 1000" 999.0 (Sample.percentile s 99.9);
  Alcotest.(check int) "beyond p99.9 of 1000" 1 (Sample.beyond s 99.9);
  Alcotest.check_raises "empty" (Invalid_argument "Sample.percentile: no samples")
    (fun () -> ignore (Sample.percentile (Sample.of_list []) 50.0))

let test_tail_rule () =
  let tail n = Sample.tail_percentile (sample_of_range 1 n) in
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (tail 20);
  Alcotest.(check (option (float 0.0))) "99 samples: p50" (Some 50.0) (tail 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (tail 100);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 99.9) (tail 10000)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Sample.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ];
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, m, q3 = Sample.quartiles [ 3.0; 1.0; 2.0 ] in
  Alcotest.check floats "three values" [ 1.0; 2.0; 3.0 ] [ q1; m; q3 ];
  Alcotest.(check (float 1e-12)) "relative IQR" 1.0
    (Sample.relative_iqr (List.init 10 (fun i -> float_of_int (i + 1))))

let draws seed k z =
  let rng = Wa_util.Rng.create seed in
  List.init k (fun _ -> Zipf.draw z rng)

let test_zipf_seeded () =
  let z = Zipf.create ~s:1.1 64 in
  Alcotest.(check (list int)) "same seed, same ranks" (draws 5 1000 z) (draws 5 1000 z);
  Alcotest.(check bool) "another seed, other ranks" true (draws 5 1000 z <> draws 6 1000 z);
  let total = List.fold_left ( +. ) 0.0 (List.init 64 (Zipf.probability z)) in
  Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.0 total

let test_zipf_frequencies () =
  let z = Zipf.create ~s:1.0 512 in
  let n = 100_000 in
  let counts = Array.make 512 0 in
  List.iter (fun r -> counts.(r) <- counts.(r) + 1) (draws 42 n z);
  List.iter
    (fun r ->
      let p = Zipf.probability z r in
      let observed = float_of_int counts.(r) /. float_of_int n in
      let sigma = sqrt (p *. (1.0 -. p) /. float_of_int n) in
      if Float.abs (observed -. p) > 5.0 *. sigma then
        Alcotest.failf "rank %d: frequency %.5f, expected %.5f" r observed p)
    [ 0; 1; 2; 5; 10; 50; 100 ];
  Alcotest.(check bool) "rank 0 is the hottest" true
    (Array.for_all (fun c -> c <= counts.(0)) counts)

(* A one-connection responder on an ephemeral port: answers each
   request line with an id-matched ok line, after [stall] seconds for
   the first one. *)
let responder ~stall =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port =
    match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let d =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listen in
        Unix.close listen;
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        output_string oc (Wa_service.Protocol.greeting_line ^ "\n");
        flush oc;
        let first = ref true in
        (try
           while true do
             let line = input_line ic in
             if !first then Unix.sleepf stall;
             first := false;
             match Traffic.split_response line with
             | Some (id, _) -> Printf.fprintf oc "{\"v\":1,\"id\":%d,\"ok\":true}\n%!" id
             | None -> ()
           done
         with End_of_file | Sys_error _ -> ());
        Unix.close fd)
  in
  (port, d)

let run_open_loop ~stall ~on_response =
  let port, d = responder ~stall in
  let c = Traffic.connect ~port () in
  let due = Array.init 50 (fun i -> float_of_int i *. 0.01) in
  let o =
    Traffic.open_loop ~conns:[| c |] ~due ~tail:(fun _ -> "}") ~on_response ~timeout_s:5.0
  in
  Traffic.close c;
  Domain.join d;
  (due, o)

let test_stalled_responder () =
  let due, o = run_open_loop ~stall:0.2 ~on_response:(fun _ _ -> ()) in
  Alcotest.(check int) "no unmatched lines" 0 o.Traffic.unmatched;
  Array.iteri
    (fun i l ->
      if Float.is_nan l then Alcotest.failf "request %d unanswered" i;
      (* Nothing is answered before the stall ends, so every request
         due during it waits from its due time until then. *)
      if due.(i) < 0.2 && l < ((0.2 -. due.(i)) *. 1000.0) -. 1.0 then
        Alcotest.failf "request %d: %.1f ms from due, stall was 200 ms" i l)
    o.Traffic.latency_ms

let test_stalled_generator () =
  let stalled = ref false in
  let on_response _ _ =
    if not !stalled then begin
      stalled := true;
      Unix.sleepf 0.2
    end
  in
  let _, o = run_open_loop ~stall:0.0 ~on_response in
  let late = Array.fold_left Float.max 0.0 o.Traffic.late_ms in
  if late < 150.0 then Alcotest.failf "generator stalled 200 ms but was at most %.1f ms late" late;
  Array.iteri
    (fun i l ->
      (* Latency is timed from the due time, so it includes the
         generator's own lateness in sending. *)
      if l < o.Traffic.late_ms.(i) then
        Alcotest.failf "request %d: latency %.1f ms below its lateness %.1f ms" i l
          o.Traffic.late_ms.(i))
    o.Traffic.latency_ms

let test_poisson () =
  let due = Traffic.poisson_schedule (Wa_util.Rng.create 3) ~rate:1000.0 ~seconds:10.0 in
  let n = Array.length due in
  if abs (n - 10_000) > 500 then Alcotest.failf "%d arrivals in 10 s at 1000/s" n;
  Alcotest.(check bool) "non-decreasing, inside the window" true
    (Array.for_all (fun t -> t >= 0.0 && t < 10.0) due
    && Array.for_all Fun.id (Array.init (n - 1) (fun i -> due.(i) <= due.(i + 1))))

let () =
  Alcotest.run "wa_bench"
    [
      ( "sample",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_nearest_rank;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "seeded determinism" `Quick test_zipf_seeded;
          Alcotest.test_case "rank frequencies" `Quick test_zipf_frequencies;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "stalled responder" `Quick test_stalled_responder;
          Alcotest.test_case "stalled generator" `Quick test_stalled_generator;
          Alcotest.test_case "poisson schedule" `Quick test_poisson;
        ] );
    ]
