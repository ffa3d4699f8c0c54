module Params = Wa_sinr.Params
module Link = Wa_sinr.Link
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Affectance = Wa_sinr.Affectance
module Feasibility = Wa_sinr.Feasibility
module Power_solver = Wa_sinr.Power_solver
module Length_class = Wa_sinr.Length_class
module Logline = Wa_sinr.Logline
module Lf = Wa_util.Logfloat
module Vec2 = Wa_geom.Vec2
module Pointset = Wa_geom.Pointset
module Tree = Wa_graph.Tree
module Rng = Wa_util.Rng

let v = Vec2.make
let p = Params.default
let check_float = Alcotest.(check (float 1e-9))

(* --------------------------------------------------------------- Params *)

let test_params_defaults () =
  check_float "alpha" 3.0 p.Params.alpha;
  check_float "beta" 1.0 p.Params.beta;
  check_float "noise" 0.0 p.Params.noise

let test_params_validation () =
  Alcotest.check_raises "alpha <= 2" (Invalid_argument "Params.make: alpha must exceed 2")
    (fun () -> ignore (Params.make ~alpha:2.0 ()));
  Alcotest.check_raises "beta <= 0" (Invalid_argument "Params.make: beta must be positive")
    (fun () -> ignore (Params.make ~beta:0.0 ()));
  Alcotest.check_raises "noise < 0" (Invalid_argument "Params.make: noise must be non-negative")
    (fun () -> ignore (Params.make ~noise:(-1.0) ()));
  (* Every range test is false on NaN and +inf passes the lower
     bounds, so non-finite values need their own rejection. *)
  List.iter
    (fun (name, v, mk) ->
      Alcotest.check_raises
        (Printf.sprintf "%s = %g" name v)
        (Invalid_argument ("Params.make: " ^ name ^ " must be finite"))
        (fun () -> ignore (mk v)))
    [
      ("alpha", nan, fun v -> Params.make ~alpha:v ());
      ("alpha", infinity, fun v -> Params.make ~alpha:v ());
      ("beta", nan, fun v -> Params.make ~beta:v ());
      ("beta", infinity, fun v -> Params.make ~beta:v ());
      ("noise", nan, fun v -> Params.make ~noise:v ());
      ("noise", infinity, fun v -> Params.make ~noise:v ());
      ("epsilon", nan, fun v -> Params.make ~epsilon:v ());
      ("epsilon", infinity, fun v -> Params.make ~epsilon:v ());
    ]

let test_params_strict () =
  let s = Params.strict p in
  check_float "3^alpha" 27.0 s.Params.beta

(* ----------------------------------------------------------------- Link *)

let test_link_geometry () =
  let l1 = Link.make (v 0.0 0.0) (v 2.0 0.0) in
  let l2 = Link.make (v 5.0 0.0) (v 6.0 0.0) in
  check_float "length" 2.0 (Link.length l1);
  check_float "s1->r2" 6.0 (Link.sender_to_receiver l1 l2);
  check_float "s2->r1" 3.0 (Link.sender_to_receiver l2 l1);
  check_float "min distance" 3.0 (Link.min_distance l1 l2);
  Alcotest.(check bool) "no shared endpoint" false (Link.shares_endpoint l1 l2);
  let l3 = Link.make (v 2.0 0.0) (v 3.0 3.0) in
  Alcotest.(check bool) "shared endpoint" true (Link.shares_endpoint l1 l3);
  check_float "touching distance" 0.0 (Link.min_distance l1 l3)

let test_link_reverse () =
  let l = Link.make (v 0.0 0.0) (v 1.0 1.0) in
  let r = Link.reverse l in
  Alcotest.(check bool) "src swapped" true (Vec2.equal r.Link.src l.Link.dst);
  check_float "same length" (Link.length l) (Link.length r)

let test_link_rejects_degenerate () =
  Alcotest.check_raises "zero length" (Invalid_argument "Link.make: zero-length link")
    (fun () -> ignore (Link.make (v 1.0 1.0) (v 1.0 1.0)))

let test_link_equal_compare () =
  let l1 = Link.make (v 0.0 0.0) (v 2.0 0.0) in
  let l1' = Link.make (v 0.0 0.0) (v 2.0 0.0) in
  let l2 = Link.make (v 0.0 0.0) (v 2.0 1.0) in
  Alcotest.(check bool) "equal to twin" true (Link.equal l1 l1');
  Alcotest.(check bool) "not equal to other" false (Link.equal l1 l2);
  Alcotest.(check int) "compare twin" 0 (Link.compare l1 l1');
  Alcotest.(check bool) "compare antisymmetric" true
    (Link.compare l1 l2 = -Link.compare l2 l1);
  (* NaN-safe: a NaN coordinate still yields a total order (unlike
     polymorphic compare, Float.compare puts nan below all reals, and
     a nan endpoint equals itself). *)
  let ln = { l1 with Link.dst = v Float.nan 0.0 } in
  Alcotest.(check bool) "nan link equals itself" true (Link.equal ln ln);
  Alcotest.(check int) "nan link compares 0 with itself" 0 (Link.compare ln ln);
  Alcotest.(check bool) "nan link ordered vs real" true (Link.compare ln l1 <> 0)

(* -------------------------------------------------------------- Linkset *)

let chain_linkset () =
  (* Three collinear links: lengths 1, 2, 4 with gaps. *)
  Linkset.of_links
    [
      Link.make (v 0.0 0.0) (v 1.0 0.0);
      Link.make (v 3.0 0.0) (v 5.0 0.0);
      Link.make (v 10.0 0.0) (v 14.0 0.0);
    ]

let test_linkset_lengths () =
  let ls = chain_linkset () in
  Alcotest.(check int) "size" 3 (Linkset.size ls);
  check_float "l0" 1.0 (Linkset.length ls 0);
  check_float "min" 1.0 (Linkset.min_length ls);
  check_float "max" 4.0 (Linkset.max_length ls);
  check_float "diversity" 4.0 (Linkset.diversity ls)

let test_linkset_orders () =
  let ls = chain_linkset () in
  Alcotest.(check (array int)) "decreasing" [| 2; 1; 0 |] (Linkset.by_decreasing_length ls);
  Alcotest.(check (array int)) "increasing" [| 0; 1; 2 |] (Linkset.by_increasing_length ls)

let test_linkset_dist () =
  let ls = chain_linkset () in
  check_float "d(0,1)" 2.0 (Linkset.dist ls 0 1);
  check_float "symmetric" (Linkset.dist ls 1 0) (Linkset.dist ls 0 1);
  check_float "s2r" 5.0 (Linkset.sender_to_receiver ls 0 1)

let test_linkset_of_tree () =
  let ps = Pointset.of_list [ v 0.0 0.0; v 1.0 0.0; v 2.0 0.0 ] in
  let tree = Tree.root ~n:3 ~sink:0 [ (0, 1); (1, 2) ] in
  let ls = Linkset.of_tree ps tree in
  Alcotest.(check int) "two links" 2 (Linkset.size ls);
  Alcotest.(check (option int)) "child of link 0" (Some 1) (Linkset.tree_child ls 0);
  Alcotest.(check (option int)) "child of link 1" (Some 2) (Linkset.tree_child ls 1);
  (* Link 1 goes from node 2 toward node 1 (child -> parent). *)
  let l1 = Linkset.link ls 1 in
  Alcotest.(check bool) "directed toward sink" true
    (Vec2.equal l1.Link.src (v 2.0 0.0) && Vec2.equal l1.Link.dst (v 1.0 0.0))

(* ---------------------------------------------------------------- Power *)

let test_power_schemes () =
  let ls = chain_linkset () in
  let uniform = Power.vector p ls Power.Uniform in
  Alcotest.(check bool) "uniform equal" true
    (uniform.(0) = uniform.(1) && uniform.(1) = uniform.(2));
  let linear = Power.vector p ls Power.Linear in
  (* P1(i) ~ l_i^alpha: ratios follow length ratios cubed. *)
  check_float "linear ratio" (2.0 ** 3.0) (linear.(1) /. linear.(0));
  let obl = Power.vector p ls (Power.Oblivious 0.5) in
  check_float "tau=1/2 ratio" (2.0 ** 1.5) (obl.(1) /. obl.(0))

let test_power_tau () =
  Alcotest.(check (option (float 0.0))) "uniform tau" (Some 0.0) (Power.tau Power.Uniform);
  Alcotest.(check (option (float 0.0))) "linear tau" (Some 1.0) (Power.tau Power.Linear);
  Alcotest.(check (option (float 0.0))) "custom tau" None (Power.tau (Power.Custom [| 1.0 |]));
  Alcotest.(check bool) "oblivious" true (Power.is_oblivious (Power.Oblivious 0.3))

let test_power_custom_validation () =
  let ls = chain_linkset () in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Power.value: custom vector has wrong length") (fun () ->
      ignore (Power.value p ls (Power.Custom [| 1.0 |]) 0));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Power.value: non-positive custom power") (fun () ->
      ignore (Power.value p ls (Power.Custom [| 1.0; 0.0; 1.0 |]) 1))

let test_power_noise_margin () =
  (* With noise, every link's power must clear the interference-limited
     floor (1+eps)*beta*N*l^alpha. *)
  let noisy = Params.make ~noise:0.1 () in
  let ls = chain_linkset () in
  List.iter
    (fun scheme ->
      let vec = Power.vector noisy ls scheme in
      for i = 0 to Linkset.size ls - 1 do
        let floor_i =
          (1.0 +. noisy.Params.epsilon) *. noisy.Params.beta *. noisy.Params.noise
          *. (Linkset.length ls i ** noisy.Params.alpha)
        in
        if vec.(i) < floor_i *. (1.0 -. 1e-12) then
          Alcotest.failf "power below interference-limited floor"
      done)
    [ Power.Uniform; Power.Linear; Power.Oblivious 0.4 ]

(* ----------------------------------------------------------- Affectance *)

let test_additive_operator () =
  let ls = chain_linkset () in
  (* I(0,1) = min(1, (l0/d(0,1))^alpha) = (1/2)^3. *)
  check_float "I(0,1)" 0.125 (Affectance.additive p ls 0 1);
  check_float "I(j,j)" 0.0 (Affectance.additive p ls 1 1);
  (* Touching links saturate at 1. *)
  let touching =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1.0 0.0) (v 4.0 0.0) ]
  in
  check_float "touching" 1.0 (Affectance.additive p touching 0 1)

let test_additive_sets () =
  let ls = chain_linkset () in
  check_float "on set" (Affectance.additive p ls 0 1 +. Affectance.additive p ls 0 2)
    (Affectance.additive_on_set p ls [ 1; 2 ] 0);
  check_float "from set" (Affectance.additive p ls 1 0 +. Affectance.additive p ls 2 0)
    (Affectance.additive_from_set p ls [ 1; 2 ] 0)

let test_relative_interference () =
  let ls = chain_linkset () in
  let power = Power.vector p ls Power.Uniform in
  (* I_P(1,0) = P1 * l0^a / (P0 * d_{1,0}^a); d(s1, r0) = 2. *)
  check_float "I_P(1,0)" (1.0 /. 8.0) (Affectance.relative p ls ~power 1 0);
  check_float "self" 0.0 (Affectance.relative p ls ~power 0 0)

(* ------------------------------------------------------------ Feasibility *)

let test_feasibility_singleton () =
  let ls = chain_linkset () in
  Alcotest.(check bool) "singleton" true
    (Feasibility.is_feasible p ls ~power:Power.Uniform [ 0 ])

let test_feasibility_far_pair () =
  let far =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 100.0 0.0) (v 101.0 0.0) ]
  in
  Alcotest.(check bool) "far pair ok" true
    (Feasibility.is_feasible p far ~power:Power.Uniform [ 0; 1 ]);
  Alcotest.(check bool) "pair helper" true
    (Feasibility.pair_feasible p far ~power:Power.Uniform 0 1)

let test_feasibility_touching_pair () =
  let touching =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1.0 0.0) (v 2.0 0.0) ]
  in
  Alcotest.(check bool) "chained links cannot share a slot" false
    (Feasibility.is_feasible p touching ~power:Power.Uniform [ 0; 1 ])

let test_feasibility_violations_reported () =
  let touching =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1.0 0.0) (v 2.0 0.0) ]
  in
  match Feasibility.check p touching ~power:Power.Uniform [ 0; 1 ] with
  | Feasibility.Feasible -> Alcotest.fail "expected infeasible"
  | Feasibility.Infeasible vs ->
      Alcotest.(check bool) "some violation" true (List.length vs >= 1);
      List.iter
        (fun viol ->
          Alcotest.(check bool) "sinr below beta" true
            (viol.Feasibility.sinr < viol.Feasibility.required))
        vs

let test_feasibility_noise_blocks_weak () =
  (* Unit link, huge noise: uniform power is normalized to clear the
     noise floor, so a singleton stays feasible; a custom power of 1
     does not. *)
  let ls = Linkset.of_links [ Link.make (v 0.0 0.0) (v 1.0 0.0) ] in
  let noisy = Params.make ~noise:10.0 () in
  Alcotest.(check bool) "normalized uniform clears noise" true
    (Feasibility.is_feasible noisy ls ~power:Power.Uniform [ 0 ]);
  Alcotest.(check bool) "weak custom fails" false
    (Feasibility.is_feasible noisy ls ~power:(Power.Custom [| 1.0 |]) [ 0 ])

let test_margin () =
  let far =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 100.0 0.0) (v 101.0 0.0) ]
  in
  let vec = Power.vector p far Power.Uniform in
  Alcotest.(check bool) "comfortable margin" true
    (Feasibility.margin p far ~power:vec [ 0; 1 ] > 1.0)

(* ----------------------------------------------------------- Power_solver *)

let test_solver_trivial () =
  let ls = chain_linkset () in
  let o = Power_solver.solve p ls [ 1 ] in
  Alcotest.(check bool) "singleton feasible" true o.Power_solver.feasible;
  Alcotest.(check bool) "empty feasible" true (Power_solver.solve p ls []).Power_solver.feasible

let test_solver_touching_infeasible () =
  let touching =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1.0 0.0) (v 2.0 0.0) ]
  in
  let o = Power_solver.solve p touching [ 0; 1 ] in
  Alcotest.(check bool) "touching infeasible" false o.Power_solver.feasible;
  Alcotest.(check bool) "rho infinite" true (o.Power_solver.spectral_radius = infinity)

let test_solver_witness_verifies () =
  let far =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 10.0 0.0) (v 11.0 0.0);
        Link.make (v 20.0 0.0) (v 21.0 0.0);
      ]
  in
  let o = Power_solver.solve p far [ 0; 1; 2 ] in
  Alcotest.(check bool) "feasible" true o.Power_solver.feasible;
  match o.Power_solver.power with
  | Some power ->
      Alcotest.(check bool) "witness passes ground truth" true
        (Feasibility.is_feasible p far ~power:(Power.Custom power) [ 0; 1; 2 ])
  | None -> Alcotest.fail "expected witness"

let test_solver_beats_oblivious () =
  (* Any Pτ-feasible set must also be arbitrary-power feasible. *)
  let rng = Rng.create 31 in
  for _ = 1 to 20 do
    let links =
      List.init 4 (fun _ ->
          let sx = Rng.float rng 50.0 and sy = Rng.float rng 50.0 in
          Link.make (v sx sy) (v (sx +. 1.0 +. Rng.float rng 3.0) sy))
    in
    let ls = Linkset.of_links links in
    let slot = [ 0; 1; 2; 3 ] in
    if Feasibility.is_feasible p ls ~power:(Power.Oblivious 0.5) slot then
      Alcotest.(check bool) "oblivious-feasible => solver-feasible" true
        (Power_solver.feasible p ls slot)
  done

let test_solver_spectral_radius_far_links () =
  let far =
    Linkset.of_links
      [ Link.make (v 0.0 0.0) (v 1.0 0.0); Link.make (v 1000.0 0.0) (v 1001.0 0.0) ]
  in
  Alcotest.(check bool) "rho tiny" true
    (Power_solver.spectral_radius p far [ 0; 1 ] < 0.01)

let test_solver_power_scheme () =
  let ls = chain_linkset () in
  match Power_solver.power_scheme p ls [ [ 0; 2 ]; [ 1 ] ] with
  | Some (Power.Custom vec) ->
      Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x > 0.0) vec);
      Alcotest.(check bool) "slot feasible under combined scheme" true
        (Feasibility.is_feasible p ls ~power:(Power.Custom vec) [ 0; 2 ])
  | Some _ -> Alcotest.fail "expected custom scheme"
  | None -> Alcotest.fail "expected feasible partition"

(* ----------------------------------------------------------- Length_class *)

let test_length_classes () =
  let ls =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 10.0 0.0) (v 11.5 0.0);
        Link.make (v 20.0 0.0) (v 24.0 0.0);
        Link.make (v 40.0 0.0) (v 49.0 0.0);
      ]
  in
  let lc = Length_class.partition ls in
  Alcotest.(check int) "link 0 class" 0 (Length_class.class_of_link lc 0);
  Alcotest.(check int) "link 1 class" 0 (Length_class.class_of_link lc 1);
  Alcotest.(check int) "link 2 class" 2 (Length_class.class_of_link lc 2);
  Alcotest.(check int) "link 3 class" 3 (Length_class.class_of_link lc 3);
  Alcotest.(check int) "nonempty classes" 3 (Length_class.class_count lc);
  Alcotest.(check int) "span" 4 (Length_class.class_index_count lc);
  Alcotest.(check (list int)) "class 0 members" [ 0; 1 ] (Length_class.links_of_class lc 0);
  match Length_class.descending lc with
  | (first_idx, first_links) :: _ ->
      Alcotest.(check int) "longest first" 3 first_idx;
      Alcotest.(check (list int)) "its links" [ 3 ] first_links
  | [] -> Alcotest.fail "no classes"

let test_length_class_boundary () =
  (* Exact powers of two land in the right class despite float log. *)
  let ls =
    Linkset.of_links
      [
        Link.make (v 0.0 0.0) (v 1.0 0.0);
        Link.make (v 10.0 0.0) (v 12.0 0.0);
        Link.make (v 20.0 0.0) (v 24.0 0.0);
      ]
  in
  let lc = Length_class.partition ls in
  Alcotest.(check int) "length 2 -> class 1" 1 (Length_class.class_of_link lc 1);
  Alcotest.(check int) "length 4 -> class 2" 2 (Length_class.class_of_link lc 2)

(* -------------------------------------------------------------- Logline *)

let test_logline_dist () =
  let ll = Logline.of_gaps [| Lf.of_float 1.0; Lf.of_float 2.0; Lf.of_float 4.0 |] in
  Alcotest.(check int) "size" 4 (Logline.size ll);
  check_float "d(0,1)" 1.0 (Lf.to_float (Logline.dist ll 0 1));
  check_float "d(0,3)" 7.0 (Lf.to_float (Logline.dist ll 0 3));
  check_float "d(3,1)" 6.0 (Lf.to_float (Logline.dist ll 3 1));
  check_float "diversity" 7.0 (Lf.to_float (Logline.diversity ll))

let test_logline_mst () =
  let ll = Logline.of_gaps [| Lf.of_float 1.0; Lf.of_float 2.0 |] in
  let links = Logline.mst_links ll in
  Alcotest.(check int) "two links" 2 (Array.length links);
  Alcotest.(check int) "first src" 0 links.(0).Logline.src;
  let left = Logline.mst_links ~toward:`Left ll in
  Alcotest.(check int) "left dst" 0 left.(0).Logline.dst

let test_logline_matches_float () =
  (* Cross-check the log-domain Pτ feasibility against the float
     machinery on a moderate instance. *)
  let gaps = [| 1.0; 3.0; 9.0; 27.0 |] in
  let ll = Logline.of_gaps (Array.map Lf.of_float gaps) in
  let positions = Array.make 5 0.0 in
  for i = 0 to 3 do
    positions.(i + 1) <- positions.(i) +. gaps.(i)
  done;
  let links_float =
    Linkset.of_links
      (List.init 4 (fun i ->
           Link.make (v positions.(i) 0.0) (v positions.(i + 1) 0.0)))
  in
  let links_log = Array.to_list (Logline.mst_links ll) in
  let tau = 0.5 in
  (* Full set and all pairs must agree between representations. *)
  let agree subset_ids =
    let float_ok =
      Feasibility.is_feasible p links_float ~power:(Power.Oblivious tau) subset_ids
    in
    let log_ok =
      Logline.set_feasible p ~tau ll
        (List.map (fun i -> List.nth links_log i) subset_ids)
    in
    Alcotest.(check bool)
      (Printf.sprintf "agree on {%s}" (String.concat "," (List.map string_of_int subset_ids)))
      float_ok log_ok
  in
  agree [ 0; 1 ];
  agree [ 0; 2 ];
  agree [ 0; 3 ];
  agree [ 1; 3 ];
  agree [ 0; 1; 2; 3 ]

let test_logline_touching_infeasible () =
  let ll = Logline.of_gaps [| Lf.of_float 1.0; Lf.of_float 2.0 |] in
  let l0 = { Logline.src = 0; dst = 1 } and l1 = { Logline.src = 1; dst = 2 } in
  Alcotest.(check bool) "sender-on-receiver infeasible" false
    (Logline.pair_feasible p ~tau:0.5 ll l1 l0)

let test_logline_rejects_zero_gap () =
  Alcotest.check_raises "zero gap" (Invalid_argument "Logline.of_gaps: zero gap")
    (fun () -> ignore (Logline.of_gaps [| Lf.zero |]))

let test_logline_greedy_schedule () =
  (* Uniformly spaced line: consecutive links conflict (shared nodes)
     but alternate links are far enough apart under P_{1/2}; the greedy
     should find real reuse.  The result must partition the links and
     every slot must pass the exact log-domain feasibility check. *)
  let gaps = Array.make 9 (Lf.of_float 10.0) in
  let ll = Logline.of_gaps gaps in
  let links = Logline.mst_links ll in
  let slots = Logline.greedy_schedule p ~tau:0.5 ll links in
  let covered = List.sort Int.compare (List.concat slots) in
  Alcotest.(check (list int)) "partition" (List.init 9 Fun.id) covered;
  List.iter
    (fun slot ->
      let members = List.map (fun i -> links.(i)) slot in
      Alcotest.(check bool) "slot feasible" true
        (Logline.set_feasible p ~tau:0.5 ll members))
    slots;
  Alcotest.(check bool) "fewer slots than links" true (List.length slots < 9)

let test_logline_greedy_on_exp_line () =
  (* On the Prop.-1 instance the greedy can do no better than one link
     per slot. *)
  let ll =
    Logline.of_gaps (Array.init 14 (fun t -> Lf.of_log ((2.0 ** float_of_int t) *. log 4.4)))
  in
  let links = Logline.mst_links ll in
  let slots = Logline.greedy_schedule p ~tau:0.5 ll links in
  Alcotest.(check int) "n-1 slots" 14 (List.length slots)

let () =
  Alcotest.run "wa_sinr"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "strict" `Quick test_params_strict;
        ] );
      ( "link",
        [
          Alcotest.test_case "geometry" `Quick test_link_geometry;
          Alcotest.test_case "reverse" `Quick test_link_reverse;
          Alcotest.test_case "degenerate rejected" `Quick test_link_rejects_degenerate;
          Alcotest.test_case "equal/compare" `Quick test_link_equal_compare;
        ] );
      ( "linkset",
        [
          Alcotest.test_case "lengths" `Quick test_linkset_lengths;
          Alcotest.test_case "orders" `Quick test_linkset_orders;
          Alcotest.test_case "distances" `Quick test_linkset_dist;
          Alcotest.test_case "of_tree" `Quick test_linkset_of_tree;
        ] );
      ( "power",
        [
          Alcotest.test_case "schemes" `Quick test_power_schemes;
          Alcotest.test_case "tau" `Quick test_power_tau;
          Alcotest.test_case "custom validation" `Quick test_power_custom_validation;
          Alcotest.test_case "noise margin" `Quick test_power_noise_margin;
        ] );
      ( "affectance",
        [
          Alcotest.test_case "additive operator" `Quick test_additive_operator;
          Alcotest.test_case "set sums" `Quick test_additive_sets;
          Alcotest.test_case "relative interference" `Quick test_relative_interference;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "singleton" `Quick test_feasibility_singleton;
          Alcotest.test_case "far pair" `Quick test_feasibility_far_pair;
          Alcotest.test_case "touching pair" `Quick test_feasibility_touching_pair;
          Alcotest.test_case "violations reported" `Quick test_feasibility_violations_reported;
          Alcotest.test_case "noise" `Quick test_feasibility_noise_blocks_weak;
          Alcotest.test_case "margin" `Quick test_margin;
        ] );
      ( "power_solver",
        [
          Alcotest.test_case "trivial" `Quick test_solver_trivial;
          Alcotest.test_case "touching infeasible" `Quick test_solver_touching_infeasible;
          Alcotest.test_case "witness verifies" `Quick test_solver_witness_verifies;
          Alcotest.test_case "oblivious implies arbitrary" `Quick test_solver_beats_oblivious;
          Alcotest.test_case "spectral radius" `Quick test_solver_spectral_radius_far_links;
          Alcotest.test_case "power scheme" `Quick test_solver_power_scheme;
        ] );
      ( "length_class",
        [
          Alcotest.test_case "partition" `Quick test_length_classes;
          Alcotest.test_case "boundaries" `Quick test_length_class_boundary;
        ] );
      ( "logline",
        [
          Alcotest.test_case "dist" `Quick test_logline_dist;
          Alcotest.test_case "mst links" `Quick test_logline_mst;
          Alcotest.test_case "matches float" `Quick test_logline_matches_float;
          Alcotest.test_case "touching infeasible" `Quick test_logline_touching_infeasible;
          Alcotest.test_case "zero gap rejected" `Quick test_logline_rejects_zero_gap;
          Alcotest.test_case "greedy schedule" `Quick test_logline_greedy_schedule;
          Alcotest.test_case "greedy on exp line" `Quick test_logline_greedy_on_exp_line;
        ] );
    ]
