module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Feasibility = Wa_sinr.Feasibility
module Graph = Wa_graph.Graph
module Coloring = Wa_graph.Coloring

type mode =
  | Global_power
  | Oblivious_power of float
  | Fixed_scheme of Power.scheme

(* Default Garb constant for the arbitrary-power regime.  At γ = 1
   the greedy coloring leaves one large raw color that fails SINR
   validation on typical uniform deployments, so every cold plan pays
   the split-and-merge repair; γ = 1.25 produces colorings that
   validate as-is with equal or fewer final slots across the sizes and
   seeds measured (DESIGN §12), making repair the safety net it was
   meant to be instead of a fixed cost. *)
let global_gamma = 1.25

let threshold_for ?gamma mode =
  match mode with
  | Global_power ->
      let gamma = Option.value ~default:global_gamma gamma in
      Some (Conflict.log_power ~gamma ())
  | Oblivious_power tau -> Some (Conflict.power_law ?gamma ~tau ())
  | Fixed_scheme _ -> None

let conflict_graph ?gamma ?engine ?index p ls mode =
  match threshold_for ?gamma mode with
  | Some th -> Conflict.graph ?engine ?index p th ls
  | None ->
      let scheme =
        match mode with Fixed_scheme s -> s | _ -> assert false
      in
      (* Exact pairwise SINR conflicts under the fixed scheme.  A
         pairwise-compatible class need not be set-feasible; the repair
         pass covers the difference.  The power vector is hoisted out
         of the O(n^2) pair loop; there is no geometric threshold to
         index here, so the engine only picks sequential vs parallel
         row generation (rows are pure reads; results identical). *)
      Wa_obs.Trace.with_span "conflict.build.sinr_pairs" @@ fun () ->
      let n = Linkset.size ls in
      let vec = Power.vector p ls scheme in
      let pair_ok i j =
        Feasibility.sinr p ls ~power:vec ~concurrent:[ i; j ] i >= p.Params.beta
        && Feasibility.sinr p ls ~power:vec ~concurrent:[ i; j ] j >= p.Params.beta
      in
      let conflicts_of i =
        let acc = ref [] in
        for j = n - 1 downto i + 1 do
          if not (pair_ok i j) then acc := j :: !acc
        done;
        !acc
      in
      let rows =
        match engine with
        | Some `Dense -> Array.init n conflicts_of
        | Some `Indexed | None -> Wa_util.Parallel.init n conflicts_of
      in
      Graph.of_rows n rows

let coloring ?gamma ?engine ?index p ls mode =
  let g = conflict_graph ?gamma ?engine ?index p ls mode in
  Wa_obs.Trace.with_span "schedule.color" @@ fun () ->
  Coloring.greedy ~order:(Linkset.by_decreasing_length ls) g

let power_mode_of = function
  | Global_power -> Schedule.Arbitrary
  | Oblivious_power tau -> Schedule.Scheme (Power.Oblivious tau)
  | Fixed_scheme s -> Schedule.Scheme s

let schedule ?gamma ?engine ?index ?(repair = true) p ls mode =
  let schedule =
    Schedule.of_coloring
      (coloring ?gamma ?engine ?index p ls mode)
      (power_mode_of mode)
  in
  if repair then Schedule.repair p ls schedule else (schedule, 0)
