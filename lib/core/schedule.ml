module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Power = Wa_sinr.Power
module Feasibility = Wa_sinr.Feasibility
module Power_solver = Wa_sinr.Power_solver
module Coloring = Wa_graph.Coloring

type power_mode = Scheme of Power.scheme | Arbitrary

type t = {
  slots : int list array;
  power_mode : power_mode;
}

let of_coloring coloring power_mode =
  if coloring.Coloring.classes = 0 then invalid_arg "Schedule.of_coloring: empty";
  { slots = Coloring.classes coloring; power_mode }

let of_slots slots power_mode =
  if List.is_empty slots then invalid_arg "Schedule.of_slots: empty";
  { slots = Array.of_list (List.map (List.sort Int.compare) slots); power_mode }

let length t = Array.length t.slots

let rate t = 1.0 /. float_of_int (length t)

let covers t ls =
  let n = Linkset.size ls in
  let count = Array.make n 0 in
  let in_range = ref true in
  Array.iter
    (List.iter (fun i ->
         if i < 0 || i >= n then in_range := false else count.(i) <- count.(i) + 1))
    t.slots;
  !in_range && Array.for_all (fun c -> c = 1) count

let slot_of_link t i =
  let found = ref (-1) in
  Array.iteri (fun k slot -> if !found = -1 && List.mem i slot then found := k) t.slots;
  if !found = -1 then raise Not_found else !found

let slot_feasible ?quick p ls mode slot =
  match slot with
  | [] -> true
  | [ i ] -> (
      (* A lone link can only fail against the noise floor. *)
      match mode with
      | Scheme scheme when p.Params.noise > 0.0 ->
          Feasibility.is_feasible p ls ~power:scheme [ i ]
      | Scheme _ | Arbitrary -> true)
  | _ -> (
      match mode with
      | Scheme scheme -> Feasibility.is_feasible p ls ~power:scheme slot
      | Arbitrary ->
          (* Row-sum screen first: one O(k²) accumulation with early
             bail certifies well-separated slots (rho <= max row sum)
             without building the gain matrix or iterating, and on
             typical colorings most slots pass it. *)
          Power_solver.row_sum_feasible p ls slot
          || Power_solver.feasible ?quick p ls slot)

let infeasible_slots p ls t =
  (* Slots are independent read-only checks: fan them out over domains
     (sequential below the threshold or on single-core hosts).  The
     per-slot work is far above the per-item fan-out cost, hence the
     low threshold. *)
  let ok =
    Wa_util.Parallel.map_array ~threshold:4
      (fun slot -> slot_feasible p ls t.power_mode slot)
      t.slots
  in
  let bad = ref [] in
  Array.iteri (fun k good -> if not good then bad := k :: !bad) ok;
  List.rev !bad

let is_valid p ls t =
  Wa_obs.Trace.with_span "schedule.validate" @@ fun () ->
  covers t ls && List.is_empty (infeasible_slots p ls t)

(* First-fit the links of a broken slot into feasible sub-slots,
   longest first (mirroring the paper's greedy order).  Every
   placement attempt runs the exact feasibility check, so this is
   reserved for small slots. *)
let first_fit_split p ls mode slot =
  let by_length =
    List.sort
      (fun a b -> Float.compare (Linkset.length ls b) (Linkset.length ls a))
      slot
  in
  let sub_slots = ref [] in
  List.iter
    (fun i ->
      let rec place acc = function
        | [] -> List.rev ([ i ] :: acc)
        | s :: rest ->
            if slot_feasible ~quick:true p ls mode (i :: s) then
              List.rev_append acc ((i :: s) :: rest)
            else place (s :: acc) rest
      in
      sub_slots := place [] !sub_slots)
    by_length;
  List.map (List.sort Int.compare) !sub_slots

(* Above this size, exact first-fit (O(k²) solver calls) is replaced by
   a geometric pre-split. *)
let exact_split_limit = 80

(* Split a slot already found infeasible: a large one by coloring its
   links against a tighter constant-threshold conflict graph (cheap,
   geometric), then recursing into each class that fails its own check;
   fall back to exact first-fit when the geometric split stops making
   progress.  The caller's verdict on [slot] stands, so it is never
   re-solved here. *)
let rec split_slot ?(gamma = 2.0) p ls mode slot =
  if List.length slot <= exact_split_limit || gamma > 64.0 then
    first_fit_split p ls mode slot
  else begin
    let members = Array.of_list slot in
    let k = Array.length members in
    let th = Conflict.Constant gamma in
    let graph =
      (* The slot's conflict graph on local indices 0..k-1.  Large
         slots go through the spatial index on a sub-linkset (local
         ids follow [members] order, so the vertices line up); small
         ones keep the direct scan, which is cheaper than building a
         grid. *)
      if k <= 128 then begin
        let g = Wa_graph.Graph.create k in
        for a = 0 to k - 1 do
          for b = a + 1 to k - 1 do
            if Conflict.conflicting p th ls members.(a) members.(b) then
              Wa_graph.Graph.add_edge g a b
          done
        done;
        g
      end
      else
        Conflict.graph ~engine:`Indexed p th
          (Wa_sinr.Linkset.of_array (Array.map (Linkset.link ls) members))
    in
    let order = Array.init k Fun.id in
    Array.sort
      (fun a b ->
        Float.compare
          (Linkset.length ls members.(b))
          (Linkset.length ls members.(a)))
      order;
    let coloring = Wa_graph.Coloring.greedy ~order graph in
    if coloring.Wa_graph.Coloring.classes <= 1 then
      (* No geometric separation found; tighten the threshold. *)
      split_slot ~gamma:(2.0 *. gamma) p ls mode slot
    else
      Array.to_list (Wa_graph.Coloring.classes coloring)
      |> List.concat_map (fun class_members ->
             let sub = List.map (fun a -> members.(a)) class_members in
             if slot_feasible ~quick:true p ls mode sub then [ sub ]
             else split_slot ~gamma p ls mode sub)
  end

(* Greedily merge the parts a split produced: the geometric pre-split
   can be coarser than necessary, and a cheap feasibility certificate
   per candidate merge wins those slots back.  [slot_feasible]'s
   row-sum screen does the heavy lifting here: most merge attempts
   fail its O(k) early bail-out, and a stalled full-size solver run
   per failure is what used to dominate repair. *)
let merge_parts p ls mode parts =
  List.fold_left
    (fun accepted part ->
      let rec try_merge acc = function
        | [] -> List.rev (part :: acc)
        | s :: rest ->
            let candidate = List.merge Int.compare s part in
            if slot_feasible ~quick:true p ls mode candidate then
              List.rev_append acc (candidate :: rest)
            else try_merge (s :: acc) rest
      in
      try_merge [] accepted)
    [] parts

let m_repair_added = Wa_obs.Metrics.counter "schedule.repair_added"
let m_repair_split = Wa_obs.Metrics.counter "schedule.repair_split_slots"

(* Single-pass repair-with-verification: every slot that survives
   untouched was just checked feasible, and every multi-link part of a
   split was accepted by the check that formed it (in [split_slot],
   [first_fit_split] or [merge_parts]), so the validity verdict falls
   out of the same pass instead of a second full [is_valid] sweep that
   re-solves every slot.  Only singletons can reach the result
   unchecked ([first_fit_split] opens one without a solve); their
   check is the O(1) noise-floor test, and it is the only way [valid]
   can be false: a link infeasible even alone. *)
let repair_validated p ls t =
  Wa_obs.Trace.with_span "schedule.repair" @@ fun () ->
  let before = length t in
  let split_count = ref 0 in
  let all_feasible = ref true in
  let slots =
    Array.to_list t.slots
    |> List.concat_map (fun slot ->
           (* The whole repair path runs the conservative [quick]
              decision: a slot the Collatz–Wielandt bounds cannot
              certify gets split rather than eliminated exactly, and
              everything accepted carries a CW certificate, so the
              fused verdict below implies [is_valid]'s exact one. *)
           if slot_feasible ~quick:true p ls t.power_mode slot then [ slot ]
           else begin
             incr split_count;
             let parts =
               Wa_obs.Trace.with_span "schedule.split" @@ fun () ->
               let pieces = split_slot p ls t.power_mode slot in
               Wa_obs.Trace.with_span "schedule.merge" @@ fun () ->
               merge_parts p ls t.power_mode pieces
             in
             List.iter
               (function
                 | [ _ ] as part when not (slot_feasible p ls t.power_mode part)
                   ->
                     all_feasible := false
                 | _ -> ())
               parts;
             parts
           end)
    |> List.filter (fun s -> not (List.is_empty s))
  in
  let repaired = { t with slots = Array.of_list slots } in
  let added = length repaired - before in
  if !split_count > 0 then begin
    (* The greedy coloring promised feasible slots and the physical
       model disagreed — worth surfacing, since the paper's constants
       are supposed to make this rare. *)
    Core_log.warn (fun m ->
        m
          "Schedule.repair: %d of %d slot(s) infeasible; split into \
           sub-slots, adding %d slot(s) (%d -> %d)"
          !split_count before added before (length repaired));
    Wa_obs.Metrics.add m_repair_split !split_count
  end;
  Wa_obs.Metrics.add m_repair_added added;
  (repaired, added, !all_feasible && covers repaired ls)

let repair p ls t =
  let repaired, added, _ = repair_validated p ls t in
  (repaired, added)

let reorder_for_latency tree ls t =
  let depth_of_link i =
    match Linkset.tree_child ls i with
    | Some child -> Wa_graph.Tree.depth tree child
    | None -> 0
  in
  let mean_depth slot =
    match slot with
    | [] -> 0.0
    | _ ->
        float_of_int (List.fold_left (fun acc i -> acc + depth_of_link i) 0 slot)
        /. float_of_int (List.length slot)
  in
  let keyed = Array.map (fun slot -> (mean_depth slot, slot)) t.slots in
  Array.sort (fun (a, _) (b, _) -> Float.compare b a) keyed;
  { t with slots = Array.map snd keyed }

let witness_power p ls t =
  match t.power_mode with
  | Scheme scheme ->
      if List.is_empty (infeasible_slots p ls t) then Some scheme else None
  | Arbitrary -> Power_solver.power_scheme p ls (Array.to_list t.slots)

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule: %d slots (rate %.4f)@," (length t) (rate t);
  Array.iteri
    (fun k slot ->
      Format.fprintf fmt "  slot %d: {%s}@," k
        (String.concat "," (List.map string_of_int slot)))
    t.slots;
  Format.fprintf fmt "@]"
