(* Runtime invariant auditor.

   Each check re-derives an invariant of a finished pipeline run from
   first principles — slot partitions recounted link by link, SINR
   re-verified against the physical model, trees re-walked to the
   sink, the indexed conflict graph diffed against the dense oracle —
   so a bug in the construction code cannot also hide the evidence.
   Checks are thunked: constructors capture only the data they need,
   and nothing runs until [run_checks].  The layer sits below wa_core
   on purpose; every check takes plain data (slot arrays, closures,
   graph/tree values), so wa_core's [Pipeline] can depend on it. *)

module Trace = Wa_obs.Trace
module Feasibility = Wa_sinr.Feasibility
module Graph = Wa_graph.Graph
module Tree = Wa_graph.Tree
module Json = Wa_util.Json

type violation = { check : string; subject : string; detail : string }

type check = { name : string; run : unit -> violation list }

type report = {
  checks : string list;
  violations : violation list;
  elapsed_ms : float;
}

let v ~check ~subject detail = { check; subject; detail }

let make_check name run = { name; run }

let ok r = List.is_empty r.violations

let run_checks checks =
  let violations, elapsed_ms =
    Trace.timed "audit.run" (fun () ->
        List.concat_map
          (fun c ->
            let vs, _ms =
              Trace.timed ("audit." ^ c.name) (fun () ->
                  try c.run ()
                  with e ->
                    [
                      v ~check:c.name ~subject:"<check body>"
                        ("raised " ^ Printexc.to_string e);
                    ])
            in
            vs)
          checks)
  in
  { checks = List.map (fun c -> c.name) checks; violations; elapsed_ms }

(* --- schedule checks ------------------------------------------------ *)

let partition_check ~n_links ~slots =
  let name = "schedule.partition" in
  make_check name (fun () ->
      let count = Array.make (Int.max n_links 1) 0 in
      let out = ref [] in
      Array.iteri
        (fun si slot ->
          List.iter
            (fun l ->
              if l < 0 || l >= n_links then
                out :=
                  v ~check:name
                    ~subject:(Format.asprintf "slot %d" si)
                    (Format.asprintf "link id %d outside [0, %d)" l n_links)
                  :: !out
              else count.(l) <- count.(l) + 1)
            slot)
        slots;
      for l = 0 to n_links - 1 do
        if count.(l) <> 1 then
          out :=
            v ~check:name
              ~subject:(Format.asprintf "link %d" l)
              (Format.asprintf "scheduled %d times (expected exactly once)"
                 count.(l))
            :: !out
      done;
      List.rev !out)

let sinr_check params ls ~power_of_slot ~slots =
  let name = "schedule.sinr" in
  make_check name (fun () ->
      let out = ref [] in
      Array.iteri
        (fun si slot ->
          if not (List.is_empty slot) then
            match power_of_slot slot with
            | None ->
                out :=
                  v ~check:name
                    ~subject:(Format.asprintf "slot %d" si)
                    "no feasible power witness for the slot"
                  :: !out
            | Some scheme -> (
                match Feasibility.check params ls ~power:scheme slot with
                | Feasibility.Feasible -> ()
                | Feasibility.Infeasible viols ->
                    List.iter
                      (fun (fv : Feasibility.violation) ->
                        out :=
                          v ~check:name
                            ~subject:(Format.asprintf "slot %d" si)
                            (Format.asprintf
                               "link %d achieves SINR %.6g < required %.6g"
                               fv.Feasibility.link fv.Feasibility.sinr
                               fv.Feasibility.required)
                          :: !out)
                      viols))
        slots;
      List.rev !out)

(* --- aggregation-tree check ----------------------------------------- *)

let tree_check tree =
  let name = "tree.rooted" in
  make_check name (fun () ->
      let n = Tree.size tree in
      let sink = Tree.sink tree in
      let out = ref [] in
      let fail subject detail = out := v ~check:name ~subject detail :: !out in
      (match Tree.parent tree sink with
      | None -> ()
      | Some p ->
          fail
            (Format.asprintf "sink %d" sink)
            (Format.asprintf "has a parent (%d); the sink must be the root" p));
      for u = 0 to n - 1 do
        if u <> sink then begin
          (match Tree.parent tree u with
          | None ->
              fail
                (Format.asprintf "node %d" u)
                "has no parent but is not the sink"
          | Some p ->
              if Tree.depth tree u <> Tree.depth tree p + 1 then
                fail
                  (Format.asprintf "node %d" u)
                  (Format.asprintf
                     "depth %d inconsistent with parent %d at depth %d"
                     (Tree.depth tree u) p (Tree.depth tree p)));
          (* Parent walk: must reach the sink within n-1 hops, else the
             parent pointers contain a cycle or escape the tree. *)
          let rec climb node hops =
            if node = sink then ()
            else if hops >= n then
              fail
                (Format.asprintf "node %d" u)
                "parent walk does not reach the sink (cycle in parent \
                 pointers)"
            else
              match Tree.parent tree node with
              | Some p -> climb p (hops + 1)
              | None ->
                  if node <> sink then
                    fail
                      (Format.asprintf "node %d" u)
                      (Format.asprintf "parent walk dead-ends at node %d" node)
          in
          climb u 0
        end
      done;
      let edges = List.length (Tree.directed_edges tree) in
      if edges <> n - 1 then
        fail "tree"
          (Format.asprintf "%d directed edges for %d nodes (expected %d)"
             edges n (n - 1));
      List.rev !out)

(* --- conflict-graph cross-check ------------------------------------- *)

let cmp_edge (a, b) (c, d) =
  match Int.compare a c with 0 -> Int.compare b d | r -> r

let max_listed_edges = 10

let graph_symmetry_check ~reference ~candidate =
  let name = "conflict.engines_agree" in
  make_check name (fun () ->
      let g_ref = reference () in
      let g_cand = candidate () in
      let out = ref [] in
      let nr = Graph.vertex_count g_ref and nc = Graph.vertex_count g_cand in
      if nr <> nc then
        out :=
          v ~check:name ~subject:"vertex count"
            (Format.asprintf "reference has %d vertices, candidate %d" nr nc)
          :: !out;
      let er = List.sort cmp_edge (Graph.edges g_ref) in
      let ec = List.sort cmp_edge (Graph.edges g_cand) in
      (* Merge-diff of the two sorted edge lists. *)
      let missing = ref [] and extra = ref [] in
      let rec diff xs ys =
        match (xs, ys) with
        | [], [] -> ()
        | x :: xs', [] ->
            missing := x :: !missing;
            diff xs' []
        | [], y :: ys' ->
            extra := y :: !extra;
            diff [] ys'
        | x :: xs', y :: ys' -> (
            match cmp_edge x y with
            | 0 -> diff xs' ys'
            | c when c < 0 ->
                missing := x :: !missing;
                diff xs' ys
            | _ ->
                extra := y :: !extra;
                diff xs ys')
      in
      diff er ec;
      let describe label edges =
        let edges = List.rev edges in
        let n = List.length edges in
        if n > 0 then begin
          let shown =
            List.filteri (fun i _ -> i < max_listed_edges) edges
            |> List.map (fun (a, b) -> Format.asprintf "(%d,%d)" a b)
            |> String.concat " "
          in
          let tail =
            if n > max_listed_edges then
              Format.asprintf " … and %d more" (n - max_listed_edges)
            else ""
          in
          out :=
            v ~check:name ~subject:label
              (Format.asprintf "%d edge(s): %s%s" n shown tail)
            :: !out
        end
      in
      describe "edges only in reference" !missing;
      describe "edges only in candidate" !extra;
      List.rev !out)

(* --- telemetry-report consistency ----------------------------------- *)

let report_consistency_check capture =
  let name = "metrics.consistency" in
  make_check name (fun () ->
      let r : Wa_obs.Report.t = capture () in
      let out = ref [] in
      let fail subject detail = out := v ~check:name ~subject detail :: !out in
      List.iter
        (fun (cname, value) ->
          if value < 0 then
            fail
              (Format.asprintf "counter %s" cname)
              (Format.asprintf "negative value %d" value))
        r.Wa_obs.Report.counters;
      List.iter
        (fun (hname, h) ->
          let subject = Format.asprintf "histogram %s" hname in
          let open Wa_obs.Metrics in
          let bucketed =
            List.fold_left (fun acc (_, _, c) -> acc + c) 0 h.filled
          in
          if h.count < 0 then
            fail subject (Format.asprintf "negative sample count %d" h.count);
          if h.count <> h.nonpositive_count + bucketed then
            fail subject
              (Format.asprintf
                 "count %d <> nonpositive %d + bucketed %d" h.count
                 h.nonpositive_count bucketed);
          if h.count > 0 && Float.compare h.min h.max > 0 then
            fail subject
              (Format.asprintf "min %g exceeds max %g with %d samples" h.min
                 h.max h.count);
          List.iter
            (fun (lo, hi, c) ->
              if c <= 0 then
                fail subject
                  (Format.asprintf "bucket [%g,%g) listed with count %d" lo hi
                     c);
              if Float.compare lo hi >= 0 then
                fail subject
                  (Format.asprintf "empty bucket bounds [%g,%g)" lo hi))
            h.filled)
        r.Wa_obs.Report.histograms;
      List.iter
        (fun (s : Trace.span) ->
          if Int64.compare s.Trace.dur_ns 0L < 0 then
            fail
              (Format.asprintf "span %s" s.Trace.name)
              (Format.asprintf "negative duration %Ldns" s.Trace.dur_ns);
          if s.Trace.depth < 0 then
            fail
              (Format.asprintf "span %s" s.Trace.name)
              (Format.asprintf "negative depth %d" s.Trace.depth))
        r.Wa_obs.Report.spans;
      List.rev !out)

(* --- report serialization & printing -------------------------------- *)

let violation_to_json x =
  Json.Obj
    [
      ("check", Json.String x.check);
      ("subject", Json.String x.subject);
      ("detail", Json.String x.detail);
    ]

let report_to_json r =
  Json.Obj
    [
      ("checks", Json.List (List.map (fun c -> Json.String c) r.checks));
      ("violations", Json.List (List.map violation_to_json r.violations));
      ("elapsed_ms", Json.Float r.elapsed_ms);
    ]

let pp_violation fmt x =
  Format.fprintf fmt "[%s] %s: %s" x.check x.subject x.detail

let pp_report fmt r =
  Format.fprintf fmt "audit: %d check(s), %d violation(s)"
    (List.length r.checks)
    (List.length r.violations);
  List.iter (fun x -> Format.fprintf fmt "@\n  %a" pp_violation x) r.violations
