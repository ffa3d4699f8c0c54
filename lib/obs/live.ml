(* Windowed view over the metrics registry.

   The registry's counters and histograms are cumulative — perfect for
   whole-run reports, useless for "what is the p99 right now" on a
   resident server.  [Live] fixes that without touching the update
   paths: a roll takes a registry snapshot and diffs it against the
   previous one, producing a *window* — per-counter deltas and
   per-histogram bucket-wise delta snapshots — pushed onto a bounded
   ring.  Queries merge the most recent windows back into one
   [hist_snapshot] and extract quantiles via {!Metrics.quantile}.

   Diffing snapshots (rather than maintaining separate windowed
   series) keeps the hot update paths exactly as cheap as before: a
   roll costs one registry snapshot per window tick, on whatever
   thread drives it (the server's event loop).

   Window extrema are approximated from the lowest/highest non-empty
   delta bucket — consistent with the dyadic accuracy of everything
   else here.  A {!Metrics.reset} between rolls makes cumulative
   values go backwards; deltas then fall back to the fresh cumulative
   value instead of going negative. *)

module M = Metrics

type window = {
  w_start_ns : int64;
  w_end_ns : int64;
  w_counters : (string * int) list;
  w_hists : (string * M.hist_snapshot) list;
}

type t = {
  capacity : int;
  mu : Mutex.t;
  mutable base_ns : int64; [@wa.guarded_by "Live.t.mu"]
  mutable base_counters : (string * int) list; [@wa.guarded_by "Live.t.mu"]
  mutable base_hists : (string * M.hist_snapshot) list;
      [@wa.guarded_by "Live.t.mu"]
  mutable windows : window list; [@wa.guarded_by "Live.t.mu"]
      (* newest first, length <= capacity *)
  mutable n_windows : int; [@wa.guarded_by "Live.t.mu"]
}

let empty_hist =
  {
    M.count = 0;
    sum = 0.0;
    min = infinity;
    max = neg_infinity;
    nonpositive_count = 0;
    filled = [];
  }

let snapshot_now () =
  let counters, _gauges, hists = M.snapshot () in
  (Runtime.now_ns (), counters, hists)

let create ?(windows = 60) () =
  let now, cs, hs = snapshot_now () in
  {
    capacity = Stdlib.max 1 windows;
    mu = Mutex.create ();
    base_ns = now;
    base_counters = cs;
    base_hists = hs;
    windows = [];
    n_windows = 0;
  }

(* Bucket [lo] bounds are exact powers of two, so float equality is a
   sound join key. *)
let bucket_count_at lo filled =
  match List.find_opt (fun (plo, _, _) -> Float.equal plo lo) filled with
  | Some (_, _, c) -> c
  | None -> 0

let hist_delta ~prev ~cur =
  if cur.M.count < prev.M.count then cur (* registry reset between rolls *)
  else begin
    let filled =
      List.filter_map
        (fun (lo, hi, c) ->
          let d = c - bucket_count_at lo prev.M.filled in
          if d > 0 then Some (lo, hi, d) else None)
        cur.M.filled
    in
    let min_, max_ =
      match filled with
      | [] -> (infinity, neg_infinity)
      | (lo, _, _) :: _ ->
          let rec last_hi = function
            | [ (_, hi, _) ] -> hi
            | _ :: rest -> last_hi rest
            | [] -> assert false
          in
          (lo, last_hi filled)
    in
    {
      M.count = cur.M.count - prev.M.count;
      sum = cur.M.sum -. prev.M.sum;
      min = min_;
      max = max_;
      nonpositive_count = cur.M.nonpositive_count - prev.M.nonpositive_count;
      filled;
    }
  end

let counter_deltas ~prev ~cur =
  List.filter_map
    (fun (name, v) ->
      let p = Option.value ~default:0 (List.assoc_opt name prev) in
      let d = if v < p then v else v - p in
      if d > 0 then Some (name, d) else None)
    cur

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let roll t =
  let now, cs, hs = snapshot_now () in
  Mutex.protect t.mu (fun () ->
      let w_counters = counter_deltas ~prev:t.base_counters ~cur:cs in
      let w_hists =
        List.filter_map
          (fun (name, cur) ->
            let prev =
              Option.value ~default:empty_hist
                (List.assoc_opt name t.base_hists)
            in
            let d = hist_delta ~prev ~cur in
            if d.M.count > 0 then Some (name, d) else None)
          hs
      in
      let w =
        { w_start_ns = t.base_ns; w_end_ns = now; w_counters; w_hists }
      in
      t.base_ns <- now;
      t.base_counters <- cs;
      t.base_hists <- hs;
      t.windows <- take t.capacity (w :: t.windows);
      t.n_windows <- Stdlib.min t.capacity (t.n_windows + 1))

let select ?last t =
  match last with
  | Some n when n < t.n_windows -> take (Stdlib.max 0 n) t.windows
  | _ -> t.windows

let window_count t = Mutex.protect t.mu (fun () -> t.n_windows)

let horizon_s ?last t =
  Mutex.protect t.mu (fun () ->
      match select ?last t with
      | [] -> 0.0
      | newest :: _ as ws ->
          let rec oldest = function
            | [ w ] -> w
            | _ :: rest -> oldest rest
            | [] -> assert false
          in
          Int64.to_float (Int64.sub newest.w_end_ns (oldest ws).w_start_ns)
          /. 1e9)

(* Bucket-wise sum of two sorted filled lists — a standard merge. *)
let merge_filled a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (alo, ahi, ac) :: arest, (blo, bhi, bc) :: brest ->
        if Float.equal alo blo then (alo, ahi, ac + bc) :: go arest brest
        else if alo < blo then (alo, ahi, ac) :: go arest b
        else (blo, bhi, bc) :: go a brest
  in
  go a b

let merge_hist a b =
  {
    M.count = a.M.count + b.M.count;
    sum = a.M.sum +. b.M.sum;
    min = Float.min a.M.min b.M.min;
    max = Float.max a.M.max b.M.max;
    nonpositive_count = a.M.nonpositive_count + b.M.nonpositive_count;
    filled = merge_filled a.M.filled b.M.filled;
  }

let merged_hist ?last t name =
  Mutex.protect t.mu (fun () ->
      List.fold_left
        (fun acc w ->
          match List.assoc_opt name w.w_hists with
          | None -> acc
          | Some h -> (
              match acc with
              | None -> Some h
              | Some a -> Some (merge_hist a h)))
        None (select ?last t))

type quantiles = {
  q_count : int;
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;
}

let quantiles ?last t name =
  match merged_hist ?last t name with
  | None -> None
  | Some h ->
      Some
        {
          q_count = h.M.count;
          q_p50 = M.quantile h 0.5;
          q_p90 = M.quantile h 0.9;
          q_p99 = M.quantile h 0.99;
          q_max = h.M.max;
        }

let counter_delta ?last t name =
  Mutex.protect t.mu (fun () ->
      List.fold_left
        (fun acc w ->
          acc + Option.value ~default:0 (List.assoc_opt name w.w_counters))
        0 (select ?last t))

let hist_names ?last t =
  Mutex.protect t.mu (fun () ->
      List.concat_map (fun w -> List.map fst w.w_hists) (select ?last t))
  |> List.sort_uniq String.compare

(* Runtime sampler: GC / heap / domain gauges, meant to be ticked from
   the same timer that drives [roll]. *)

let g_heap = lazy (M.gauge "runtime.heap_words")
let g_top_heap = lazy (M.gauge "runtime.top_heap_words")
let g_alloc = lazy (M.gauge "runtime.allocated_words")
let g_minor = lazy (M.gauge "runtime.minor_collections")
let g_major = lazy (M.gauge "runtime.major_collections")
let g_compact = lazy (M.gauge "runtime.compactions")
let g_stack = lazy (M.gauge "runtime.stack_words")
let g_domains = lazy (M.gauge "runtime.recommended_domains")

let sample_runtime () =
  let s = Gc.quick_stat () in
  M.set (Lazy.force g_heap) (float_of_int s.Gc.heap_words);
  M.set (Lazy.force g_top_heap) (float_of_int s.Gc.top_heap_words);
  M.set (Lazy.force g_alloc)
    (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words);
  M.set (Lazy.force g_minor) (float_of_int s.Gc.minor_collections);
  M.set (Lazy.force g_major) (float_of_int s.Gc.major_collections);
  M.set (Lazy.force g_compact) (float_of_int s.Gc.compactions);
  M.set (Lazy.force g_stack) (float_of_int s.Gc.stack_size);
  M.set (Lazy.force g_domains)
    (float_of_int (Domain.recommended_domain_count ()))
