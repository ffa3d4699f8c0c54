module Json = Wa_util.Json

type t = {
  spans : Trace.span list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Metrics.hist_snapshot) list;
}

let capture () =
  let counters, gauges, histograms = Metrics.snapshot () in
  { spans = Trace.spans (); counters; gauges; histograms }

(* Metrics only — no span flush/merge.  A resident server exporting
   Prometheus text every few seconds wants the registry without
   touching (or retaining) the ever-growing span list. *)
let capture_metrics () =
  let counters, gauges, histograms = Metrics.snapshot () in
  { spans = []; counters; gauges; histograms }

let empty = { spans = []; counters = []; gauges = []; histograms = [] }

let find_spans t name = List.filter (fun s -> s.Trace.name = name) t.spans

let has_span t name = not (List.is_empty (find_spans t name))

let span_names t =
  List.sort_uniq String.compare (List.map (fun s -> s.Trace.name) t.spans)

let span_ms t name =
  match find_spans t name with
  | [] -> None
  | spans ->
      Some (List.fold_left (fun acc s -> acc +. Trace.ms_of s) 0.0 spans)

let counter_value t name = List.assoc_opt name t.counters
let gauge_value t name = List.assoc_opt name t.gauges

(* JSON --------------------------------------------------------------- *)

let span_to_json (s : Trace.span) =
  Json.Obj
    [
      ("type", Json.String "span");
      ("name", Json.String s.Trace.name);
      ("start_ns", Json.Int (Int64.to_int s.Trace.start_ns));
      ("dur_ns", Json.Int (Int64.to_int s.Trace.dur_ns));
      ("depth", Json.Int s.Trace.depth);
      ("domain", Json.Int s.Trace.domain);
    ]

let hist_to_json (h : Metrics.hist_snapshot) =
  Json.Obj
    [
      ("count", Json.Int h.Metrics.count);
      ("sum", Json.Float h.Metrics.sum);
      ( "min",
        if h.Metrics.count = 0 then Json.Null else Json.Float h.Metrics.min );
      ( "max",
        if h.Metrics.count = 0 then Json.Null else Json.Float h.Metrics.max );
      ("nonpositive", Json.Int h.Metrics.nonpositive_count);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.Obj
                 [
                   ("lo", Json.Float lo);
                   ("hi", Json.Float hi);
                   ("count", Json.Int c);
                 ])
             h.Metrics.filled) );
    ]

let metrics_to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) t.counters) );
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) t.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, hist_to_json h)) t.histograms) );
      ("spans_recorded", Json.Int (List.length t.spans));
    ]

(* Human summary ------------------------------------------------------ *)

let pp fmt t =
  Format.fprintf fmt "@[<v>telemetry report: %d spans, %d counters, %d \
                      gauges, %d histograms@,"
    (List.length t.spans) (List.length t.counters) (List.length t.gauges)
    (List.length t.histograms);
  if not (List.is_empty t.spans) then begin
    (* Total time per span name, widest first. *)
    let totals = Hashtbl.create 16 in
    List.iter
      (fun (s : Trace.span) ->
        let ms, n =
          Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals s.Trace.name)
        in
        Hashtbl.replace totals s.Trace.name (ms +. Trace.ms_of s, n + 1))
      t.spans;
    let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] in
    let rows =
      List.sort (fun (_, (a, _)) (_, (b, _)) -> Float.compare b a) rows
    in
    Format.fprintf fmt "spans (total ms | calls):@,";
    List.iter
      (fun (name, (ms, n)) ->
        Format.fprintf fmt "  %-28s %10.3f | %d@," name ms n)
      rows
  end;
  if not (List.is_empty t.counters) then begin
    Format.fprintf fmt "counters:@,";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "  %-28s %d@," n v)
      t.counters
  end;
  if not (List.is_empty t.gauges) then begin
    Format.fprintf fmt "gauges:@,";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-28s %g@," n v) t.gauges
  end;
  if not (List.is_empty t.histograms) then begin
    Format.fprintf fmt "histograms (count / mean / p50 / p99 / max):@,";
    List.iter
      (fun (n, (h : Metrics.hist_snapshot)) ->
        if h.Metrics.count = 0 then Format.fprintf fmt "  %-28s empty@," n
        else
          Format.fprintf fmt "  %-28s %d / %g / %g / %g / %g@," n
            h.Metrics.count (Metrics.hist_mean h) (Metrics.quantile h 0.5)
            (Metrics.quantile h 0.99) h.Metrics.max)
      t.histograms
  end;
  Format.fprintf fmt "@]"
