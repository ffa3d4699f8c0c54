module Pool = Wa_util.Parallel.Pool
module Metrics = Wa_obs.Metrics
module P = Protocol
module E = Event_loop

type config = {
  host : string;
  port : int;  (** [0] binds an ephemeral port; see {!port}. *)
  name : string;  (** Shard name: gossip origin, error [shard] tag. *)
  workers : int option;
  queue_capacity : int;
  cache_entries : int;
  cache_bytes : int;
  max_sessions : int;
  max_line : int;
  window_s : float;
  windows : int;
  prom_out : string option;
  prom_interval_s : float;
  peers : (string * int) list;
      (** Gossip neighbors ([host, port]); [] disables gossip. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7461;
    name = "";
    workers = None;
    queue_capacity = 128;
    cache_entries = 128;
    cache_bytes = 256 * 1024 * 1024;
    max_sessions = 64;
    max_line = 8 * 1024 * 1024;
    window_s = 1.0;
    windows = 60;
    prom_out = None;
    prom_interval_s = 5.0;
    peers = [];
  }

type conn = {
  ep : E.endpoint;
  mutable pending : int; [@wa.guarded_by "Server.t.state_mu"]
      (** Accepted requests not yet replied to. *)
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  engine : Engine.t;
  pool : Pool.t;
  gossip : Gossip.t;
  state_mu : Mutex.t;
  mutable conns : conn list;  (** Event-loop-confined. *)
  mutable draining : bool; [@wa.guarded_by "Server.t.state_mu"]
  mutable stop_requested : bool; [@wa.guarded_by "Server.t.state_mu"]
  mutable shutdown_reply : (conn * int) option;
      [@wa.guarded_by "Server.t.state_mu"]
  mutable n_requests : int; [@wa.guarded_by "Server.t.state_mu"]
  mutable n_responses : int; [@wa.guarded_by "Server.t.state_mu"]
  mutable n_overloaded : int; [@wa.guarded_by "Server.t.state_mu"]
  mutable n_deadline_misses : int; [@wa.guarded_by "Server.t.state_mu"]
  mutable inflight_peak : int; [@wa.guarded_by "Server.t.state_mu"]
  c_requests : Metrics.counter;
  c_responses : Metrics.counter;
  c_overloaded : Metrics.counter;
  c_deadline_misses : Metrics.counter;
  c_fast_hits : Metrics.counter;
  g_queue_depth : Metrics.gauge;
  g_inflight_peak : Metrics.gauge;
  h_request_ms : Metrics.histogram;
  (* Live telemetry: per-op rolling histograms (created lazily on
     first use of each op, guarded by [state_mu]), the window ring,
     and a rolling top-slowest exemplar list (ms-descending, bounded,
     entries expire with the live horizon). *)
  started : float;
  live : Wa_obs.Live.t;
  op_hists : (string, Metrics.histogram) Hashtbl.t;
      [@wa.guarded_by "Server.t.state_mu"]
  mutable exemplars : (string * int * float * float) list;
      [@wa.guarded_by "Server.t.state_mu"]
      (* (op, id, ms, wall-clock time observed) *)
  mutable last_roll : float;  (* event-loop-confined *)
  mutable last_prom : float;  (* event-loop-confined *)
}

let max_exemplars = 8

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let create config =
  (* A resident server is observable by design: telemetry is on from
     the start, so traced requests, the live window ring and the
     Prometheus exposition all work without any CLI verbosity flag. *)
  Wa_obs.enable ();
  (* A dead peer must surface as a write error on its connection, not
     kill the whole server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = E.listen ~host:config.host ~port:config.port in
  let engine =
    Engine.create ~cache_entries:config.cache_entries
      ~cache_bytes:config.cache_bytes ~max_sessions:config.max_sessions ()
  in
  let gossip = Gossip.create ~origin:config.name ~peers:config.peers in
  (* Gossip taps: fills advertise, capacity evictions retract.  Both
     fire on worker domains and only touch the sender's bounded queue
     (drop-on-full), so they never slow the compute path. *)
  Engine.set_gossip engine
    ~on_fill:(fun key -> Gossip.push gossip ~invalidate:false [ key ])
    ~on_invalidate:(fun keys -> Gossip.push gossip ~invalidate:true keys);
  {
    config;
    listen_fd;
    engine;
    pool =
      Pool.create ?workers:config.workers
        ~queue_capacity:config.queue_capacity ();
    gossip;
    state_mu = Mutex.create ();
    conns = [];
    draining = false;
    stop_requested = false;
    shutdown_reply = None;
    n_requests = 0;
    n_responses = 0;
    n_overloaded = 0;
    n_deadline_misses = 0;
    inflight_peak = 0;
    c_requests = Metrics.counter "service.requests";
    c_responses = Metrics.counter "service.responses";
    c_overloaded = Metrics.counter "service.overloaded";
    c_deadline_misses = Metrics.counter "service.deadline_misses";
    c_fast_hits = Metrics.counter "service.fast_hits";
    g_queue_depth = Metrics.gauge "service.queue_depth";
    g_inflight_peak = Metrics.gauge "service.inflight_peak";
    h_request_ms = Metrics.histogram "service.request_ms";
    started = Unix.gettimeofday ();
    live = Wa_obs.Live.create ~windows:config.windows ();
    op_hists = Hashtbl.create 16;
    exemplars = [];
    last_roll = Unix.gettimeofday ();
    last_prom = Unix.gettimeofday ();
  }

let port t = E.bound_port ~fallback:t.config.port t.listen_fd

let stop t = locked t.state_mu (fun () -> t.stop_requested <- true)

(* Response writing: workers and the event loop both call this, so one
   whole line is written and flushed under the connection's lock. *)
let send t conn resp =
  ignore (E.send_json conn.ep (P.encode_response resp) : bool);
  locked t.state_mu (fun () -> t.n_responses <- t.n_responses + 1);
  Metrics.incr t.c_responses

(* Fast-path variant: a prebuilt line, flush deferred to the end of
   the readable batch (the loop flushes after [handle_readable]). *)
let send_raw_nf t conn line =
  ignore (E.send_line_nf conn.ep line : bool);
  locked t.state_mu (fun () -> t.n_responses <- t.n_responses + 1);
  Metrics.incr t.c_responses

let request_done t conn =
  locked t.state_mu (fun () -> conn.pending <- conn.pending - 1)

(* Per-op rolling latency series, created on first use of each op. *)
let op_hist t op =
  locked t.state_mu (fun () ->
      match Hashtbl.find_opt t.op_hists op with
      | Some h -> h
      | None ->
          let h = Metrics.histogram ("service.op_ms." ^ op) in
          Hashtbl.add t.op_hists op h;
          h)

let observe_request t ~op ~id ms =
  Metrics.observe t.h_request_ms ms;
  Metrics.observe (op_hist t op) ms;
  let now = Unix.gettimeofday () in
  locked t.state_mu (fun () ->
      let xs = (op, id, ms, now) :: t.exemplars in
      let xs =
        List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a) xs
      in
      t.exemplars <- List.filteri (fun i _ -> i < max_exemplars) xs)

(* Wire form of one request's captured spans: start times rebased to
   the first span, depths to the outermost captured span. *)
let trace_of_spans (spans : Wa_obs.Trace.span list) =
  match spans with
  | [] -> None
  | first :: _ ->
      let t0 = first.Wa_obs.Trace.start_ns in
      let min_depth =
        List.fold_left
          (fun acc (s : Wa_obs.Trace.span) -> Stdlib.min acc s.Wa_obs.Trace.depth)
          max_int spans
      in
      Some
        (List.map
           (fun (s : Wa_obs.Trace.span) ->
             {
               P.t_name = s.Wa_obs.Trace.name;
               t_start_ns = Int64.to_int (Int64.sub s.Wa_obs.Trace.start_ns t0);
               t_dur_ns = Int64.to_int s.Wa_obs.Trace.dur_ns;
               t_depth = s.Wa_obs.Trace.depth - min_depth;
             })
           spans)

(* The pool job for one accepted request. *)
let job t conn (r : P.request) ~arrival () =
  Fun.protect
    ~finally:(fun () -> request_done t conn)
    (fun () ->
      Wa_obs.Trace.with_span "service.request" (fun () ->
          let overdue =
            match r.P.deadline_ms with
            | None -> false
            | Some budget ->
                (Unix.gettimeofday () -. arrival) *. 1000.0 > budget
          in
          let resp =
            if overdue then begin
              locked t.state_mu (fun () ->
                  t.n_deadline_misses <- t.n_deadline_misses + 1);
              Metrics.incr t.c_deadline_misses;
              P.error ~id:r.P.id P.Deadline_exceeded
                "deadline expired before the request left the queue"
            end
            else if r.P.trace then begin
              let body, spans =
                Wa_obs.Trace.with_collector (fun () ->
                    Engine.handle t.engine r.P.body)
              in
              { P.rid = r.P.id; body; rtrace = trace_of_spans spans }
            end
            else
              {
                P.rid = r.P.id;
                body = Engine.handle t.engine r.P.body;
                rtrace = None;
              }
          in
          send t conn resp;
          observe_request t ~op:(P.op_name r.P.body) ~id:r.P.id
            ((Unix.gettimeofday () -. arrival) *. 1000.0)))

let stats_summary t : P.stats_summary =
  let cache = Engine.cache_summary t.engine in
  let sessions = Engine.session_count t.engine in
  let workers = Pool.workers t.pool in
  let queue_depth = Pool.queue_depth t.pool in
  let in_flight = Pool.in_flight t.pool in
  locked t.state_mu (fun () ->
      {
        P.st_requests = t.n_requests;
        st_responses = t.n_responses;
        st_overloaded = t.n_overloaded;
        st_deadline_misses = t.n_deadline_misses;
        st_inflight_peak = t.inflight_peak;
        st_draining = t.draining;
        st_workers = workers;
        st_queue_depth = queue_depth;
        st_queue_capacity = t.config.queue_capacity;
        st_in_flight = in_flight;
        st_cache = cache;
        st_sessions = sessions;
      })

let stats_response t ~id =
  { P.rid = id; body = P.Stats_r (stats_summary t); rtrace = None }

let telemetry_summary t : P.telemetry_summary =
  let live = t.live in
  let ops =
    Wa_obs.Live.hist_names live
    |> List.filter_map (fun name ->
           let prefix = "service.op_ms." in
           let pl = String.length prefix in
           if String.length name > pl && String.sub name 0 pl = prefix then
             Option.map
               (fun (q : Wa_obs.Live.quantiles) ->
                 {
                   P.ol_op = String.sub name pl (String.length name - pl);
                   ol_count = q.Wa_obs.Live.q_count;
                   ol_p50_ms = q.Wa_obs.Live.q_p50;
                   ol_p90_ms = q.Wa_obs.Live.q_p90;
                   ol_p99_ms = q.Wa_obs.Live.q_p99;
                   ol_max_ms = q.Wa_obs.Live.q_max;
                 })
               (Wa_obs.Live.quantiles live name)
           else None)
  in
  let horizon = Wa_obs.Live.horizon_s live in
  let exemplars =
    locked t.state_mu (fun () -> t.exemplars)
    |> List.map (fun (op, id, ms, _) -> { P.ex_op = op; ex_id = id; ex_ms = ms })
  in
  let gc = Gc.quick_stat () in
  {
    P.tel_uptime_s = Unix.gettimeofday () -. t.started;
    tel_window_s = horizon;
    tel_windows = Wa_obs.Live.window_count live;
    tel_in_flight = Pool.in_flight t.pool;
    tel_queue_depth = Pool.queue_depth t.pool;
    tel_ops = ops;
    tel_cache = Engine.cache_summary t.engine;
    tel_sessions = Engine.session_count t.engine;
    tel_exemplars = exemplars;
    tel_gc =
      {
        P.gc_heap_words = gc.Gc.heap_words;
        gc_minor_collections = gc.Gc.minor_collections;
        gc_major_collections = gc.Gc.major_collections;
        gc_compactions = gc.Gc.compactions;
      };
    tel_fleet = None;
  }

let telemetry_response t ~id =
  { P.rid = id; body = P.Telemetry_r (telemetry_summary t); rtrace = None }

(* Hand one decoded request to the worker pool, with backpressure. *)
let submit_request t conn (r : P.request) =
  let arrival = Unix.gettimeofday () in
  locked t.state_mu (fun () -> conn.pending <- conn.pending + 1);
  match Pool.submit t.pool (job t conn r ~arrival) with
  | `Queued ->
      let inflight = Pool.in_flight t.pool in
      locked t.state_mu (fun () ->
          if inflight > t.inflight_peak then t.inflight_peak <- inflight);
      Metrics.set_max t.g_inflight_peak (float_of_int inflight)
  | `Rejected ->
      request_done t conn;
      locked t.state_mu (fun () -> t.n_overloaded <- t.n_overloaded + 1);
      Metrics.incr t.c_overloaded;
      send t conn
        (P.error ~id:r.P.id P.Overloaded "request queue at capacity, retry later")
  | `Stopping ->
      request_done t conn;
      send t conn (P.error ~id:r.P.id P.Shutting_down "server is draining")

(* One complete request line. *)
let handle_line t conn line =
  if String.trim line <> "" then begin
    locked t.state_mu (fun () -> t.n_requests <- t.n_requests + 1);
    Metrics.incr t.c_requests;
    match P.request_of_line line with
    | Error msg -> send t conn (P.undecodable ~line msg)
    | Ok r -> (
        let draining = locked t.state_mu (fun () -> t.draining) in
        match r.P.body with
        | _ when draining ->
            send t conn
              (P.error ~id:r.P.id P.Shutting_down "server is draining")
        | P.Stats -> send t conn (stats_response t ~id:r.P.id)
        | P.Telemetry ->
            (* Answered inline on the event loop, like [Stats]: a
               scrape never competes with compute jobs for the worker
               pool, so monitoring keeps working — and never drops —
               when the queue is full. *)
            send t conn (telemetry_response t ~id:r.P.id)
        | P.Cache_peek { key } ->
            (* Lock-bounded, compute-free: inline, like [Stats]. *)
            send t conn
              { P.rid = r.P.id; body = Engine.peek t.engine key; rtrace = None }
        | P.Cache_advertise { origin; invalidate; keys } ->
            send t conn
              {
                P.rid = r.P.id;
                body = Engine.advertise t.engine ~origin ~invalidate keys;
                rtrace = None;
              }
        | P.Shutdown ->
            locked t.state_mu (fun () ->
                t.draining <- true;
                t.shutdown_reply <- Some (conn, r.P.id))
        | P.Plan spec when not r.P.trace -> (
            match Engine.cached_plan_line t.engine spec ~id:r.P.id with
            | Some line ->
                (* Warm hit: answer inline from the memoized line — no
                   queueing, no worker handoff, flush deferred to the
                   end of this readable batch. *)
                send_raw_nf t conn line;
                Metrics.incr t.c_fast_hits;
                observe_request t ~op:"plan" ~id:r.P.id 0.0;
                ()
            | None -> submit_request t conn r)
        | _ -> submit_request t conn r)
  end

(* The event-loop roots below are annotated [@@wa.event_loop]:
   wa_check certifies, over transitive whole-program summaries, that
   no blocking primitive is reachable from them outside closures
   deferred to the pool — the static form of the "scrapes never queue
   behind compute" invariant (telemetry is answered inline, so a
   blocked loop is a dropped scrape). *)
let[@wa.event_loop] handle_readable t conn =
  E.handle_readable ~max_line:t.config.max_line
    ~on_line:(fun _ line -> handle_line t conn line)
    ~on_overflow:(fun _ ->
      send t conn
        (P.error ~id:0 P.Bad_request
           (Printf.sprintf "request line exceeds %d bytes" t.config.max_line)))
    conn.ep;
  (* One flush covers every fast-path line of this readable batch. *)
  E.flush_now conn.ep

let[@wa.event_loop] accept_conn t =
  match E.accept ~listen_fd:t.listen_fd ~greeting:P.greeting_line with
  | Some ep -> t.conns <- { ep; pending = 0 } :: t.conns
  | None -> ()

(* Reap connections that are gone and have no replies outstanding. *)
let[@wa.event_loop] reap t =
  let gone, live =
    List.partition
      (fun c ->
        (E.eof c.ep || not (E.alive c.ep))
        && locked t.state_mu (fun () -> c.pending = 0))
      t.conns
  in
  List.iter (fun c -> E.close c.ep) gone;
  t.conns <- live

(* Periodic event-loop work: advance the live window ring (plus the
   runtime gauges feeding it), expire exemplars that fell out of the
   horizon, prune the global span list — a resident server would
   otherwise accumulate one span per request forever (per-request
   spans are delivered through traced responses and the live series,
   not the global list) — and dump the Prometheus exposition. *)
let[@wa.event_loop] tick t =
  let now = Unix.gettimeofday () in
  if now -. t.last_roll >= t.config.window_s then begin
    t.last_roll <- now;
    Wa_obs.Live.sample_runtime ();
    Wa_obs.Live.roll t.live;
    Wa_obs.Trace.reset ();
    let horizon = t.config.window_s *. float_of_int t.config.windows in
    locked t.state_mu (fun () ->
        t.exemplars <-
          List.filter (fun (_, _, _, at) -> now -. at <= horizon) t.exemplars)
  end;
  match t.config.prom_out with
  | Some path when now -. t.last_prom >= t.config.prom_interval_s ->
      t.last_prom <- now;
      (try
         Wa_obs.Export.write_prometheus path (Wa_obs.Report.capture_metrics ())
       with Sys_error _ -> ())
  | _ -> ()

let finish t =
  (* Stop reading, let every accepted request run to completion and
     its reply reach the wire, then answer the shutdown request
     itself, close everything and join the workers. *)
  Wa_obs.Trace.with_span "service.drain" (fun () -> Pool.drain t.pool);
  (match locked t.state_mu (fun () -> t.shutdown_reply) with
  | Some (conn, id) ->
      send t conn { P.rid = id; body = P.Shutdown_ok; rtrace = None }
  | None -> ());
  Session.close_all (Engine.sessions t.engine);
  List.iter (fun c -> E.close c.ep) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Gossip.stop t.gossip;
  Pool.shutdown t.pool

let run t =
  let finished = ref false in
  while not !finished do
    let stop_now =
      locked t.state_mu (fun () -> t.stop_requested || t.draining)
    in
    if stop_now then finished := true
    else begin
      reap t;
      let read_fds =
        t.listen_fd
        :: List.filter_map
             (fun c -> if E.eof c.ep then None else Some (E.fd c.ep))
             t.conns
      in
      List.iter
        (fun fd ->
          if fd = t.listen_fd then accept_conn t
          else
            match List.find_opt (fun c -> E.fd c.ep = fd) t.conns with
            | Some conn -> handle_readable t conn
            | None -> ())
        (E.wait_readable read_fds 0.1);
      Metrics.set t.g_queue_depth (float_of_int (Pool.queue_depth t.pool));
      tick t
    end
  done;
  finish t

let summary t =
  locked t.state_mu (fun () ->
      Printf.sprintf
        "served %d request(s): %d response(s), %d overloaded, %d deadline \
         miss(es), peak in-flight %d"
        t.n_requests t.n_responses t.n_overloaded t.n_deadline_misses
        t.inflight_peak)
