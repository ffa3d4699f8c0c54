module P = Wa_service.Protocol
module E = Wa_service.Event_loop
module Engine = Wa_service.Engine
module Metrics = Wa_obs.Metrics

(* The fleet front tier: a single-domain select-loop proxy that
   consistent-hashes each request's canonical spec digest onto the
   backend ring, speaks the ordinary JSON-lines protocol on both
   sides, and keeps the id spaces separate by remapping every
   forwarded request onto a router-assigned id.

   Concurrency discipline (DESIGN.md §16): everything here is
   event-loop-confined except (a) [stop]/[draining] under [state_mu],
   and (b) the dialer mailbox under [dial_mu] — outbound connects
   block (TCP handshake + greeting), so a dedicated dialer thread
   performs them and the loop only ever picks up finished results.
   The loop roots are annotated [@wa.event_loop]; wa_check certifies
   they reach no blocking primitive. *)

type backend_addr = { a_name : string; a_host : string; a_port : int }

type config = {
  host : string;
  port : int;
  backends : backend_addr list;
  vnodes : int;
  probe_interval_s : float;
  probe_timeout_s : float;
  request_timeout_s : float;
  fail_threshold : int;
      (* Consecutive failures before a backend is circuit-broken. *)
  max_attempts : int;  (* Per request, across reroutes. *)
  peek_on_reroute : bool;
  max_line : int;
  window_s : float;
  windows : int;
  prom_out : string option;
  prom_interval_s : float;
}

let default_config ~backends =
  {
    host = "127.0.0.1";
    port = 7460;
    backends;
    vnodes = Ring.default_vnodes;
    probe_interval_s = 1.0;
    probe_timeout_s = 2.0;
    request_timeout_s = 30.0;
    fail_threshold = 3;
    max_attempts = 3;
    peek_on_reroute = true;
    max_line = 8 * 1024 * 1024;
    window_s = 1.0;
    windows = 60;
    prom_out = None;
    prom_interval_s = 5.0;
  }

type backend = {
  b_name : string;
  b_host : string;
  b_port : int;
  (* All mutable backend state below is event-loop-confined. *)
  mutable b_ep : E.endpoint option;
  mutable b_healthy : bool;
  mutable b_draining : bool;
  mutable b_dialing : bool;
  mutable b_next_dial : float;
  mutable b_dial_backoff : float;
  mutable b_probe_out : bool;
  mutable b_consec_failures : int;
  mutable b_requests : int;
  mutable b_failures : int;
  mutable b_inflight : int;
  mutable b_queue_depth : int;
  mutable b_hit_ratio : float;
  b_hist : Metrics.histogram;  (* router-side latency per shard *)
  b_g_healthy : Metrics.gauge;
  b_g_queue : Metrics.gauge;
  b_g_hit : Metrics.gauge;
}

type conn = {
  c_ep : E.endpoint;
  mutable c_pending : int;  (* replies owed; event-loop-confined *)
}

(* One client request travelling through the router.  [cr_tail] is the
   request line after the id digits when the line had the canonical
   [{"v":1,"id":N,...] prefix — forwards and resends then splice a
   fresh id in front instead of re-encoding; [cr_req] is the decoded
   form, absent only on memo fast-path hits (always plan-like). *)
type creq = {
  cr_conn : conn;
  cr_orig_id : int;
  cr_tail : string option;
  cr_req : P.request option;
  cr_class : op_class;
  cr_key : string option;  (* routing key (spec digest) *)
  cr_started : float;
  mutable cr_attempts : int;
}

and op_class =
  | Plan_like  (* idempotent, key-routed: plan / describe / simulate *)
  | Peek_forward  (* a client-originated cache_peek; also idempotent *)
  | Churn_create_op
  | Churn_session of int  (* the router-side session id *)

type fanout_kind = Fan_stats | Fan_telemetry | Fan_advertise

type fanout = {
  fo_conn : conn;
  fo_orig_id : int;
  fo_kind : fanout_kind;
  mutable fo_awaiting : int;
  mutable fo_stats : P.stats_summary list;
  mutable fo_tels : P.telemetry_summary list;
  mutable fo_accepted : int;
}

(* Warm-replica search during a reroute: peek survivors one at a time
   (bounded), then fall through to plain failover routing. *)
type peek_chain = {
  pk_creq : creq;
  mutable pk_remaining : backend list;
  mutable pk_current : backend;
}

type entry =
  | Client_req of creq * backend
  | Probe of backend * float  (* sent at *)
  | Peek of peek_chain * float
  | Fanout_part of fanout * backend * float

(* [m_home] caches the ring lookup: membership is fixed for the
   router's lifetime, so the arc owner for a key never changes — only
   its health does, which the [routable] check at use time covers.
   Skipping the per-request digest hash keeps the memo fast path free
   of MD5 entirely. *)
type memo_entry = { m_key : string; m_home : backend option }

(* Backends allocate churn session ids independently, so the router
   hands clients its own id space and translates at the boundary. *)
type session_map = { sm_backend : string; sm_backend_sid : int }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  backends : backend list;
  ring : Ring.t;
  state_mu : Mutex.t;
  mutable stop_requested : bool; [@wa.guarded_by "Router.t.state_mu"]
  mutable draining : bool; [@wa.guarded_by "Router.t.state_mu"]
  (* Dialer mailbox: the loop posts dial orders, the dialer thread
     posts finished endpoints back. *)
  dial_mu : Mutex.t;
  dial_cond : Condition.t;
  mutable dial_orders : backend list; [@wa.guarded_by "Router.t.dial_mu"]
  mutable dial_done : (backend * (E.endpoint, string) result) list;
      [@wa.guarded_by "Router.t.dial_mu"]
  mutable dial_stop : bool; [@wa.guarded_by "Router.t.dial_mu"]
  mutable dialer : Thread.t option;
  (* Everything below is event-loop-confined. *)
  mutable conns : conn list;
  mutable shutdown_reply : (conn * int) option;
  pending : (int, entry) Hashtbl.t;
  mutable next_rid : int;
  memo : (string, memo_entry) Hashtbl.t;  (* request-line tail -> route *)
  hints : (string, string) Hashtbl.t;  (* key -> backend (peek gossip) *)
  sessions : (int, session_map) Hashtbl.t;  (* router sid -> backend sid *)
  mutable next_sid : int;
  mutable n_requests : int;
  mutable n_responses : int;
  mutable n_rerouted : int;
  mutable n_peek_hits : int;
  mutable last_probe : float;
  mutable last_scan : float;
  mutable last_roll : float;
  mutable last_prom : float;
  live : Wa_obs.Live.t;
  c_requests : Metrics.counter;
  c_responses : Metrics.counter;
  c_rerouted : Metrics.counter;
  c_peek_hits : Metrics.counter;
}

let memo_bound = 8192
let hint_bound = 4096
let max_dial_backoff = 8.0
let initial_dial_backoff = 0.25

(* The dialer thread: pop an order, perform the blocking connect +
   greeting exchange, post the result back.  The whole reason this
   runs off the loop. *)
let dialer_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.dial_mu;
    while List.is_empty t.dial_orders && not t.dial_stop do
      Condition.wait t.dial_cond t.dial_mu
    done;
    if t.dial_stop then begin
      running := false;
      Mutex.unlock t.dial_mu
    end
    else begin
      let order = List.hd t.dial_orders in
      t.dial_orders <- List.tl t.dial_orders;
      Mutex.unlock t.dial_mu;
      let res = E.connect ~host:order.b_host ~port:order.b_port in
      Mutex.lock t.dial_mu;
      t.dial_done <- (order, res) :: t.dial_done;
      Mutex.unlock t.dial_mu
    end
  done

let create (config : config) =
  Wa_obs.enable ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if List.is_empty config.backends then
    invalid_arg "Router.create: no backends";
  let listen_fd = E.listen ~host:config.host ~port:config.port in
  let backends =
    List.map
      (fun a ->
        {
          b_name = a.a_name;
          b_host = a.a_host;
          b_port = a.a_port;
          b_ep = None;
          b_healthy = false;
          b_draining = false;
          b_dialing = false;
          b_next_dial = 0.0;
          b_dial_backoff = initial_dial_backoff;
          b_probe_out = false;
          b_consec_failures = 0;
          b_requests = 0;
          b_failures = 0;
          b_inflight = 0;
          b_queue_depth = 0;
          b_hit_ratio = Float.nan;
          b_hist = Metrics.histogram ("fleet.be_ms." ^ a.a_name);
          b_g_healthy = Metrics.gauge ("fleet.be." ^ a.a_name ^ ".healthy");
          b_g_queue = Metrics.gauge ("fleet.be." ^ a.a_name ^ ".queue_depth");
          b_g_hit = Metrics.gauge ("fleet.be." ^ a.a_name ^ ".hit_ratio");
        })
      config.backends
  in
  let now = Unix.gettimeofday () in
  let t =
    {
      config;
      listen_fd;
      backends;
      ring =
        Ring.create ~vnodes:config.vnodes
          (List.map (fun a -> a.a_name) config.backends);
      state_mu = Mutex.create ();
      stop_requested = false;
      draining = false;
      dial_mu = Mutex.create ();
      dial_cond = Condition.create ();
      dial_orders = [];
      dial_done = [];
      dial_stop = false;
      dialer = None;
      conns = [];
      shutdown_reply = None;
      pending = Hashtbl.create 256;
      next_rid = 1;
      memo = Hashtbl.create 1024;
      hints = Hashtbl.create 256;
      sessions = Hashtbl.create 16;
      next_sid = 1;
      n_requests = 0;
      n_responses = 0;
      n_rerouted = 0;
      n_peek_hits = 0;
      last_probe = 0.0;
      last_scan = now;
      last_roll = now;
      last_prom = now;
      live = Wa_obs.Live.create ~windows:config.windows ();
      c_requests = Metrics.counter "fleet.requests";
      c_responses = Metrics.counter "fleet.responses";
      c_rerouted = Metrics.counter "fleet.rerouted";
      c_peek_hits = Metrics.counter "fleet.peek_hits";
    }
  in
  t.dialer <- Some (Thread.create (fun () -> dialer_loop t) ());
  t

let port t = E.bound_port ~fallback:t.config.port t.listen_fd

let stop t =
  Mutex.lock t.state_mu;
  t.stop_requested <- true;
  Mutex.unlock t.state_mu

let request_dial t b =
  if (not b.b_dialing) && b.b_ep = None then begin
    b.b_dialing <- true;
    Mutex.lock t.dial_mu;
    t.dial_orders <- t.dial_orders @ [ b ];
    Condition.signal t.dial_cond;
    Mutex.unlock t.dial_mu
  end

(* Client-side sends ----------------------------------------------------- *)

let send_client t conn line =
  ignore (E.send_line_nf conn.c_ep line : bool);
  t.n_responses <- t.n_responses + 1;
  Metrics.incr t.c_responses

(* Forward a backend response line with the client's id spliced back
   in, without building the spliced string. *)
let send_client_spliced t conn ~id line pos =
  ignore
    (E.send_spliced_nf conn.c_ep (P.id_prefix id) line pos : bool);
  t.n_responses <- t.n_responses + 1;
  Metrics.incr t.c_responses

let send_client_resp t conn resp = send_client t conn (P.response_to_line resp)

(* Complete one in-flight client request with this response. *)
let answer t conn resp =
  send_client_resp t conn resp;
  conn.c_pending <- conn.c_pending - 1

(* Routing helpers ------------------------------------------------------- *)

let routable b = b.b_healthy && (not b.b_draining) && b.b_ep <> None

let backend_by_name t name =
  List.find_opt (fun b -> b.b_name = name) t.backends

let healthy_backends t = List.filter routable t.backends

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let remember_hint t key name =
  if Hashtbl.mem t.hints key || Hashtbl.length t.hints < hint_bound then
    Hashtbl.replace t.hints key name

let memoize_route t tail key =
  if Hashtbl.length t.memo >= memo_bound then Hashtbl.reset t.memo;
  let home =
    match Ring.lookup t.ring key with
    | Some name -> backend_by_name t name
    | None -> None
  in
  Hashtbl.replace t.memo tail { m_key = key; m_home = home }

let observe_backend b ms = Metrics.observe b.b_hist ms

let fleet_summary t : P.fleet_summary =
  {
    P.fl_backends =
      List.map
        (fun b ->
          let p50, p99 =
            match Wa_obs.Live.quantiles t.live ("fleet.be_ms." ^ b.b_name) with
            | Some q -> (q.Wa_obs.Live.q_p50, q.Wa_obs.Live.q_p99)
            | None -> (Float.nan, Float.nan)
          in
          {
            P.be_name = b.b_name;
            be_healthy = b.b_healthy;
            be_draining = b.b_draining;
            be_queue_depth = b.b_queue_depth;
            be_in_flight = b.b_inflight;
            be_requests = b.b_requests;
            be_failures = b.b_failures;
            be_hit_ratio = b.b_hit_ratio;
            be_p50_ms = p50;
            be_p99_ms = p99;
          })
        t.backends;
    fl_rerouted = t.n_rerouted;
    fl_peek_hits = t.n_peek_hits;
    fl_gossip_keys = Hashtbl.length t.hints;
  }

(* Routing, failover, and failure disposition are one recursive
   cluster: a failed send marks the backend down, which re-disposes
   its pending requests, which routes them again.  [cr_attempts]
   (incremented on every forward) bounds all the recursion. *)

let rec forward t creq b =
  match b.b_ep with
  | None -> false
  | Some ep ->
      let rid = fresh_rid t in
      let line =
        match creq.cr_tail with
        | Some tail -> P.id_prefix rid ^ tail
        | None -> (
            match creq.cr_req with
            | Some r -> P.request_to_line { r with P.id = rid }
            | None -> assert false)
      in
      creq.cr_attempts <- creq.cr_attempts + 1;
      Hashtbl.replace t.pending rid (Client_req (creq, b));
      b.b_requests <- b.b_requests + 1;
      b.b_inflight <- b.b_inflight + 1;
      if E.send_line_nf ep line then true
      else begin
        (* Dead on arrival: unregister this request, circuit-break the
           backend (re-disposing anything else it carried), and let
           the caller pick another shard. *)
        Hashtbl.remove t.pending rid;
        b.b_inflight <- b.b_inflight - 1;
        backend_failed t b;
        false
      end

and no_backend_error t creq =
  answer t creq.cr_conn
    (P.error ~id:creq.cr_orig_id P.Internal "no healthy backend for request")

(* Route a key-addressed request.  Home shard first; on failover,
   consult gossip hints, then optionally peek survivors for a warm
   replica before settling on the arc successor. *)
and route_keyed t creq =
  let key = Option.get creq.cr_key in
  if creq.cr_attempts >= t.config.max_attempts then no_backend_error t creq
  else
    let home =
      match Ring.lookup t.ring key with
      | Some name -> backend_by_name t name
      | None -> None
    in
    match home with
    | Some b when routable b ->
        (* The common case: the arc owner is up. *)
        if not (forward t creq b) then route_keyed t creq
    | _ -> (
        (* Failover: the key's arc moved onto the survivors. *)
        match List.filter routable (order_of t key) with
        | [] -> no_backend_error t creq
        | first :: rest -> (
            t.n_rerouted <- t.n_rerouted + 1;
            Metrics.incr t.c_rerouted;
            let hinted =
              match Hashtbl.find_opt t.hints key with
              | Some name -> (
                  match backend_by_name t name with
                  | Some b when routable b -> Some b
                  | _ -> None)
              | None -> None
            in
            match hinted with
            | Some b ->
                t.n_peek_hits <- t.n_peek_hits + 1;
                Metrics.incr t.c_peek_hits;
                if not (forward t creq b) then route_keyed t creq
            | None ->
                if t.config.peek_on_reroute && not (List.is_empty rest) then begin
                  let chain =
                    { pk_creq = creq; pk_remaining = rest; pk_current = first }
                  in
                  if not (send_peek t chain) then
                    if not (forward t creq first) then route_keyed t creq
                end
                else if not (forward t creq first) then route_keyed t creq))

and order_of t key =
  Ring.lookup_order t.ring key |> List.filter_map (backend_by_name t)

(* Ask [pk_current] whether it holds the key, registering the pending
   probe.  False when the send could not even start. *)
and send_peek t chain =
  match chain.pk_current.b_ep with
  | None -> false
  | Some ep ->
      let rid = fresh_rid t in
      let line =
        P.request_to_line
          {
            P.id = rid;
            deadline_ms = None;
            trace = false;
            body = P.Cache_peek { key = Option.get chain.pk_creq.cr_key };
          }
      in
      Hashtbl.replace t.pending rid (Peek (chain, Unix.gettimeofday ()));
      if E.send_line_nf ep line then true
      else begin
        Hashtbl.remove t.pending rid;
        false
      end

(* A peek answered (or its backend died): either commit to a warm
   replica, follow the origin hint, probe one more survivor, or fall
   through to the plain arc successor. *)
and continue_peek t chain ~present ~origin =
  let creq = chain.pk_creq in
  let commit b =
    t.n_peek_hits <- t.n_peek_hits + 1;
    Metrics.incr t.c_peek_hits;
    remember_hint t (Option.get creq.cr_key) b.b_name;
    if not (forward t creq b) then route_keyed t creq
  in
  let fallthrough () =
    match List.filter routable (chain.pk_current :: chain.pk_remaining) with
    | b :: _ -> if not (forward t creq b) then route_keyed t creq
    | [] -> route_keyed t creq
  in
  if present then commit chain.pk_current
  else
    match origin with
    | Some name -> (
        match backend_by_name t name with
        | Some b when routable b -> commit b
        | _ -> fallthrough ())
    | None -> (
        (* Probe at most one further survivor before giving up. *)
        match List.filter routable chain.pk_remaining with
        | next :: _ when next != chain.pk_current ->
            chain.pk_remaining <- [];
            chain.pk_current <- next;
            if not (send_peek t chain) then fallthrough ()
        | _ -> fallthrough ())

(* A backend connection is gone: close it, circuit-break, re-dispose
   every pending entry that was riding it.  Idempotent ops reroute
   onto survivors — the drain that keeps a mid-burst kill invisible
   to clients; stateful churn ops answer an error naming the shard. *)
and backend_failed t b =
  (match b.b_ep with
  | Some ep ->
      E.mark_dead ep;
      E.close ep;
      b.b_ep <- None
  | None -> ());
  b.b_healthy <- false;
  b.b_probe_out <- false;
  b.b_consec_failures <- 0;
  b.b_failures <- b.b_failures + 1;
  Metrics.set b.b_g_healthy 0.0;
  b.b_next_dial <- Unix.gettimeofday () +. b.b_dial_backoff;
  b.b_dial_backoff <- Float.min max_dial_backoff (b.b_dial_backoff *. 2.0);
  (* Hints naming a dead shard are stale by definition. *)
  let stale =
    Hashtbl.fold
      (fun k name acc -> if name = b.b_name then k :: acc else acc)
      t.hints []
  in
  List.iter (Hashtbl.remove t.hints) stale;
  let stranded =
    Hashtbl.fold
      (fun rid entry acc ->
        let riding =
          match entry with
          | Client_req (_, b') -> b' == b
          | Probe (b', _) -> b' == b
          | Peek (chain, _) -> chain.pk_current == b
          | Fanout_part (_, b', _) -> b' == b
        in
        if riding then (rid, entry) :: acc else acc)
      t.pending []
  in
  List.iter (fun (rid, _) -> Hashtbl.remove t.pending rid) stranded;
  List.iter
    (fun (_, entry) ->
      match entry with
      | Client_req (creq, _) -> (
          b.b_inflight <- b.b_inflight - 1;
          match creq.cr_class with
          | Plan_like | Peek_forward ->
              t.n_rerouted <- t.n_rerouted + 1;
              Metrics.incr t.c_rerouted;
              route_keyed t creq
          | Churn_create_op | Churn_session _ ->
              answer t creq.cr_conn
                (P.error ~shard:b.b_name ~id:creq.cr_orig_id P.Internal
                   "backend lost"))
      | Probe _ -> ()
      | Peek (chain, _) -> continue_peek t chain ~present:false ~origin:None
      | Fanout_part (fo, _, _) ->
          fo.fo_awaiting <- fo.fo_awaiting - 1;
          if fo.fo_awaiting = 0 then finish_fanout t fo)
    stranded

and finish_fanout t fo =
  let resp =
    match fo.fo_kind with
    | Fan_stats ->
        {
          P.rid = fo.fo_orig_id;
          body = P.Stats_r (Merge.merge_stats fo.fo_stats);
          rtrace = None;
        }
    | Fan_telemetry ->
        {
          P.rid = fo.fo_orig_id;
          body =
            P.Telemetry_r
              (Merge.merge_telemetry ~fleet:(fleet_summary t) fo.fo_tels);
          rtrace = None;
        }
    | Fan_advertise ->
        {
          P.rid = fo.fo_orig_id;
          body = P.Advertise_ok fo.fo_accepted;
          rtrace = None;
        }
  in
  answer t fo.fo_conn resp

(* Broadcast [body] to every routable backend; merge on completion.
   With no backend reachable the merge of zero parts answers
   immediately (zeros / empty), which is the honest view. *)
let start_fanout t conn ~orig_id ~kind body =
  let fo =
    {
      fo_conn = conn;
      fo_orig_id = orig_id;
      fo_kind = kind;
      fo_awaiting = 0;
      fo_stats = [];
      fo_tels = [];
      fo_accepted = 0;
    }
  in
  List.iter
    (fun b ->
      match b.b_ep with
      | None -> ()
      | Some ep ->
          let rid = fresh_rid t in
          let line =
            P.request_to_line
              { P.id = rid; deadline_ms = None; trace = false; body }
          in
          Hashtbl.replace t.pending rid
            (Fanout_part (fo, b, Unix.gettimeofday ()));
          if E.send_line_nf ep line then fo.fo_awaiting <- fo.fo_awaiting + 1
          else Hashtbl.remove t.pending rid)
    (healthy_backends t);
  if fo.fo_awaiting = 0 then finish_fanout t fo

(* Request dispatch ------------------------------------------------------ *)

(* Translate a churn op's router session id to the owning backend's
   id and forward it there; [rebody] rebuilds the body around the
   backend-side sid. *)
let forward_session t conn (r : P.request) rsid rebody =
  match Hashtbl.find_opt t.sessions rsid with
  | None ->
      answer t conn
        (P.error ~id:r.P.id P.No_such_session
           (Printf.sprintf "no session %d" rsid))
  | Some sm -> (
      let down () =
        answer t conn
          (P.error ~shard:sm.sm_backend ~id:r.P.id P.Internal
             "backend holding this session is down")
      in
      match backend_by_name t sm.sm_backend with
      | Some b when routable b ->
          let creq =
            {
              cr_conn = conn;
              cr_orig_id = r.P.id;
              cr_tail = None;
              cr_req = Some { r with P.body = rebody sm.sm_backend_sid };
              cr_class = Churn_session rsid;
              cr_key = None;
              cr_started = Unix.gettimeofday ();
              cr_attempts = 0;
            }
          in
          if not (forward t creq b) then down ()
      | _ -> down ())

let handle_decoded t conn line_tail (r : P.request) =
  let now = Unix.gettimeofday () in
  let mk ?key ?tail cls =
    {
      cr_conn = conn;
      cr_orig_id = r.P.id;
      cr_tail = tail;
      cr_req = Some r;
      cr_class = cls;
      cr_key = key;
      cr_started = now;
      cr_attempts = 0;
    }
  in
  match r.P.body with
  | P.Shutdown ->
      (* Drain the router itself: stop accepting work, answer once the
         pending table is empty.  Backends are not shut down — that is
         the orchestrator's decision, not a client's. *)
      Mutex.lock t.state_mu;
      t.draining <- true;
      Mutex.unlock t.state_mu;
      t.shutdown_reply <- Some (conn, r.P.id)
  | _ -> (
      conn.c_pending <- conn.c_pending + 1;
      match r.P.body with
      | P.Ping -> answer t conn { P.rid = r.P.id; body = P.Pong; rtrace = None }
      | P.Stats -> start_fanout t conn ~orig_id:r.P.id ~kind:Fan_stats P.Stats
      | P.Telemetry ->
          start_fanout t conn ~orig_id:r.P.id ~kind:Fan_telemetry P.Telemetry
      | P.Cache_advertise _ ->
          start_fanout t conn ~orig_id:r.P.id ~kind:Fan_advertise r.P.body
      | P.Plan spec | P.Describe spec | P.Simulate { spec; _ } ->
          let key = Engine.spec_key spec in
          Option.iter (fun tail -> memoize_route t tail key) line_tail;
          route_keyed t (mk ~key ?tail:line_tail Plan_like)
      | P.Cache_peek { key } ->
          route_keyed t (mk ~key ?tail:line_tail Peek_forward)
      | P.Churn_create _ -> (
          (* Sessions are stateful: pin the new one to the least
             loaded healthy shard. *)
          match
            List.sort
              (fun a b -> Int.compare a.b_inflight b.b_inflight)
              (healthy_backends t)
          with
          | [] -> no_backend_error t (mk Churn_create_op)
          | b :: _ ->
              let creq = mk ?tail:line_tail Churn_create_op in
              if not (forward t creq b) then no_backend_error t creq)
      | P.Churn_add { session; point } ->
          forward_session t conn r session (fun sid ->
              P.Churn_add { session = sid; point })
      | P.Churn_remove { session; node } ->
          forward_session t conn r session (fun sid ->
              P.Churn_remove { session = sid; node })
      | P.Churn_info { session = rsid } ->
          forward_session t conn r rsid (fun sid ->
              P.Churn_info { session = sid })
      | P.Churn_close { session = rsid } ->
          forward_session t conn r rsid (fun sid ->
              P.Churn_close { session = sid })
      | P.Shutdown -> assert false)

let reject_draining t conn line =
  let id =
    match P.split_id line with Some (id, _) -> id | None -> P.id_of_line line
  in
  send_client_resp t conn (P.error ~id P.Shutting_down "router is draining")

let handle_client_line t conn line =
  if String.trim line <> "" then begin
    t.n_requests <- t.n_requests + 1;
    Metrics.incr t.c_requests;
    if Mutex.protect t.state_mu (fun () -> t.draining) then
      reject_draining t conn line
    else
      let split =
        Option.map
          (fun (id, pos) -> (id, String.sub line pos (String.length line - pos)))
          (P.split_id line)
      in
      let memo_hit =
        match split with
        | Some (_, tail) -> Hashtbl.find_opt t.memo tail
        | None -> None
      in
      match (split, memo_hit) with
      | Some (id, tail), Some { m_key; m_home } -> (
          (* Hot path: a spec line seen before — skip the JSON parse
             entirely and route by the memoized digest. *)
          conn.c_pending <- conn.c_pending + 1;
          let creq =
            {
              cr_conn = conn;
              cr_orig_id = id;
              cr_tail = Some tail;
              cr_req = None;
              cr_class = Plan_like;
              cr_key = Some m_key;
              cr_started = Unix.gettimeofday ();
              cr_attempts = 0;
            }
          in
          match m_home with
          | Some b when routable b ->
              (* Memoized arc owner still up: no ring hash at all. *)
              if not (forward t creq b) then route_keyed t creq
          | _ -> route_keyed t creq)
      | _ -> (
          match P.request_of_line line with
          | Error msg -> send_client_resp t conn (P.undecodable ~line msg)
          | Ok r -> handle_decoded t conn (Option.map snd split) r)
  end

(* Backend responses ----------------------------------------------------- *)

let handle_client_entry t creq b ~pos line =
  b.b_inflight <- b.b_inflight - 1;
  b.b_consec_failures <- 0;
  observe_backend b ((Unix.gettimeofday () -. creq.cr_started) *. 1000.0);
  if P.ok_at line pos then
    match creq.cr_class with
    | Plan_like | Peek_forward ->
        (* Splice the client's id back in front of the raw tail —
           no decode, no re-encode, no copy of the line. *)
        send_client_spliced t creq.cr_conn ~id:creq.cr_orig_id line pos;
        creq.cr_conn.c_pending <- creq.cr_conn.c_pending - 1
    | Churn_create_op | Churn_session _ -> (
        match P.response_of_line line with
        | Error _ ->
            answer t creq.cr_conn
              (P.error ~shard:b.b_name ~id:creq.cr_orig_id P.Internal
                 "unparseable backend response")
        | Ok resp ->
            let body =
              match (creq.cr_class, resp.P.body) with
              | Churn_create_op, P.Churn_created be_sid ->
                  let rsid = t.next_sid in
                  t.next_sid <- rsid + 1;
                  Hashtbl.replace t.sessions rsid
                    { sm_backend = b.b_name; sm_backend_sid = be_sid };
                  P.Churn_created rsid
              | Churn_session rsid, P.Churn_r c ->
                  P.Churn_r { c with P.session = rsid }
              | Churn_session rsid, P.Session_r i ->
                  P.Session_r { i with P.info_session = rsid }
              | Churn_session rsid, P.Churn_closed _ ->
                  Hashtbl.remove t.sessions rsid;
                  P.Churn_closed rsid
              | _, body -> body
            in
            answer t creq.cr_conn { resp with P.rid = creq.cr_orig_id; body })
  else
    (* Error envelope: decode, tag the shard, retry overload/drain on
       idempotent ops, otherwise relay. *)
    match P.response_of_line line with
    | Ok { P.body = P.Error { code; message; _ }; rtrace; _ } -> (
        let relay () =
          answer t creq.cr_conn
            {
              P.rid = creq.cr_orig_id;
              body = P.Error { code; message; shard = Some b.b_name };
              rtrace;
            }
        in
        match (code, creq.cr_class) with
        | (P.Shutting_down | P.Overloaded), (Plan_like | Peek_forward) ->
            if code = P.Shutting_down then b.b_draining <- true;
            if creq.cr_attempts >= t.config.max_attempts then relay ()
            else begin
              t.n_rerouted <- t.n_rerouted + 1;
              Metrics.incr t.c_rerouted;
              route_keyed t creq
            end
        | _ -> relay ())
    | Ok resp -> answer t creq.cr_conn { resp with P.rid = creq.cr_orig_id }
    | Error _ ->
        answer t creq.cr_conn
          (P.error ~shard:b.b_name ~id:creq.cr_orig_id P.Internal
             "unparseable backend response")

let handle_probe_reply t b line =
  b.b_probe_out <- false;
  match P.response_of_line line with
  | Ok { P.body = P.Stats_r st; _ } ->
      b.b_consec_failures <- 0;
      b.b_healthy <- true;
      b.b_dial_backoff <- initial_dial_backoff;
      b.b_draining <- st.P.st_draining;
      b.b_queue_depth <- st.P.st_queue_depth;
      let hits = st.P.st_cache.P.cs_hits
      and misses = st.P.st_cache.P.cs_misses in
      if hits + misses > 0 then
        b.b_hit_ratio <- float_of_int hits /. float_of_int (hits + misses);
      Metrics.set b.b_g_healthy (if st.P.st_draining then 0.5 else 1.0);
      Metrics.set b.b_g_queue (float_of_int b.b_queue_depth);
      if not (Float.is_nan b.b_hit_ratio) then Metrics.set b.b_g_hit b.b_hit_ratio
  | Ok _ | Error _ ->
      b.b_consec_failures <- b.b_consec_failures + 1;
      if b.b_consec_failures >= t.config.fail_threshold then backend_failed t b

let handle_fanout_part t fo b line =
  (match (fo.fo_kind, P.response_of_line line) with
  | Fan_stats, Ok { P.body = P.Stats_r st; _ } ->
      fo.fo_stats <- st :: fo.fo_stats
  | Fan_telemetry, Ok { P.body = P.Telemetry_r tel; _ } ->
      fo.fo_tels <- tel :: fo.fo_tels
  | Fan_advertise, Ok { P.body = P.Advertise_ok n; _ } ->
      fo.fo_accepted <- fo.fo_accepted + n
  | _, _ -> b.b_failures <- b.b_failures + 1);
  fo.fo_awaiting <- fo.fo_awaiting - 1;
  if fo.fo_awaiting = 0 then finish_fanout t fo

let dispatch_entry t entry ~pos line =
  match entry with
  | Client_req (creq, b) -> handle_client_entry t creq b ~pos line
  | Probe (b, _) -> handle_probe_reply t b line
  | Peek (chain, _) -> (
      match P.response_of_line line with
      | Ok { P.body = P.Cache_peek_r { present; origin }; _ } ->
          continue_peek t chain ~present ~origin
      | Ok _ | Error _ -> continue_peek t chain ~present:false ~origin:None)
  | Fanout_part (fo, b, _) -> handle_fanout_part t fo b line

let handle_backend_line t line =
  match P.split_id line with
  | Some (rid, pos) -> (
      match Hashtbl.find_opt t.pending rid with
      | Some entry ->
          Hashtbl.remove t.pending rid;
          dispatch_entry t entry ~pos line
      | None -> ())
  | None -> (
      (* Not the canonical prefix (a foreign server?): fall back to a
         full parse, then rebuild a canonical line for dispatch. *)
      match P.response_of_line line with
      | Ok resp -> (
          match Hashtbl.find_opt t.pending resp.P.rid with
          | Some entry ->
              Hashtbl.remove t.pending resp.P.rid;
              let line' = P.response_to_line resp in
              let pos =
                match P.split_id line' with
                | Some (_, p) -> p
                | None -> String.length line'
              in
              dispatch_entry t entry ~pos line'
          | None -> ())
      | Error _ -> ())

(* Probes ---------------------------------------------------------------- *)

let send_probe t b now =
  match b.b_ep with
  | None -> ()
  | Some ep ->
      if not b.b_probe_out then begin
        let rid = fresh_rid t in
        let line =
          P.request_to_line
            { P.id = rid; deadline_ms = None; trace = false; body = P.Stats }
        in
        Hashtbl.replace t.pending rid (Probe (b, now));
        if E.send_line ep line then b.b_probe_out <- true
        else begin
          Hashtbl.remove t.pending rid;
          backend_failed t b
        end
      end

(* Pick up finished dials from the dialer thread. *)
let collect_dials t now =
  let finished =
    Mutex.protect t.dial_mu (fun () ->
        let d = t.dial_done in
        t.dial_done <- [];
        d)
  in
  List.iter
    (fun (b, res) ->
      b.b_dialing <- false;
      match res with
      | Ok ep ->
          b.b_ep <- Some ep;
          (* Health is earned by the first probe reply, not granted
             by the connect. *)
          send_probe t b now
      | Error _ ->
          b.b_next_dial <- now +. b.b_dial_backoff;
          b.b_dial_backoff <-
            Float.min max_dial_backoff (b.b_dial_backoff *. 2.0))
    finished

(* Expire pending entries that outlived their budget. *)
let scan_timeouts t now =
  let expired =
    Hashtbl.fold
      (fun rid entry acc ->
        let dead =
          match entry with
          | Client_req (creq, _) ->
              now -. creq.cr_started > t.config.request_timeout_s
          | Probe (_, at) | Peek (_, at) | Fanout_part (_, _, at) ->
              now -. at > t.config.probe_timeout_s
        in
        if dead then (rid, entry) :: acc else acc)
      t.pending []
  in
  List.iter (fun (rid, _) -> Hashtbl.remove t.pending rid) expired;
  List.iter
    (fun (_, entry) ->
      match entry with
      | Client_req (creq, b) ->
          b.b_inflight <- b.b_inflight - 1;
          b.b_consec_failures <- b.b_consec_failures + 1;
          answer t creq.cr_conn
            (P.error ~shard:b.b_name ~id:creq.cr_orig_id P.Deadline_exceeded
               "request timed out in the fleet router");
          if b.b_consec_failures >= t.config.fail_threshold then
            backend_failed t b
      | Probe (b, _) ->
          b.b_probe_out <- false;
          b.b_consec_failures <- b.b_consec_failures + 1;
          if b.b_consec_failures >= t.config.fail_threshold then
            backend_failed t b
      | Peek (chain, _) -> continue_peek t chain ~present:false ~origin:None
      | Fanout_part (fo, _, _) ->
          fo.fo_awaiting <- fo.fo_awaiting - 1;
          if fo.fo_awaiting = 0 then finish_fanout t fo)
    expired

(* Event-loop roots ------------------------------------------------------ *)

(* The roots below are annotated [@wa.event_loop]: wa_check certifies,
   over transitive whole-program summaries, that no blocking primitive
   is reachable from them — the router answers and forwards inline, so
   a blocked loop would stall the whole fleet's front door.  Outbound
   connects (the one blocking step) live in the dialer thread. *)

let[@wa.event_loop] handle_client_readable t conn =
  E.handle_readable ~max_line:t.config.max_line
    ~on_line:(fun _ line -> handle_client_line t conn line)
    ~on_overflow:(fun _ ->
      send_client_resp t conn
        (P.error ~id:0 P.Bad_request
           (Printf.sprintf "request line exceeds %d bytes" t.config.max_line)))
    conn.c_ep

let[@wa.event_loop] handle_backend_readable t b =
  match b.b_ep with
  | None -> ()
  | Some ep ->
      E.handle_readable ~max_line:t.config.max_line
        ~on_line:(fun _ line -> handle_backend_line t line)
        ~on_overflow:(fun _ -> ())
        ep;
      if E.eof ep || not (E.alive ep) then backend_failed t b

let[@wa.event_loop] accept_conn t =
  match E.accept ~listen_fd:t.listen_fd ~greeting:P.greeting_line with
  | Some ep -> t.conns <- { c_ep = ep; c_pending = 0 } :: t.conns
  | None -> ()

let[@wa.event_loop] reap t =
  let gone, live =
    List.partition
      (fun c -> (E.eof c.c_ep || not (E.alive c.c_ep)) && c.c_pending = 0)
      t.conns
  in
  List.iter (fun c -> E.close c.c_ep) gone;
  t.conns <- live;
  List.iter
    (fun b ->
      match b.b_ep with
      | Some ep when E.eof ep || not (E.alive ep) -> backend_failed t b
      | _ -> ())
    t.backends

(* One flush covers every line queued for an endpoint during this loop
   iteration (fast-path forwards and spliced replies both use
   deferred-flush sends). *)
let[@wa.event_loop] flush_all t =
  List.iter (fun c -> E.flush_now c.c_ep) t.conns;
  List.iter
    (fun b -> match b.b_ep with Some ep -> E.flush_now ep | None -> ())
    t.backends

let[@wa.event_loop] tick t =
  let now = Unix.gettimeofday () in
  collect_dials t now;
  if now -. t.last_probe >= t.config.probe_interval_s then begin
    t.last_probe <- now;
    List.iter
      (fun b ->
        match b.b_ep with
        | Some _ -> send_probe t b now
        | None -> if now >= b.b_next_dial then request_dial t b)
      t.backends
  end;
  if now -. t.last_scan >= 0.5 then begin
    t.last_scan <- now;
    scan_timeouts t now
  end;
  if now -. t.last_roll >= t.config.window_s then begin
    t.last_roll <- now;
    Wa_obs.Live.sample_runtime ();
    Wa_obs.Live.roll t.live
  end;
  match t.config.prom_out with
  | Some path when now -. t.last_prom >= t.config.prom_interval_s ->
      t.last_prom <- now;
      (try
         Wa_obs.Export.write_prometheus path (Wa_obs.Report.capture_metrics ())
       with Sys_error _ -> ())
  | _ -> ()

(* Shutdown -------------------------------------------------------------- *)

(* Client-visible work still in flight (probes don't count). *)
let client_work_pending t =
  Hashtbl.fold
    (fun _ entry acc -> match entry with Probe _ -> acc | _ -> acc + 1)
    t.pending 0

let stop_dialer t =
  Mutex.lock t.dial_mu;
  t.dial_stop <- true;
  Condition.broadcast t.dial_cond;
  Mutex.unlock t.dial_mu;
  match t.dialer with
  | Some th ->
      Thread.join th;
      t.dialer <- None
  | None -> ()

let finish t =
  (match t.shutdown_reply with
  | Some (conn, id) ->
      send_client_resp t conn { P.rid = id; body = P.Shutdown_ok; rtrace = None }
  | None -> ());
  flush_all t;
  List.iter (fun c -> E.close c.c_ep) t.conns;
  t.conns <- [];
  List.iter
    (fun b ->
      match b.b_ep with
      | Some ep ->
          E.close ep;
          b.b_ep <- None
      | None -> ())
    t.backends;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  stop_dialer t

let run t =
  let finished = ref false in
  while not !finished do
    let stop_now, draining =
      Mutex.protect t.state_mu (fun () -> (t.stop_requested, t.draining))
    in
    if stop_now then finished := true
    else if draining && client_work_pending t = 0 then finished := true
    else begin
      reap t;
      let fd_map =
        List.filter_map
          (fun b ->
            match b.b_ep with
            | Some ep when not (E.eof ep) -> Some (E.fd ep, `Backend b)
            | _ -> None)
          t.backends
        @ List.filter_map
            (fun c ->
              if E.eof c.c_ep then None else Some (E.fd c.c_ep, `Conn c))
            t.conns
      in
      let read_fds = t.listen_fd :: List.map fst fd_map in
      List.iter
        (fun fd ->
          if fd = t.listen_fd then accept_conn t
          else
            match List.assoc_opt fd fd_map with
            | Some (`Backend b) -> handle_backend_readable t b
            | Some (`Conn c) -> handle_client_readable t c
            | None -> ())
        (E.wait_readable read_fds 0.05);
      flush_all t;
      tick t
    end
  done;
  finish t

let summary t =
  Printf.sprintf
    "routed %d request(s): %d response(s), %d rerouted, %d peek hit(s), %d \
     hint(s)"
    t.n_requests t.n_responses t.n_rerouted t.n_peek_hits
    (Hashtbl.length t.hints)
