module Pipeline = Wa_core.Pipeline
module P = Protocol

(* Warm hints learned from gossip are bounded; past the bound new
   hints are refused rather than evicting old ones — they are advisory
   and a refusal only costs a potential recompute elsewhere. *)
let warm_bound = 4096

type t = {
  cache : (Pipeline.plan * float) Cache.t;
      (** Value is the plan plus its original compute time in ms. *)
  sessions : Session.t;
  warm_mu : Mutex.t;
  warm : (string, string) Hashtbl.t; [@wa.guarded_by "Engine.t.warm_mu"]
      (** key -> peer name that advertised holding it (gossip hints). *)
  line_memo : (string, string) Hashtbl.t; [@wa.guarded_by "Engine.t.warm_mu"]
      (** key -> response-line tail of the cached [Plan_r], so a hit
          is one hashtable probe plus an id splice; dropped on
          eviction via the cache's [on_evict]. *)
  mutable on_fill : string -> unit;
      (** Fired (from the computing worker) after a computed fill. *)
  mutable on_invalidate : string list -> unit;
      (** Fired after capacity evictions, cache lock released. *)
}

let create ?cache_entries ?cache_bytes ?max_sessions () =
  let t =
    {
      cache =
        Cache.create ?max_entries:cache_entries ?max_bytes:cache_bytes
          ~metrics_prefix:"service.cache" ();
      sessions = Session.create ?max_sessions ();
      warm_mu = Mutex.create ();
      warm = Hashtbl.create 64;
      line_memo = Hashtbl.create 64;
      on_fill = ignore;
      on_invalidate = ignore;
    }
  in
  Cache.set_on_evict t.cache (fun keys ->
      Mutex.lock t.warm_mu;
      List.iter (Hashtbl.remove t.line_memo) keys;
      Mutex.unlock t.warm_mu;
      t.on_invalidate keys);
  t

let set_gossip t ~on_fill ~on_invalidate =
  t.on_fill <- on_fill;
  t.on_invalidate <- on_invalidate

let sessions t = t.sessions

(* Deployment resolution ------------------------------------------------ *)

let generate ~kind ~n ~seed ~side =
  let rng = Wa_util.Rng.create seed in
  match String.lowercase_ascii kind with
  | "uniform" -> Wa_instances.Random_deploy.uniform_square rng ~n ~side
  | "disk" -> Wa_instances.Random_deploy.uniform_disk rng ~n ~radius:(side /. 2.0)
  | "grid" ->
      let r = max 2 (int_of_float (sqrt (float_of_int n))) in
      Wa_instances.Random_deploy.grid ~rows:r ~cols:r
        ~spacing:(side /. float_of_int r)
  | "clusters" ->
      let c = max 2 (n / 20) in
      Wa_instances.Random_deploy.clusters rng ~clusters:c
        ~per_cluster:(max 1 (n / c)) ~side ~spread:(side /. 200.0)
  | "line" -> Wa_instances.Random_deploy.uniform_line rng ~n ~length:side
  | k -> invalid_arg ("unknown deployment kind: " ^ k)

let pointset_of_spec (spec : P.plan_spec) =
  match spec.P.deploy with
  | P.Points pts -> Wa_geom.Pointset.of_array pts
  | P.Generate { kind; n; seed; side } -> generate ~kind ~n ~seed ~side

(* Plan computation and caching ----------------------------------------- *)

let spec_key spec = Cache.content_key (P.spec_canonical_json spec)

(* Rough resident-size accounting for the cache's byte bound: the plan
   holds the pointset, the tree, one link per non-sink node and the
   slot partition.  Constants are deliberately generous. *)
let plan_bytes (plan : Pipeline.plan) =
  let nodes = Wa_core.Agg_tree.size plan.Pipeline.agg in
  let links = Wa_core.Agg_tree.link_count plan.Pipeline.agg in
  let slots = Wa_core.Schedule.length plan.Pipeline.schedule in
  1024 + (nodes * 48) + (links * 160) + (slots * 64)

let compute_plan (spec : P.plan_spec) =
  (* The dense engine is the O(n^2) reference scan that tests check
     the indexed one against; a client could aim it at any n. *)
  if spec.P.engine = `Dense then
    invalid_arg "engine dense is a test oracle; the server plans with indexed";
  let params =
    Wa_sinr.Params.make ~alpha:spec.P.alpha ~beta:spec.P.beta ()
  in
  let ps = pointset_of_spec spec in
  Wa_obs.Trace.with_span "service.plan_compute" (fun () ->
      Pipeline.plan ~params ?gamma:spec.P.gamma ~engine:spec.P.engine
        spec.P.power ps)

(* [cached] is false only for the request that actually computed. *)
let obtain_plan t (spec : P.plan_spec) =
  if spec.P.no_cache then
    let plan, ms =
      Wa_obs.Trace.timed "service.plan_cold" (fun () -> compute_plan spec)
    in
    (plan, false, ms)
  else
    let key = spec_key spec in
    match
      Cache.find_or_compute t.cache key
        ~bytes_of:(fun (p, _) -> plan_bytes p)
        (fun () ->
          Wa_obs.Trace.timed "service.plan_cold" (fun () -> compute_plan spec))
    with
    | `Computed (plan, ms) ->
        t.on_fill key;
        (plan, false, ms)
    | `Hit (plan, _) | `Coalesced (plan, _) -> (plan, true, 0.0)

let plan_summary (plan : Pipeline.plan) ~cached ~compute_ms : P.plan_summary =
  {
    P.nodes = Wa_core.Agg_tree.size plan.Pipeline.agg;
    links = Wa_core.Agg_tree.link_count plan.Pipeline.agg;
    slots = Pipeline.slots plan;
    rate = Pipeline.rate plan;
    raw_colors = plan.Pipeline.raw_colors;
    repair_added = plan.Pipeline.repair_added;
    plan_valid = plan.Pipeline.valid;
    point_diversity = plan.Pipeline.point_diversity;
    link_diversity = plan.Pipeline.link_diversity;
    description = Pipeline.describe plan;
    cached;
    compute_ms;
  }

(* Request dispatch ----------------------------------------------------- *)

let churn_summary ~session ~node (s : Wa_core.Dynamic.stats) : P.churn_summary =
  {
    P.session;
    node;
    links_total = s.Wa_core.Dynamic.links_total;
    links_kept = s.Wa_core.Dynamic.links_kept;
    links_recolored = s.Wa_core.Dynamic.links_recolored;
    churn_slots = s.Wa_core.Dynamic.slots;
    recompute_slots = s.Wa_core.Dynamic.recompute_slots;
  }

let err code message = P.Error { code; message; shard = None }

(* Gossip ops ------------------------------------------------------------ *)

(* Both ops are lock-bounded and compute-free, so the server answers
   them inline on its event loop, like [Stats]. *)

let peek t key =
  let present = Cache.mem t.cache key in
  Mutex.lock t.warm_mu;
  let origin = Hashtbl.find_opt t.warm key in
  Mutex.unlock t.warm_mu;
  P.Cache_peek_r { present; origin }

let advertise t ~origin ~invalidate keys =
  let accepted = ref 0 in
  Mutex.lock t.warm_mu;
  if invalidate then
    List.iter
      (fun k ->
        match Hashtbl.find_opt t.warm k with
        | Some o when String.equal o origin ->
            Hashtbl.remove t.warm k;
            incr accepted
        | _ -> ())
      keys
  else
    List.iter
      (fun k ->
        if Hashtbl.mem t.warm k || Hashtbl.length t.warm < warm_bound then begin
          Hashtbl.replace t.warm k origin;
          incr accepted
        end)
      keys;
  Mutex.unlock t.warm_mu;
  P.Advertise_ok !accepted

(* Inline cached-plan fast path ------------------------------------------ *)

(* The response line of a cached plan is identical across requests
   except for the id.  Memoize everything after the id once per cache
   fill and serve hits by splicing the id prefix in front of the
   stored tail — one cache probe, one memo probe, one string concat;
   cheap enough for the server's event loop. *)

let cached_plan_line t (spec : P.plan_spec) ~id =
  if spec.P.no_cache then None
  else
    let key = spec_key spec in
    match Cache.find t.cache key with
    | None ->
        (* [remove]/[clear] bypass on_evict; resync the memo here. *)
        Mutex.lock t.warm_mu;
        Hashtbl.remove t.line_memo key;
        Mutex.unlock t.warm_mu;
        None
    | Some (plan, _) -> (
        Mutex.lock t.warm_mu;
        let tail = Hashtbl.find_opt t.line_memo key in
        Mutex.unlock t.warm_mu;
        match tail with
        | Some tail -> Some (P.id_prefix id ^ tail)
        | None ->
            let body = P.Plan_r (plan_summary plan ~cached:true ~compute_ms:0.0) in
            let line = P.response_to_line { P.rid = id; body; rtrace = None } in
            (match P.split_id line with
            | Some (_, pos) ->
                let tail = String.sub line pos (String.length line - pos) in
                Mutex.lock t.warm_mu;
                Hashtbl.replace t.line_memo key tail;
                Mutex.unlock t.warm_mu
            | None -> ());
            Some line)

let no_such_session session =
  err P.No_such_session (Printf.sprintf "no session %d" session)

let handle_exn = function
  | Invalid_argument m -> err P.Bad_request m
  | Failure m -> err P.Bad_request m
  | Not_found -> err P.Bad_request "unknown node id"
  | e -> err P.Internal (Printexc.to_string e)

let handle t (body : P.request_body) : P.response_body =
  match body with
  | P.Ping -> P.Pong
  | P.Plan spec -> (
      try
        Wa_obs.Trace.with_span "service.plan" (fun () ->
            let plan, cached, compute_ms = obtain_plan t spec in
            P.Plan_r (plan_summary plan ~cached ~compute_ms))
      with e -> handle_exn e)
  | P.Describe spec -> (
      try
        Wa_obs.Trace.with_span "service.describe" (fun () ->
            let plan, _, _ = obtain_plan t spec in
            P.Describe_r (Pipeline.describe plan))
      with e -> handle_exn e)
  | P.Simulate { spec; periods } -> (
      try
        Wa_obs.Trace.with_span "service.simulate" (fun () ->
            let plan, cached, _ = obtain_plan t spec in
            let r = Pipeline.simulate ~horizon_periods:periods plan in
            P.Sim_r
              {
                P.sim_slots = Pipeline.slots plan;
                frames_generated = r.Wa_core.Simulator.frames_generated;
                frames_delivered = r.Wa_core.Simulator.frames_delivered;
                achieved_rate = r.Wa_core.Simulator.achieved_rate;
                steady_rate = r.Wa_core.Simulator.steady_rate;
                mean_latency = r.Wa_core.Simulator.mean_latency;
                max_latency = r.Wa_core.Simulator.max_latency;
                max_buffer = r.Wa_core.Simulator.max_buffer;
                aggregates_correct = r.Wa_core.Simulator.aggregates_correct;
                violations = r.Wa_core.Simulator.violations;
                idle_slots = r.Wa_core.Simulator.idle_slots;
                plan_cached = cached;
              })
      with e -> handle_exn e)
  | P.Churn_create { sink; power; alpha; beta; gamma } -> (
      try
        Wa_obs.Trace.with_span "service.churn" (fun () ->
            let params = Wa_sinr.Params.make ~alpha ~beta () in
            match Session.open_session t.sessions ~params ?gamma ~sink power with
            | Ok id -> P.Churn_created id
            | Error `Limit -> err P.Bad_request "session limit reached")
      with e -> handle_exn e)
  | P.Churn_add { session; point } -> (
      try
        Wa_obs.Trace.with_span "service.churn" (fun () ->
            match
              Session.with_session t.sessions session (fun dyn ->
                  Wa_core.Dynamic.add_node dyn point)
            with
            | Ok (node, stats) ->
                P.Churn_r (churn_summary ~session ~node:(Some node) stats)
            | Error `Unknown -> no_such_session session)
      with e -> handle_exn e)
  | P.Churn_remove { session; node } -> (
      try
        Wa_obs.Trace.with_span "service.churn" (fun () ->
            match
              Session.with_session t.sessions session (fun dyn ->
                  Wa_core.Dynamic.remove_node dyn node)
            with
            | Ok stats -> P.Churn_r (churn_summary ~session ~node:None stats)
            | Error `Unknown -> no_such_session session)
      with e -> handle_exn e)
  | P.Churn_info { session } -> (
      try
        match
          Session.with_session t.sessions session (fun dyn ->
              ( Wa_core.Dynamic.size dyn,
                Wa_core.Dynamic.current_slots dyn,
                Wa_core.Dynamic.schedule_valid dyn ))
        with
        | Ok (size, slots, valid) ->
            P.Session_r
              { P.info_session = session; size; info_slots = slots; info_valid = valid }
        | Error `Unknown -> no_such_session session
      with e -> handle_exn e)
  | P.Churn_close { session } ->
      if Session.close t.sessions session then P.Churn_closed session
      else no_such_session session
  | P.Cache_peek { key } -> peek t key
  | P.Cache_advertise { origin; invalidate; keys } ->
      advertise t ~origin ~invalidate keys
  | P.Stats | P.Telemetry | P.Shutdown ->
      (* Server-level ops: they need pool and lifecycle state the
         engine does not hold, so the server answers them itself. *)
      err P.Bad_request "stats/telemetry/shutdown are handled by the server"

let cache_summary t : P.cache_summary =
  let s = Cache.stats t.cache in
  {
    P.cs_entries = s.Cache.entries;
    cs_bytes = s.Cache.total_bytes;
    cs_hits = s.Cache.hits;
    cs_misses = s.Cache.misses;
    cs_coalesced = s.Cache.coalesced;
    cs_evictions = s.Cache.evictions;
  }

let session_count t = Session.count t.sessions
