module Json = Wa_util.Json
module Vec2 = Wa_geom.Vec2

let version = 1

(* Codec combinator ------------------------------------------------------ *)

(* A codec is the one description of a wire value, read in both
   directions: [dec (enc v)] gives back [v] because both halves are
   built from the same declarations, not kept in step by hand. *)
type 'a codec = { enc : 'a -> Json.t; dec : Json.t -> ('a, string) result }

let ( let* ) = Result.bind

let scalar what to_json of_json =
  {
    enc = to_json;
    dec =
      (fun j ->
        match of_json j with Some v -> Ok v | None -> Error ("expected " ^ what));
  }

let int = scalar "an integer" (fun i -> Json.Int i) Json.to_int_opt
let string = scalar "a string" (fun s -> Json.String s) Json.to_string_opt

let bool =
  scalar "a boolean" (fun b -> Json.Bool b) (function
    | Json.Bool b -> Some b
    | _ -> None)

let number = scalar "a number" (fun f -> Json.Float f) Json.to_float_opt

(* Request parameters must be finite: the parser reads the printer's
   own infinity literal [1e999] back as infinity. *)
let finite =
  scalar "a finite number" (fun f -> Json.Float f) (fun j ->
      match Json.to_float_opt j with
      | Some f when Float.is_finite f -> Some f
      | _ -> None)

(* Response statistics may be nan (mean latency over zero delivered
   frames, an empty latency window); the printer writes nan as null. *)
let stat_float =
  { number with dec = (function Json.Null -> Ok Float.nan | j -> number.dec j) }

(* Written as null; anything is accepted back. *)
let null = { enc = (fun () -> Json.Null); dec = (fun _ -> Ok ()) }

let conv to_wire of_wire c =
  { enc = (fun v -> c.enc (to_wire v)); dec = (fun j -> Result.bind (c.dec j) of_wire) }

let positive =
  conv Fun.id (fun n -> if n > 0 then Ok n else Error "expected a positive integer") int

let list c =
  {
    enc = (fun xs -> Json.List (List.map c.enc xs));
    dec =
      (function
      | Json.List items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | x :: rest ->
                let* v = c.dec x in
                go (v :: acc) rest
          in
          go [] items
      | _ -> Error "expected an array");
  }

(* String enumerations: a table of wire names, read both ways. *)
let name_of table v = fst (List.find (fun (_, v') -> v' = v) table)

let lookup what table s =
  match List.assoc_opt s table with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s: %s" what s)

let enum what table = conv (name_of table) (lookup what table) string

(* Objects.  A member list under construction is a [('o, 'k) fields]:
   [write] puts the members declared so far in front of the members
   that follow, and [read] yields the constructor ['k] applied to them.
   Members are declared once, in wire order, and are of three kinds:
   required ([req]), optional and omitted when unset ([opt], [flag]),
   or always written but defaulted when absent ([dflt]).  The
   constructor receives them by position, so it must take its
   arguments in that same order; between members of one type only the
   round-trip tests would notice a swap. *)

type ('o, 'k) fields = {
  write : 'o -> (string * Json.t) list -> (string * Json.t) list;
  read : Json.t -> ('k, string) result;
}

let fields make = { write = (fun _ rest -> rest); read = (fun _ -> Ok make) }

(* Read member [name] with [dec]; [absent] is the answer when the
   member is missing.  A decode error names the member. *)
let member name dec ~absent j =
  match Json.member name j with
  | None -> absent
  | Some v -> (
      match dec v with
      | Ok _ as ok -> ok
      | Error e -> Error (Printf.sprintf "field %S: %s" name e))

let missing name = Error (Printf.sprintf "missing field %S" name)
let some c v = Result.map Option.some (c.dec v)

let add write_one read_one o =
  {
    write = (fun v rest -> o.write v (write_one v rest));
    read =
      (fun j ->
        let* k = o.read j in
        let* x = read_one j in
        Ok (k x));
  }

let req name c get =
  add
    (fun v rest -> (name, c.enc (get v)) :: rest)
    (member name c.dec ~absent:(missing name))

let opt name c get =
  add
    (fun v rest -> match get v with None -> rest | Some x -> (name, c.enc x) :: rest)
    (member name (some c) ~absent:(Ok None))

let flag name get =
  add
    (fun v rest -> if get v then (name, Json.Bool true) :: rest else rest)
    (member name bool.dec ~absent:(Ok false))

let dflt name c ~default get =
  add
    (fun v rest -> (name, c.enc (get v)) :: rest)
    (member name c.dec ~absent:(Ok default))

(* Always written, [None] as null.  Only the canonical spec uses it. *)
let nullable name c get =
  add
    (fun v rest ->
      (name, match get v with None -> Json.Null | Some x -> c.enc x) :: rest)
    (member name (function Json.Null -> Ok None | v -> some c v) ~absent:(Ok None))

(* Splice another member list into this object. *)
let inline inner get = add (fun v rest -> inner.write (get v) rest) inner.read

let obj o =
  {
    enc = (fun v -> Json.Obj (o.write v []));
    dec = (function Json.Obj _ as j -> o.read j | _ -> Error "expected an object");
  }

let one name c = fields Fun.id |> req name c Fun.id

(* Variants.  A case names its tag, its members, and how its payload
   goes into and comes out of the variant; [tagged] writes the tag
   under [key] ahead of the chosen case's members. *)

type ('t, 'a) case =
  | Case : {
      tag : 't;
      body : ('b, 'b) fields;
      inj : 'b -> 'a;
      proj : 'a -> 'b option;
    }
      -> ('t, 'a) case

let case tag body inj proj = Case { tag; body; inj; proj }

(* A constant constructor; [body] defaults to no members. *)
let const ?(body = fields ()) tag v =
  case tag body (fun () -> v) (fun x -> if x = v then Some () else None)

let tagged ?default key tag cases =
  let write v rest =
    let rec go = function
      | [] -> invalid_arg ("Protocol: no case for this " ^ key)
      | Case c :: others -> (
          match c.proj v with
          | Some b -> (key, tag.enc c.tag) :: c.body.write b rest
          | None -> go others)
    in
    go cases
  in
  let read_tag =
    member key tag.dec
      ~absent:(match default with Some d -> Ok d | None -> missing key)
  in
  let read j =
    let* t = read_tag j in
    let rec go = function
      | [] ->
          Error
            (Printf.sprintf "unknown %s %s" key
               (Json.to_string ~pretty:false (tag.enc t)))
      | Case c :: others ->
          if c.tag = t then Result.map c.inj (c.body.read j) else go others
    in
    go cases
  in
  { write; read }

(* Types ---------------------------------------------------------------- *)

type deploy_spec =
  | Points of Vec2.t array
  | Generate of { kind : string; n : int; seed : int; side : float }

type plan_spec = {
  deploy : deploy_spec;
  power : Wa_core.Pipeline.power_mode;
  alpha : float;
  beta : float;
  gamma : float option;
  engine : Wa_core.Conflict.engine;
  no_cache : bool;
}

type request_body =
  | Ping
  | Plan of plan_spec
  | Describe of plan_spec
  | Simulate of { spec : plan_spec; periods : int }
  | Churn_create of {
      sink : Vec2.t;
      power : Wa_core.Pipeline.power_mode;
      alpha : float;
      beta : float;
      gamma : float option;
    }
  | Churn_add of { session : int; point : Vec2.t }
  | Churn_remove of { session : int; node : int }
  | Churn_info of { session : int }
  | Churn_close of { session : int }
  | Stats
  | Telemetry
  | Shutdown
  | Cache_peek of { key : string }
  | Cache_advertise of { origin : string; invalidate : bool; keys : string list }

type request = {
  id : int;
  deadline_ms : float option;
  trace : bool;
  body : request_body;
}

let op_name = function
  | Ping -> "ping"
  | Plan _ -> "plan"
  | Describe _ -> "describe"
  | Simulate _ -> "simulate"
  | Churn_create _ -> "churn_create"
  | Churn_add _ -> "churn_add"
  | Churn_remove _ -> "churn_remove"
  | Churn_info _ -> "churn_info"
  | Churn_close _ -> "churn_close"
  | Stats -> "stats"
  | Telemetry -> "telemetry"
  | Shutdown -> "shutdown"
  | Cache_peek _ -> "cache_peek"
  | Cache_advertise _ -> "cache_advertise"

type plan_summary = {
  nodes : int;
  links : int;
  slots : int;
  rate : float;
  raw_colors : int;
  repair_added : int;
  plan_valid : bool;
  point_diversity : float;
  link_diversity : float;
  description : string;
  cached : bool;
  compute_ms : float;
}

type sim_summary = {
  sim_slots : int;
  frames_generated : int;
  frames_delivered : int;
  achieved_rate : float;
  steady_rate : float;
  mean_latency : float;
  max_latency : int;
  max_buffer : int;
  aggregates_correct : bool;
  violations : int;
  idle_slots : int;
  plan_cached : bool;
}

type churn_summary = {
  session : int;
  node : int option;  (** Id allocated by an [add]. *)
  links_total : int;
  links_kept : int;
  links_recolored : int;
  churn_slots : int;
  recompute_slots : int;
}

type session_info = {
  info_session : int;
  size : int;
  info_slots : int;
  info_valid : bool;
}

type error_code =
  | Bad_request
  | Bad_version
  | Overloaded
  | Deadline_exceeded
  | No_such_session
  | Shutting_down
  | Internal

(* Telemetry types ------------------------------------------------------- *)

type trace_span = {
  t_name : string;
  t_start_ns : int;  (* relative to the first span of the request *)
  t_dur_ns : int;
  t_depth : int;
}

type cache_summary = {
  cs_entries : int;
  cs_bytes : int;
  cs_hits : int;
  cs_misses : int;
  cs_coalesced : int;
  cs_evictions : int;
}

type stats_summary = {
  st_requests : int;
  st_responses : int;
  st_overloaded : int;
  st_deadline_misses : int;
  st_inflight_peak : int;
  st_draining : bool;
  st_workers : int;
  st_queue_depth : int;
  st_queue_capacity : int;
  st_in_flight : int;
  st_cache : cache_summary;
  st_sessions : int;
}

type op_latency = {
  ol_op : string;
  ol_count : int;
  ol_p50_ms : float;
  ol_p90_ms : float;
  ol_p99_ms : float;
  ol_max_ms : float;
}

type exemplar = { ex_op : string; ex_id : int; ex_ms : float }

type gc_summary = {
  gc_heap_words : int;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_compactions : int;
}

type backend_row = {
  be_name : string;
  be_healthy : bool;
  be_draining : bool;
  be_queue_depth : int;
  be_in_flight : int;
  be_requests : int;
  be_failures : int;
  be_hit_ratio : float;  (* nan while the first probe is pending *)
  be_p50_ms : float;
  be_p99_ms : float;
}

type fleet_summary = {
  fl_backends : backend_row list;
  fl_rerouted : int;
  fl_peek_hits : int;
  fl_gossip_keys : int;
}

type telemetry_summary = {
  tel_uptime_s : float;
  tel_window_s : float;
  tel_windows : int;
  tel_in_flight : int;
  tel_queue_depth : int;
  tel_ops : op_latency list;
  tel_cache : cache_summary;
  tel_sessions : int;
  tel_exemplars : exemplar list;
  tel_gc : gc_summary;
  tel_fleet : fleet_summary option;
      (* Router-side per-shard view; None on a plain backend. *)
}

type response_body =
  | Pong
  | Plan_r of plan_summary
  | Describe_r of string
  | Sim_r of sim_summary
  | Churn_created of int
  | Churn_r of churn_summary
  | Session_r of session_info
  | Churn_closed of int
  | Stats_r of stats_summary
  | Telemetry_r of telemetry_summary
  | Shutdown_ok
  | Cache_peek_r of { present : bool; origin : string option }
  | Advertise_ok of int
  | Error of { code : error_code; message : string; shard : string option }

type response = {
  rid : int;
  body : response_body;
  rtrace : trace_span list option;
}

let error ?shard ~id code message =
  { rid = id; body = Error { code; message; shard }; rtrace = None }

(* Scalars of the protocol ----------------------------------------------- *)

let power_to_string = function
  | `Global -> "global"
  | `Uniform -> "uniform"
  | `Linear -> "linear"
  | `Oblivious tau -> Printf.sprintf "oblivious:%.17g" tau

(* The range test also turns away a non-finite tau. *)
let power_of_string s =
  match String.lowercase_ascii s with
  | "global" -> Ok `Global
  | "uniform" -> Ok `Uniform
  | "linear" -> Ok `Linear
  | s when String.length s > 10 && String.sub s 0 10 = "oblivious:" -> (
      match float_of_string_opt (String.sub s 10 (String.length s - 10)) with
      | Some tau when tau > 0.0 && tau < 1.0 -> Ok (`Oblivious tau)
      | _ -> Error "oblivious tau must lie strictly in (0,1)")
  | _ -> Error ("unknown power mode: " ^ s)

let power = conv power_to_string power_of_string string
let engines = [ ("indexed", `Indexed); ("dense", `Dense) ]

let error_codes =
  [
    ("bad_request", Bad_request);
    ("bad_version", Bad_version);
    ("overloaded", Overloaded);
    ("deadline_exceeded", Deadline_exceeded);
    ("no_such_session", No_such_session);
    ("shutting_down", Shutting_down);
    ("internal", Internal);
  ]

let error_code_to_string c = name_of error_codes c

(* The one version check: [Some n] when a message names a version
   other than ours.  An absent ["v"] means version 1. *)
let foreign_version j =
  match Json.to_int_opt j with Some n when n <> version -> Some n | _ -> None

let unsupported_version n = Printf.sprintf "unsupported protocol version %d" n

let version_field o =
  dflt "v"
    {
      enc = (fun () -> Json.Int version);
      dec =
        (fun j ->
          match foreign_version j with
          | Some n -> Error (unsupported_version n)
          | None -> Result.map ignore (int.dec j));
    }
    ~default:() ignore o

let vec2 =
  {
    enc = (fun (v : Vec2.t) -> Json.List [ Float v.Vec2.x; Float v.Vec2.y ]);
    dec =
      (function
      | Json.List [ x; y ] ->
          let* x = finite.dec x in
          let* y = finite.dec y in
          Ok (Vec2.make x y)
      | _ -> Error "a point is a two-element array [x, y]");
  }

(* Requests -------------------------------------------------------------- *)

let deploy =
  let points =
    one "points"
      (conv Array.to_list
         (function [] -> Error "must be non-empty" | pts -> Ok (Array.of_list pts))
         (list vec2))
  in
  let generate =
    fields (fun kind n seed side -> (kind, n, seed, side))
    |> req "kind" string (fun (k, _, _, _) -> k)
    |> req "n" positive (fun (_, n, _, _) -> n)
    |> req "seed" int (fun (_, _, s, _) -> s)
    |> dflt "side" finite ~default:1000.0 (fun (_, _, _, s) -> s)
  in
  (* Untagged: the presence of ["points"] picks the case. *)
  obj
    {
      write =
        (fun d rest ->
          match d with
          | Points pts -> points.write pts rest
          | Generate { kind; n; seed; side } ->
              generate.write (kind, n, seed, side) rest);
      read =
        (fun j ->
          if Option.is_some (Json.member "points" j) then
            Result.map (fun pts -> Points pts) (points.read j)
          else
            Result.map
              (fun (kind, n, seed, side) -> Generate { kind; n; seed; side })
              (generate.read j));
    }

let default_params = Wa_sinr.Params.default
let alpha get = dflt "alpha" finite ~default:default_params.Wa_sinr.Params.alpha get
let beta get = dflt "beta" finite ~default:default_params.Wa_sinr.Params.beta get

(* Every parameter that shapes the plan.  [gamma] is the member kind
   for gamma: omitted when unset on the wire, explicit null in the
   canonical form that the cache key hashes. *)
let spec_members gamma =
  fields (fun deploy power alpha beta gamma engine ->
      { deploy; power; alpha; beta; gamma; engine; no_cache = false })
  |> req "deploy" deploy (fun s -> s.deploy)
  |> req "power" power (fun s -> s.power)
  |> alpha (fun s -> s.alpha)
  |> beta (fun s -> s.beta)
  |> gamma "gamma" finite (fun s -> s.gamma)
  |> dflt "engine" (enum "engine" engines) ~default:`Indexed (fun s -> s.engine)

let canonical_spec = obj (spec_members nullable)
let spec_canonical_json spec = canonical_spec.enc spec

let spec =
  fields (fun s no_cache -> { s with no_cache })
  |> inline (spec_members opt) Fun.id
  |> flag "no_cache" (fun s -> s.no_cache)

let session = one "session" int

let request_cases =
  [
    const "ping" Ping;
    case "plan" spec (fun s -> Plan s) (function Plan s -> Some s | _ -> None);
    case "describe" spec
      (fun s -> Describe s)
      (function Describe s -> Some s | _ -> None);
    case "simulate"
      (fields (fun spec periods -> (spec, periods))
      |> inline spec fst
      |> dflt "periods" positive ~default:50 snd)
      (fun (spec, periods) -> Simulate { spec; periods })
      (function Simulate { spec; periods } -> Some (spec, periods) | _ -> None);
    case "churn_create"
      (fields (fun sink power alpha beta gamma -> (sink, power, alpha, beta, gamma))
      |> req "sink" vec2 (fun (s, _, _, _, _) -> s)
      |> req "power" power (fun (_, p, _, _, _) -> p)
      |> alpha (fun (_, _, a, _, _) -> a)
      |> beta (fun (_, _, _, b, _) -> b)
      |> opt "gamma" finite (fun (_, _, _, _, g) -> g))
      (fun (sink, power, alpha, beta, gamma) ->
        Churn_create { sink; power; alpha; beta; gamma })
      (function
        | Churn_create { sink; power; alpha; beta; gamma } ->
            Some (sink, power, alpha, beta, gamma)
        | _ -> None);
    case "churn_add"
      (fields (fun session point -> (session, point))
      |> req "session" int fst
      |> req "point" vec2 snd)
      (fun (session, point) -> Churn_add { session; point })
      (function Churn_add { session; point } -> Some (session, point) | _ -> None);
    case "churn_remove"
      (fields (fun session node -> (session, node))
      |> req "session" int fst
      |> req "node" int snd)
      (fun (session, node) -> Churn_remove { session; node })
      (function Churn_remove { session; node } -> Some (session, node) | _ -> None);
    case "churn_info" session
      (fun session -> Churn_info { session })
      (function Churn_info { session } -> Some session | _ -> None);
    case "churn_close" session
      (fun session -> Churn_close { session })
      (function Churn_close { session } -> Some session | _ -> None);
    const "stats" Stats;
    const "telemetry" Telemetry;
    const "shutdown" Shutdown;
    case "cache_peek" (one "key" string)
      (fun key -> Cache_peek { key })
      (function Cache_peek { key } -> Some key | _ -> None);
    case "cache_advertise"
      (fields (fun origin invalidate keys -> (origin, invalidate, keys))
      |> req "origin" string (fun (o, _, _) -> o)
      |> flag "invalidate" (fun (_, i, _) -> i)
      |> req "keys" (list string) (fun (_, _, k) -> k))
      (fun (origin, invalidate, keys) -> Cache_advertise { origin; invalidate; keys })
      (function
        | Cache_advertise { origin; invalidate; keys } -> Some (origin, invalidate, keys)
        | _ -> None);
  ]

(* [trace] and [deadline_ms] come first on the wire, so only a request
   without them starts with the id prefix (see [split_id]). *)
let request =
  obj
    (fields (fun trace deadline_ms () id body -> { id; deadline_ms; trace; body })
    |> flag "trace" (fun (r : request) -> r.trace)
    |> opt "deadline_ms" number (fun r -> r.deadline_ms)
    |> version_field
    |> req "id" int (fun r -> r.id)
    |> inline (tagged "op" string request_cases) (fun (r : request) -> r.body))

(* Responses ------------------------------------------------------------- *)

let plan_summary =
  obj
    (fields
       (fun nodes links slots rate raw_colors repair_added plan_valid
            point_diversity link_diversity description cached compute_ms ->
         { nodes; links; slots; rate; raw_colors; repair_added; plan_valid;
           point_diversity; link_diversity; description; cached; compute_ms })
    |> req "nodes" int (fun p -> p.nodes)
    |> req "links" int (fun p -> p.links)
    |> req "slots" int (fun p -> p.slots)
    |> req "rate" number (fun p -> p.rate)
    |> req "raw_colors" int (fun p -> p.raw_colors)
    |> req "repair_added" int (fun p -> p.repair_added)
    |> dflt "valid" bool ~default:false (fun p -> p.plan_valid)
    |> req "point_diversity" number (fun p -> p.point_diversity)
    |> req "link_diversity" number (fun p -> p.link_diversity)
    |> req "description" string (fun p -> p.description)
    |> dflt "cached" bool ~default:false (fun p -> p.cached)
    |> req "compute_ms" number (fun p -> p.compute_ms))

let sim_summary =
  obj
    (fields
       (fun sim_slots frames_generated frames_delivered achieved_rate steady_rate
            mean_latency max_latency max_buffer aggregates_correct violations
            idle_slots plan_cached ->
         { sim_slots; frames_generated; frames_delivered; achieved_rate;
           steady_rate; mean_latency; max_latency; max_buffer; aggregates_correct;
           violations; idle_slots; plan_cached })
    |> req "slots" int (fun s -> s.sim_slots)
    |> req "frames_generated" int (fun s -> s.frames_generated)
    |> req "frames_delivered" int (fun s -> s.frames_delivered)
    |> req "achieved_rate" stat_float (fun s -> s.achieved_rate)
    |> req "steady_rate" stat_float (fun s -> s.steady_rate)
    |> req "mean_latency" stat_float (fun s -> s.mean_latency)
    |> req "max_latency" int (fun s -> s.max_latency)
    |> req "max_buffer" int (fun s -> s.max_buffer)
    |> dflt "aggregates_correct" bool ~default:false (fun s -> s.aggregates_correct)
    |> req "violations" int (fun s -> s.violations)
    |> req "idle_slots" int (fun s -> s.idle_slots)
    |> dflt "plan_cached" bool ~default:false (fun s -> s.plan_cached))

let churn_summary =
  obj
    (fields
       (fun session node links_total links_kept links_recolored churn_slots
            recompute_slots ->
         { session; node; links_total; links_kept; links_recolored; churn_slots;
           recompute_slots })
    |> req "session" int (fun (c : churn_summary) -> c.session)
    |> opt "node" int (fun c -> c.node)
    |> req "links_total" int (fun c -> c.links_total)
    |> req "links_kept" int (fun c -> c.links_kept)
    |> req "links_recolored" int (fun c -> c.links_recolored)
    |> req "slots" int (fun c -> c.churn_slots)
    |> req "recompute_slots" int (fun c -> c.recompute_slots))

let session_info =
  obj
    (fields (fun info_session size info_slots info_valid ->
         { info_session; size; info_slots; info_valid })
    |> req "session" int (fun i -> i.info_session)
    |> req "size" int (fun i -> i.size)
    |> req "slots" int (fun i -> i.info_slots)
    |> dflt "valid" bool ~default:false (fun i -> i.info_valid))

let trace_span =
  obj
    (fields (fun t_name t_start_ns t_dur_ns t_depth ->
         { t_name; t_start_ns; t_dur_ns; t_depth })
    |> req "name" string (fun s -> s.t_name)
    |> req "start_ns" int (fun s -> s.t_start_ns)
    |> req "dur_ns" int (fun s -> s.t_dur_ns)
    |> req "depth" int (fun s -> s.t_depth))

let cache_summary =
  obj
    (fields
       (fun cs_entries cs_bytes cs_hits cs_misses cs_coalesced cs_evictions ->
         { cs_entries; cs_bytes; cs_hits; cs_misses; cs_coalesced; cs_evictions })
    |> req "entries" int (fun c -> c.cs_entries)
    |> req "bytes" int (fun c -> c.cs_bytes)
    |> req "hits" int (fun c -> c.cs_hits)
    |> req "misses" int (fun c -> c.cs_misses)
    |> req "coalesced" int (fun c -> c.cs_coalesced)
    |> req "evictions" int (fun c -> c.cs_evictions))

let stats_summary =
  obj
    (fields
       (fun st_requests st_responses st_overloaded st_deadline_misses
            st_inflight_peak st_draining st_workers st_queue_depth
            st_queue_capacity st_in_flight st_cache st_sessions ->
         { st_requests; st_responses; st_overloaded; st_deadline_misses;
           st_inflight_peak; st_draining; st_workers; st_queue_depth;
           st_queue_capacity; st_in_flight; st_cache; st_sessions })
    |> req "requests" int (fun s -> s.st_requests)
    |> req "responses" int (fun s -> s.st_responses)
    |> req "overloaded" int (fun s -> s.st_overloaded)
    |> req "deadline_misses" int (fun s -> s.st_deadline_misses)
    |> req "inflight_peak" int (fun s -> s.st_inflight_peak)
    |> dflt "draining" bool ~default:false (fun s -> s.st_draining)
    |> req "workers" int (fun s -> s.st_workers)
    |> req "queue_depth" int (fun s -> s.st_queue_depth)
    |> req "queue_capacity" int (fun s -> s.st_queue_capacity)
    |> req "in_flight" int (fun s -> s.st_in_flight)
    |> req "cache" cache_summary (fun s -> s.st_cache)
    |> req "sessions" int (fun s -> s.st_sessions))

let op_latency =
  obj
    (fields (fun ol_op ol_count ol_p50_ms ol_p90_ms ol_p99_ms ol_max_ms ->
         { ol_op; ol_count; ol_p50_ms; ol_p90_ms; ol_p99_ms; ol_max_ms })
    |> req "op" string (fun o -> o.ol_op)
    |> req "count" int (fun o -> o.ol_count)
    |> req "p50_ms" stat_float (fun o -> o.ol_p50_ms)
    |> req "p90_ms" stat_float (fun o -> o.ol_p90_ms)
    |> req "p99_ms" stat_float (fun o -> o.ol_p99_ms)
    |> req "max_ms" stat_float (fun o -> o.ol_max_ms))

let exemplar =
  obj
    (fields (fun ex_op ex_id ex_ms -> { ex_op; ex_id; ex_ms })
    |> req "op" string (fun e -> e.ex_op)
    |> req "id" int (fun e -> e.ex_id)
    |> req "ms" number (fun e -> e.ex_ms))

let gc_summary =
  obj
    (fields
       (fun gc_heap_words gc_minor_collections gc_major_collections gc_compactions ->
         { gc_heap_words; gc_minor_collections; gc_major_collections; gc_compactions })
    |> req "heap_words" int (fun g -> g.gc_heap_words)
    |> req "minor_collections" int (fun g -> g.gc_minor_collections)
    |> req "major_collections" int (fun g -> g.gc_major_collections)
    |> req "compactions" int (fun g -> g.gc_compactions))

let backend_row =
  obj
    (fields
       (fun be_name be_healthy be_draining be_queue_depth be_in_flight be_requests
            be_failures be_hit_ratio be_p50_ms be_p99_ms ->
         { be_name; be_healthy; be_draining; be_queue_depth; be_in_flight;
           be_requests; be_failures; be_hit_ratio; be_p50_ms; be_p99_ms })
    |> req "name" string (fun b -> b.be_name)
    |> dflt "healthy" bool ~default:false (fun b -> b.be_healthy)
    |> dflt "draining" bool ~default:false (fun b -> b.be_draining)
    |> req "queue_depth" int (fun b -> b.be_queue_depth)
    |> req "in_flight" int (fun b -> b.be_in_flight)
    |> req "requests" int (fun b -> b.be_requests)
    |> req "failures" int (fun b -> b.be_failures)
    |> req "hit_ratio" stat_float (fun b -> b.be_hit_ratio)
    |> req "p50_ms" stat_float (fun b -> b.be_p50_ms)
    |> req "p99_ms" stat_float (fun b -> b.be_p99_ms))

let fleet_summary =
  obj
    (fields (fun fl_backends fl_rerouted fl_peek_hits fl_gossip_keys ->
         { fl_backends; fl_rerouted; fl_peek_hits; fl_gossip_keys })
    |> req "backends" (list backend_row) (fun f -> f.fl_backends)
    |> req "rerouted" int (fun f -> f.fl_rerouted)
    |> req "peek_hits" int (fun f -> f.fl_peek_hits)
    |> req "gossip_keys" int (fun f -> f.fl_gossip_keys))

let telemetry_summary =
  obj
    (fields
       (fun tel_uptime_s tel_window_s tel_windows tel_in_flight tel_queue_depth
            tel_ops tel_cache tel_sessions tel_exemplars tel_gc tel_fleet ->
         { tel_uptime_s; tel_window_s; tel_windows; tel_in_flight; tel_queue_depth;
           tel_ops; tel_cache; tel_sessions; tel_exemplars; tel_gc; tel_fleet })
    |> req "uptime_s" number (fun t -> t.tel_uptime_s)
    |> req "window_s" number (fun t -> t.tel_window_s)
    |> req "windows" int (fun t -> t.tel_windows)
    |> req "in_flight" int (fun t -> t.tel_in_flight)
    |> req "queue_depth" int (fun t -> t.tel_queue_depth)
    |> req "ops" (list op_latency) (fun t -> t.tel_ops)
    |> req "cache" cache_summary (fun t -> t.tel_cache)
    |> req "sessions" int (fun t -> t.tel_sessions)
    |> req "exemplars" (list exemplar) (fun t -> t.tel_exemplars)
    |> req "gc" gc_summary (fun t -> t.tel_gc)
    |> opt "fleet" fleet_summary (fun t -> t.tel_fleet))

let result c = one "result" c

(* Success: ["op"] names the result's shape.  [Churn_r] answers both
   churn_add and churn_remove under the one op "churn". *)
let result_cases =
  [
    const ~body:(result null) "ping" Pong;
    case "plan" (result plan_summary)
      (fun p -> Plan_r p) (function Plan_r p -> Some p | _ -> None);
    case "describe" (result string)
      (fun d -> Describe_r d) (function Describe_r d -> Some d | _ -> None);
    case "simulate" (result sim_summary)
      (fun s -> Sim_r s) (function Sim_r s -> Some s | _ -> None);
    case "churn_create" (result (obj session))
      (fun s -> Churn_created s) (function Churn_created s -> Some s | _ -> None);
    case "churn" (result churn_summary)
      (fun c -> Churn_r c) (function Churn_r c -> Some c | _ -> None);
    case "churn_info" (result session_info)
      (fun i -> Session_r i) (function Session_r i -> Some i | _ -> None);
    case "churn_close" (result (obj session))
      (fun s -> Churn_closed s) (function Churn_closed s -> Some s | _ -> None);
    case "stats" (result stats_summary)
      (fun s -> Stats_r s) (function Stats_r s -> Some s | _ -> None);
    case "telemetry" (result telemetry_summary)
      (fun t -> Telemetry_r t) (function Telemetry_r t -> Some t | _ -> None);
    const ~body:(result null) "shutdown" Shutdown_ok;
    case "cache_peek"
      (result
         (obj
            (fields (fun present origin -> (present, origin))
            |> dflt "present" bool ~default:false fst
            |> opt "origin" string snd)))
      (fun (present, origin) -> Cache_peek_r { present; origin })
      (function Cache_peek_r { present; origin } -> Some (present, origin) | _ -> None);
    case "cache_advertise"
      (result (obj (one "accepted" int)))
      (fun n -> Advertise_ok n) (function Advertise_ok n -> Some n | _ -> None);
  ]

let error_detail =
  fields (fun code message shard -> (code, message, shard))
  |> req "code" (enum "error code" error_codes) (fun (c, _, _) -> c)
  |> req "message" string (fun (_, m, _) -> m)
  |> opt "shard" string (fun (_, _, s) -> s)

let response =
  obj
    (fields (fun () rid body rtrace -> { rid; body; rtrace })
    |> version_field
    |> req "id" int (fun r -> r.rid)
    |> inline
         (tagged ~default:false "ok" bool
            [
              case true (tagged "op" string result_cases) Fun.id (function
                | Error _ -> None
                | b -> Some b);
              case false
                (one "error" (obj error_detail))
                (fun (code, message, shard) -> Error { code; message; shard })
                (function
                  | Error { code; message; shard } -> Some (code, message, shard)
                  | _ -> None);
            ])
         (fun r -> r.body)
    |> opt "trace" (list trace_span) (fun r -> r.rtrace))

(* Line framing --------------------------------------------------------- *)

let encode_request = request.enc
let encode_response = response.enc
let request_to_line r = Json.to_string ~pretty:false (request.enc r)
let response_to_line r = Json.to_string ~pretty:false (response.enc r)

let request_of_line line =
  let* json = Json.of_string line in
  request.dec json

let response_of_line line =
  let* json = Json.of_string line in
  response.dec json

let id_of_json json =
  Option.value ~default:0 (Option.bind (Json.member "id" json) Json.to_int_opt)

let id_of_line line =
  match Json.of_string line with Ok json -> id_of_json json | Error _ -> 0

let undecodable ~line message =
  match Json.of_string line with
  | Error _ -> error ~id:0 Bad_request message
  | Ok json -> (
      let id = id_of_json json in
      match Option.bind (Json.member "v" json) foreign_version with
      | Some n -> error ~id Bad_version (unsupported_version n)
      | None -> error ~id Bad_request message)

(* Envelope splicing ------------------------------------------------------ *)

(* A response line, and a request line without [trace] or
   [deadline_ms], begins with [line_prefix] and the id digits. *)
let line_prefix = Printf.sprintf {|{"v":%d,"id":|} version
let id_prefix id = line_prefix ^ string_of_int id

(* [s] occurs in [line] at [pos]; no substring is built. *)
let occurs_at line pos s =
  let n = String.length s in
  pos + n <= String.length line
  &&
  let rec eq i = i = n || (line.[pos + i] = s.[i] && eq (i + 1)) in
  eq 0

let split_id line =
  let n = String.length line and start = String.length line_prefix in
  let rec digits i id =
    if i < n && line.[i] >= '0' && line.[i] <= '9' then
      digits (i + 1) ((id * 10) + Char.code line.[i] - Char.code '0')
    else if i > start && i < n then Some (id, i)
    else None
  in
  if occurs_at line 0 line_prefix then digits start 0 else None

let ok_at line pos = occurs_at line pos {|,"ok":true|}

(* Greeting ------------------------------------------------------------- *)

let greeting =
  Json.Obj [ ("service", String "wa_service"); ("version", Int version) ]

let greeting_line = Json.to_string ~pretty:false greeting

let check_greeting line =
  let* json = Json.of_string line in
  match
    ( Option.bind (Json.member "service" json) Json.to_string_opt,
      Option.bind (Json.member "version" json) Json.to_int_opt )
  with
  | Some "wa_service", Some v when v = version -> Ok ()
  | Some "wa_service", Some v ->
      Error (Printf.sprintf "server speaks protocol version %d, client %d" v version)
  | _ -> Error "not a wa_service endpoint"
