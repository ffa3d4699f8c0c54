(* wa_bench: the benchmark of this repository.

   Runs the four workloads named in BENCHMARK.json (repository root),
   checks every plan it receives, and prints every metric by name and
   unit; the last line of standard output is one JSON object with the
   pass's metrics.  See README.md next to this file for the workloads,
   the metric glossary and the calibration table.

   Two passes per workload:
   - the end-to-end pass drives the system as its users do and times
     what they see (set-up, latency percentiles, plan quality);
   - the traced pass times calls into each layer's public functions
     from here (pipeline stages, protocol codec, engine hit line,
     server and router round trips) on the workload's own inputs.
     Nothing inside the libraries is instrumented for it.

   Served workloads run the plan server, and the fleet router where
   used, as subprocesses (this binary re-executed with --role), so the
   generator's allocation and GC never pause the system under test.
   Load comes from this one process: one thread, at most two
   connections. *)

module P = Wa_service.Protocol
module Engine = Wa_service.Engine
module Pipeline = Wa_core.Pipeline
module Ring = Wa_fleet.Ring
module Json = Wa_util.Json
module Rng = Wa_util.Rng
module T = Traffic

let now = T.now
let ms_since t = (now () -. t) *. 1000.0

(* Workloads ----------------------------------------------------------- *)

type workload = Served_cold | Plan_large | Served_cached | Routed_mixed

let workloads = [ Served_cold; Plan_large; Served_cached; Routed_mixed ]

let name = function
  | Served_cold -> "served-cold"
  | Plan_large -> "plan-large"
  | Served_cached -> "served-cached"
  | Routed_mixed -> "routed-mixed"

(* The shape of one workload.  The full sizes are the benchmark; the
   smoke sizes only exercise every code path and check. *)
type shape = {
  n : int;  (** Nodes per deployment. *)
  power : Pipeline.power_mode;
  specs : int;  (** Distinct inputs: working set or instance pool. *)
  quality : int;
      (** Slots are averaged over the distinct plans of this many
          leading inputs, so [slots_mean] is fixed by the seed. *)
  shards : int;  (** Backend processes; 0 = in-process. *)
  cache_entries : int;  (** Per backend. *)
  setups : int;  (** Set-ups timed per run; [setup_s] is their median. *)
  rates : float list;  (** Open-loop arrival rates, equal time each. *)
  zipf_s : float;
  warm : int;  (** Requests run during set-up to fill the caches. *)
  cold_probes : int;  (** Traced pass: cold requests timed per server. *)
}

let shape ~smoke = function
  | Served_cold ->
      {
        n = (if smoke then 200 else 1500);
        power = `Global;
        specs = max_int;
        quality = (if smoke then 4 else 100);
        shards = 1;
        cache_entries = (if smoke then 2 else 8);
        setups = (if smoke then 2 else 5);
        rates = [];
        zipf_s = 0.0;
        warm = 0;
        cold_probes = (if smoke then 2 else 10);
      }
  | Plan_large ->
      {
        n = (if smoke then 1000 else 1500);
        power = `Global;
        specs = (if smoke then 4 else 256);
        quality = (if smoke then 2 else 150);
        shards = 0;
        cache_entries = 128;
        setups = (if smoke then 2 else 5);
        rates = [];
        zipf_s = 0.0;
        warm = 0;
        cold_probes = 1;
      }
  | Served_cached ->
      {
        n = (if smoke then 100 else 1000);
        power = `Global;
        specs = (if smoke then 8 else 64);
        quality = (if smoke then 8 else 64);
        shards = 1;
        cache_entries = 128;
        setups = (if smoke then 1 else 3);
        rates = (if smoke then [ 200.0; 800.0 ] else [ 2000.0; 8000.0 ]);
        zipf_s = 1.1;
        warm = 0;
        cold_probes = (if smoke then 2 else 10);
      }
  | Routed_mixed ->
      {
        n = (if smoke then 60 else 300);
        power = `Oblivious 0.5;
        specs = (if smoke then 64 else 512);
        quality = (if smoke then 40 else 400);
        shards = 2;
        cache_entries = (if smoke then 8 else 64);
        setups = (if smoke then 1 else 3);
        rates = [ 50.0 ];
        zipf_s = 1.0;
        warm = (if smoke then 40 else 400);
        cold_probes = (if smoke then 2 else 10);
      }

(* Input [i] of a workload: a generated spec whose deployment seed is
   derived from the run seed, so the same seed gives the same inputs
   and the system receives only the spec. *)
let spec_of w (sh : shape) ~seed i =
  {
    P.deploy =
      P.Generate
        { kind = "uniform"; n = sh.n; seed = Hashtbl.hash (seed, name w, i); side = 1000.0 };
    power = sh.power;
    alpha = 3.0;
    beta = 1.0;
    gamma = None;
    engine = `Indexed;
    no_cache = false;
  }

let params_of (spec : P.plan_spec) =
  Wa_sinr.Params.make ~alpha:spec.P.alpha ~beta:spec.P.beta ()

let stream_rng ~seed w what = Rng.create (Hashtbl.hash (seed, name w, what))

(* Results ------------------------------------------------------------- *)

(* One measured value in the row schema shared by every workload:
   [reps] samples stand behind [value], [spread] is their interquartile
   range in the metric's unit (0 for a single sample or a count). *)
type row = {
  workload : string;
  n : int;
  metric : string;
  value : float;
  unit_ : string;
  reps : int;
  spread : float;
  final : bool;  (** Part of the pass's result line. *)
}

let layer_of metric =
  match String.index_opt metric '.' with
  | None -> "e2e"
  | Some i -> (
      match String.sub metric 0 i with
      | "stage" | "pipeline" | "plan" | "conflict" -> "wa_core"
      | "protocol" -> "wa_service.protocol"
      | "engine" -> "wa_service.engine"
      | "cache" -> "wa_service.cache"
      | "server" -> "wa_service.server"
      | "router" -> "wa_fleet.router"
      | "gen" -> "generator"
      | _ -> "e2e")

type ctx = {
  w : workload;
  sh : shape;
  seed : int;
  seconds : float;
  mutable attempted : int;
  mutable failed : int;
  mutable incorrect : int;
  mutable rows : row list;  (** Newest first. *)
}

let emit ctx ?(final = false) ?(reps = 1) ?(spread = 0.0) metric unit_ value =
  Printf.printf "  %-13s %-20s %-26s %14.6g %-5s reps %d, spread %.4g\n%!"
    (name ctx.w) (layer_of metric) metric value unit_ reps spread;
  ctx.rows <-
    { workload = name ctx.w; n = ctx.sh.n; metric; value; unit_; reps; spread; final }
    :: ctx.rows

let mismatch ctx fmt =
  Printf.ksprintf
    (fun m ->
      ctx.incorrect <- ctx.incorrect + 1;
      Printf.printf "  MISMATCH %s: %s\n%!" (name ctx.w) m)
    fmt

let refused ctx m =
  ctx.failed <- ctx.failed + 1;
  Printf.printf "  FAILED %s: %s\n%!" (name ctx.w) m

(* Median, then p90; and the highest percentile the sample supports
   (at least ten samples beyond it) when that is above p90.  Failed
   requests enter as +inf: they miss any latency limit. *)
let iqr s = Sample.percentile s 75.0 -. Sample.percentile s 25.0

let emit_latency ctx ?(final = true) ?(prefix = "") samples =
  match samples with
  | [] -> refused ctx "no latency samples"
  | _ ->
      let s = Sample.of_list samples in
      let reps = Sample.count s and spread = iqr s in
      emit ctx ~final ~reps ~spread (prefix ^ "p50_ms") "ms" (Sample.median s);
      emit ctx ~final ~reps ~spread (prefix ^ "p90_ms") "ms" (Sample.percentile s 90.0);
      match Sample.tail_percentile s with
      | Some p when p > 90.0 ->
          emit ctx ~reps (Printf.sprintf "%sp%g_ms" prefix p) "ms" (Sample.percentile s p)
      | Some _ -> ()
      | None ->
          Printf.printf "  note: %d samples support no percentile with 10 beyond it\n%!"
            reps

let mean_of = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Set up [times] times, keep the last, release the others; the median
   set-up time is the workload's [setup_s]. *)
let repeated_setup ctx ~release setup =
  let rec go k acc =
    let t = now () in
    let v = setup () in
    let acc = (now () -. t) :: acc in
    if k <= 1 then begin
      let s = Sample.of_list acc in
      emit ctx ~final:true ~reps:(Sample.count s) ~spread:(iqr s) "setup_s" "s" (Sample.median s);
      v
    end
    else begin
      release v;
      go (k - 1) acc
    end
  in
  go ctx.sh.setups []

(* Answers ------------------------------------------------------------- *)

type answer = Plan_ok of P.plan_summary | Refused of string

let answer_of_line line =
  match P.response_of_line line with
  | Ok { P.body = P.Plan_r s; _ } -> Plan_ok s
  | Ok { P.body = P.Error { code; message; _ }; _ } ->
      Refused (P.error_code_to_string code ^ ": " ^ message)
  | Ok _ -> Refused ("unexpected response: " ^ line)
  | Error m -> Refused ("undecodable response: " ^ m)

let check_plan ctx ~what ?cached (s : P.plan_summary) =
  if not s.P.plan_valid then mismatch ctx "%s: plan_valid is false" what;
  if s.P.nodes <> ctx.sh.n then mismatch ctx "%s: %d nodes, asked for %d" what s.P.nodes ctx.sh.n;
  match cached with
  | Some c when c <> s.P.cached -> mismatch ctx "%s: cached is %b, expected %b" what s.P.cached c
  | _ -> ()

(* The plan facts two computations of one spec must agree on. *)
type facts = { slots : int; links : int; raw_colors : int; repair_added : int }

let facts_of_summary (s : P.plan_summary) =
  { slots = s.P.slots; links = s.P.links; raw_colors = s.P.raw_colors; repair_added = s.P.repair_added }

let facts_of_plan (p : Pipeline.plan) =
  {
    slots = Pipeline.slots p;
    links = Wa_core.Agg_tree.link_count p.Pipeline.agg;
    raw_colors = p.Pipeline.raw_colors;
    repair_added = p.Pipeline.repair_added;
  }

let same_facts ctx ~what a b =
  if a <> b then
    mismatch ctx "%s: slots/links/raw/repair %d/%d/%d/%d vs %d/%d/%d/%d" what a.slots
      a.links a.raw_colors a.repair_added b.slots b.links b.raw_colors b.repair_added

(* What the engine computes for [spec], in this process. *)
let plan_of (spec : P.plan_spec) ps =
  Pipeline.plan ~params:(params_of spec) ?gamma:spec.P.gamma ~engine:spec.P.engine
    spec.P.power ps

(* Processes ----------------------------------------------------------- *)

let children : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap pid =
  let deadline = now () +. 10.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  Hashtbl.remove children pid

(* Whatever way this process exits, no subprocess outlives it. *)
let kill_children () =
  let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) children [] in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids;
  Hashtbl.reset children

(* Read one line from [fd] within [timeout] seconds. *)
let read_line_fd fd ~timeout =
  let buf = Buffer.create 32 and b = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.select [ fd ] [] [] (Float.max 0.0 (deadline -. now ())) with
    | [], _, _ -> failwith "subprocess did not report ready in time"
    | _ -> (
        match Unix.read fd b 0 1 with
        | 0 -> failwith "subprocess exited before it was ready"
        | _ ->
            if Bytes.get b 0 = '\n' then Buffer.contents buf
            else begin
              Buffer.add_bytes buf b;
              go ()
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* CPU placement.  With two or more CPUs and [taskset] available, this
   process (the load generator and the in-process workloads) runs on
   CPU 0 and every subprocess of the system under test on CPU 1, so
   each side keeps one domain (the OCaml runtime sizes its fan-outs by
   the affinity mask) and the generator never takes the system's
   core.  On a small shared host the two CPUs are often hyperthreads
   of one busy core: a two-domain plan then swings by up to 1.7x with
   the neighbours' load, while one pinned domain holds within a few
   percent at about the same median speed (README.md, "Why pinned"). *)
let pinned_var = "WA_BENCH_PINNED"

let taskset =
  String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:"")
  |> List.map (fun d -> Filename.concat d "taskset")
  |> List.find_opt Sys.file_exists

let pinned () = Sys.getenv_opt pinned_var = Some "1" && Option.is_some taskset

(* Called first thing: re-execute on CPU 0 unless already placed. *)
let place_on_cpu0 () =
  match taskset with
  | Some ts when Sys.getenv_opt pinned_var = None && Domain.recommended_domain_count () >= 2 ->
      Unix.putenv pinned_var "1";
      Unix.execv ts
        (Array.append [| ts; "-c"; "0"; Sys.executable_name |]
           (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)))
  | _ -> ()

type proc = { pid : int; port : int }

(* Re-execute this binary in a role, on CPU 1 when placed; it prints
   "ready <port>" once it listens. *)
let spawn args =
  let argv =
    Array.of_list
      (match taskset with
      | Some ts when pinned () -> ts :: "-c" :: "1" :: Sys.executable_name :: args
      | _ -> Sys.executable_name :: args)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null w Unix.stderr)
  in
  Hashtbl.replace children pid ();
  Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
  match String.split_on_char ' ' (read_line_fd r ~timeout:30.0) with
  | [ "ready"; p ] -> { pid; port = int_of_string p }
  | _ -> failwith "subprocess sent a malformed ready line"

let request_line body = P.request_to_line { P.id = 1; deadline_ms = None; trace = false; body }

(* The request line after its id: requests are sent as
   [Traffic.request_line ~id tail]. *)
let tail_of body =
  let line = P.request_to_line { P.id = 0; deadline_ms = None; trace = false; body } in
  let head = T.request_line ~id:0 "" in
  if not (String.starts_with ~prefix:head line) then
    failwith "request lines no longer start with the id envelope";
  let cut = String.length head in
  String.sub line cut (String.length line - cut)

let with_conn port f =
  let c = T.connect ~port () in
  Fun.protect ~finally:(fun () -> T.close c) (fun () -> f c)

let call_body port body =
  with_conn port (fun c ->
      match P.response_of_line (T.call c (request_line body)) with
      | Ok r -> r.P.body
      | Error m -> failwith ("undecodable response: " ^ m))

let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> failwith "free_ports: not an inet socket")
      socks
  in
  List.iter Unix.close socks;
  ports

type system = { backends : (string * proc) list; router : proc option; ring : Ring.t }

(* Router health is earned by its first probe of each backend; traffic
   before that would be refused. *)
let wait_healthy port count =
  let deadline = now () +. 20.0 in
  with_conn port @@ fun c ->
  let rec go () =
    let healthy =
      match P.response_of_line (T.call c (request_line P.Telemetry)) with
      | Ok { P.body = P.Telemetry_r { P.tel_fleet = Some fl; _ }; _ } ->
          List.length (List.filter (fun b -> b.P.be_healthy) fl.P.fl_backends)
      | _ -> 0
    in
    if healthy < count then
      if now () > deadline then failwith "the router never saw every backend healthy"
      else begin
        Unix.sleepf 0.002;
        go ()
      end
  in
  go ()

(* The fleet layout [wa fleet] uses: shardI backends gossiping to their
   ring successors, optionally fronted by the consistent-hash router.
   Ports are taken free up front because gossip peers must be known
   when each backend starts. *)
let boot ~shards ~cache_entries ~router =
  let names = List.init shards (Printf.sprintf "shard%d") in
  let ring = Ring.create names in
  let ports = List.combine names (free_ports shards) in
  let backends =
    List.map
      (fun name ->
        let peers =
          List.concat_map
            (fun s -> [ "--peer"; Printf.sprintf "127.0.0.1:%d" (List.assoc s ports) ])
            (Ring.successors ring name 2)
        in
        ( name,
          spawn
            ([ "--role"; "backend"; "--name"; name; "--port";
               string_of_int (List.assoc name ports); "--cache-entries";
               string_of_int cache_entries ]
            @ peers) ))
      names
  in
  List.iter
    (fun (_, p) ->
      match call_body p.port P.Ping with
      | P.Pong -> ()
      | _ -> failwith "backend answered ping without pong")
    backends;
  let router =
    if not router then None
    else begin
      let r =
        spawn
          ("--role" :: "router"
          :: List.concat_map
               (fun (name, p) -> [ "--shard"; Printf.sprintf "%s:%d" name p.port ])
               backends)
      in
      wait_healthy r.port shards;
      Some r
    end
  in
  { backends; router; ring }

let front sys =
  match sys.router with Some r -> r.port | None -> (snd (List.hd sys.backends)).port

let home sys spec =
  match Ring.lookup sys.ring (Engine.spec_key spec) with
  | Some name -> (List.assoc name sys.backends).port
  | None -> failwith "empty ring"

let stop_proc p =
  (try ignore (call_body p.port P.Shutdown) with Failure _ | Unix.Unix_error _ -> ());
  reap p.pid

let stop sys =
  Option.iter stop_proc sys.router;
  List.iter (fun (_, p) -> stop_proc p) sys.backends

let stats port =
  match call_body port P.Stats with
  | P.Stats_r s -> s
  | _ -> failwith "stats: unexpected response"

(* Server-side counters over the measured phase only. *)
let emit_stats_delta ctx ~(before : P.stats_summary) ~(after : P.stats_summary) =
  let c0 = before.P.st_cache and c1 = after.P.st_cache in
  let hits = c1.P.cs_hits - c0.P.cs_hits + (c1.P.cs_coalesced - c0.P.cs_coalesced) in
  let misses = c1.P.cs_misses - c0.P.cs_misses in
  if hits + misses > 0 then
    emit ctx ~reps:(hits + misses) "cache.hit_ratio" "ratio"
      (float_of_int hits /. float_of_int (hits + misses));
  emit ctx "cache.evictions" "count" (float_of_int (c1.P.cs_evictions - c0.P.cs_evictions));
  emit ctx "server.overloaded" "count"
    (float_of_int (after.P.st_overloaded - before.P.st_overloaded));
  emit ctx "server.deadline_misses" "count"
    (float_of_int (after.P.st_deadline_misses - before.P.st_deadline_misses))

(* End-to-end pass ----------------------------------------------------- *)

(* The two CPU-bound closed loops run every input twice, seconds apart,
   and time it by the better of the two.  On a shared host a burst of
   load elsewhere slows whatever runs during it by up to 1.7x; it
   seldom covers both runs of one input, so the best-of-two
   percentiles follow the code and not the neighbours (README.md,
   "Calibration").  [runs] holds each input's timings, newest first;
   inputs timed only once are left out. *)
let best_of_two runs =
  List.filter_map
    (fun l -> match List.rev l with a :: b :: _ -> Some (Float.min a b) | _ -> None)
    runs

(* Request [p]'s spec: [gap] new specs, then new specs alternating with
   repeats of the spec [gap] new specs back, so every spec is asked
   twice and each time after [gap] or more stores of other specs. *)
let cold_spec_index ~gap p =
  if p < gap then p else if (p - gap) mod 2 = 0 then gap + ((p - gap) / 2) else (p - gap) / 2

let served_cold ctx =
  let sh = ctx.sh in
  let spec = spec_of ctx.w sh ~seed:ctx.seed in
  (* Twice the cache's capacity apart, a spec has always been evicted,
     so both of its requests miss, store and evict (checked). *)
  let gap = 2 * sh.cache_entries in
  let first_ask j = if j < gap then j else gap + (2 * (j - gap)) in
  let sys =
    repeated_setup ctx ~release:stop (fun () ->
        boot ~shards:1 ~cache_entries:sh.cache_entries ~router:false)
  in
  Fun.protect ~finally:(fun () -> stop sys) @@ fun () ->
  let port = front sys in
  let before = stats port in
  let raw = ref [] in
  let runs = Hashtbl.create 256 and first = Hashtbl.create 256 in
  let t_end = now () +. ctx.seconds in
  let p = ref 0 in
  with_conn port (fun c ->
      (* Closed loop, one connection. *)
      while !p <= first_ask (sh.quality - 1) || now () < t_end do
        let j = cold_spec_index ~gap !p in
        let line = T.request_line ~id:(!p + 1) (tail_of (P.Plan (spec j))) in
        ctx.attempted <- ctx.attempted + 1;
        let t0 = now () in
        let resp = T.call c line in
        let ms = ms_since t0 in
        (match (T.split_response resp, answer_of_line resp) with
        | Some (id, _), Plan_ok s when id = !p + 1 ->
            let what = Printf.sprintf "request %d (spec %d)" !p j in
            check_plan ctx ~what ~cached:false s;
            (match Hashtbl.find_opt first j with
            | None -> Hashtbl.replace first j s
            | Some s0 -> same_facts ctx ~what (facts_of_summary s) (facts_of_summary s0));
            Hashtbl.replace runs j (ms :: Option.value ~default:[] (Hashtbl.find_opt runs j));
            raw := ms :: !raw
        | _, Refused m ->
            refused ctx m;
            raw := infinity :: !raw
        | _ -> mismatch ctx "request %d: response id does not match" !p);
        incr p
      done);
  emit_stats_delta ctx ~before ~after:(stats port);
  emit_latency ctx (best_of_two (Hashtbl.fold (fun _ l acc -> l :: acc) runs []));
  emit_latency ctx ~final:false ~prefix:"request." !raw;
  let quality = List.filter_map (Hashtbl.find_opt first) (List.init sh.quality Fun.id) in
  emit ctx ~final:true ~reps:(List.length quality) "slots_mean" "slots"
    (mean_of (List.map (fun s -> float_of_int s.P.slots) quality));
  (* The server's answers must equal the library's: re-plan three of
     the specs in-process (after the timed phase, so the check never
     competes with the server). *)
  List.iter
    (fun j ->
      Option.iter
        (fun s ->
          same_facts ctx
            ~what:(Printf.sprintf "spec %d vs in-process plan" j)
            (facts_of_summary s)
            (facts_of_plan (plan_of (spec j) (Engine.pointset_of_spec (spec j)))))
        (Hashtbl.find_opt first j))
    [ 0; sh.quality / 2; sh.quality - 1 ]

let plan_large ctx =
  let sh = ctx.sh in
  let specs = Array.init sh.specs (spec_of ctx.w sh ~seed:ctx.seed) in
  let pool =
    repeated_setup ctx ~release:ignore (fun () -> Array.map Engine.pointset_of_spec specs)
  in
  (* The library path: telemetry off, so no pressure pass.  Passes over
     the pool, so an instance's runs are a whole pass apart. *)
  let runs = Array.make sh.specs [] and slots = Array.make sh.specs 0 in
  let t_end = now () +. ctx.seconds in
  let i = ref 0 in
  while !i < sh.specs + sh.quality || now () < t_end do
    let k = !i mod sh.specs in
    let spec = specs.(k) in
    ctx.attempted <- ctx.attempted + 1;
    let t0 = now () in
    let plan = plan_of spec pool.(k) in
    runs.(k) <- ms_since t0 :: runs.(k);
    if not plan.Pipeline.valid then mismatch ctx "instance %d: plan is not valid" k;
    if Wa_core.Agg_tree.size plan.Pipeline.agg <> sh.n then
      mismatch ctx "instance %d: wrong node count" k;
    if slots.(k) <> 0 && slots.(k) <> Pipeline.slots plan then
      mismatch ctx "instance %d: replanned to another slot count" k;
    slots.(k) <- Pipeline.slots plan;
    incr i
  done;
  let all = List.concat (Array.to_list runs) in
  emit_latency ctx (best_of_two (Array.to_list runs));
  emit_latency ctx ~final:false ~prefix:"call." all;
  emit ctx ~final:true ~reps:sh.quality "slots_mean" "slots"
    (mean_of (Array.to_list (Array.map float_of_int (Array.sub slots 0 sh.quality))))

(* Open-loop traffic over two connections.  [check i s] validates the
   plan answering request [i]; decoded answers are memoized by the
   line after the id, which is identical for every hit on one plan, so
   the generator decodes each distinct answer once. *)
let drive ctx ~port ~tails ~pick ~due ~check =
  let conns = Array.init 2 (fun _ -> T.connect ~port ()) in
  let memo = Hashtbl.create 1024 in
  let answers = Array.make (Array.length due) None in
  let on_response i line =
    let a =
      match T.split_response line with
      | None -> Refused "response without an id"
      | Some (_, tail) -> (
          match Hashtbl.find_opt memo tail with
          | Some a -> a
          | None ->
              let a = answer_of_line line in
              Hashtbl.replace memo tail a;
              a)
    in
    answers.(i) <- Some a;
    match a with Plan_ok s -> check i s | Refused _ -> ()
  in
  let o =
    Fun.protect
      ~finally:(fun () -> Array.iter T.close conns)
      (fun () ->
        T.open_loop ~conns ~due ~tail:(fun i -> tails.(pick.(i))) ~on_response
          ~timeout_s:10.0)
  in
  ctx.attempted <- ctx.attempted + Array.length due;
  if o.T.unmatched > 0 then mismatch ctx "%d response(s) matched no request" o.T.unmatched;
  let lat =
    Array.mapi
      (fun i l ->
        match answers.(i) with
        | Some (Plan_ok _) -> l
        | Some (Refused m) ->
            refused ctx m;
            infinity
        | None ->
            refused ctx (Printf.sprintf "request %d unanswered" i);
            infinity)
      o.T.latency_ms
  in
  let late = Sample.of_array (Array.map (fun l -> if Float.is_nan l then infinity else l) o.T.late_ms) in
  if Sample.count late > 0 then begin
    emit ctx ~reps:(Sample.count late) "gen.late_p50_ms" "ms" (Sample.median late);
    emit ctx ~reps:(Sample.count late) "gen.late_max_ms" "ms" (Sample.percentile late 100.0)
  end;
  (lat, answers)

(* Poisson arrivals at each rate for an equal share of the run, with
   Zipf-drawn inputs. *)
let stepped_schedule ctx =
  let sh = ctx.sh in
  let rng = stream_rng ~seed:ctx.seed ctx.w "arrivals" in
  let share = ctx.seconds /. float_of_int (List.length sh.rates) in
  let phases =
    List.mapi
      (fun k rate ->
        let offset = share *. float_of_int k in
        (rate, Array.map (fun t -> t +. offset) (T.poisson_schedule rng ~rate ~seconds:share)))
      sh.rates
  in
  (phases, Array.concat (List.map snd phases))

let emit_phases ctx phases lat =
  if List.length phases > 1 then
    ignore
      (List.fold_left
         (fun start (rate, due) ->
           let k = Array.length due in
           emit_latency ctx ~final:false
             ~prefix:(Printf.sprintf "r%g." rate)
             (Array.to_list (Array.sub lat start k));
           start + k)
         0 phases)

let served_cached ctx =
  let sh = ctx.sh in
  let specs = Array.init sh.specs (spec_of ctx.w sh ~seed:ctx.seed) in
  let tails = Array.map (fun s -> tail_of (P.Plan s)) specs in
  let warm = Array.make sh.specs None in
  let sys =
    repeated_setup ctx ~release:stop (fun () ->
        let sys = boot ~shards:1 ~cache_entries:sh.cache_entries ~router:false in
        with_conn (front sys) (fun c ->
            Array.iteri
              (fun k tail ->
                match answer_of_line (T.call c (T.request_line ~id:(k + 1) tail)) with
                | Plan_ok s ->
                    check_plan ctx ~what:(Printf.sprintf "warm-up %d" k) ~cached:false s;
                    warm.(k) <- Some (facts_of_summary s)
                | Refused m -> failwith ("warm-up: " ^ m))
              tails);
        sys)
  in
  Fun.protect ~finally:(fun () -> stop sys) @@ fun () ->
  let port = front sys in
  let zipf = Zipf.create ~s:sh.zipf_s sh.specs in
  let phases, due = stepped_schedule ctx in
  let rng = stream_rng ~seed:ctx.seed ctx.w "inputs" in
  let pick = Array.map (fun _ -> Zipf.draw zipf rng) due in
  let before = stats port in
  let lat, _ =
    drive ctx ~port ~tails ~pick ~due ~check:(fun i s ->
        (* Every request is a hit on a plan computed during set-up. *)
        let k = pick.(i) in
        check_plan ctx ~what:(Printf.sprintf "request %d" i) ~cached:true s;
        match warm.(k) with
        | Some f -> same_facts ctx ~what:(Printf.sprintf "hit on spec %d" k) (facts_of_summary s) f
        | None -> mismatch ctx "spec %d was never warmed" k)
  in
  emit_stats_delta ctx ~before ~after:(stats port);
  emit_latency ctx (Array.to_list lat);
  emit_phases ctx phases lat;
  let quality =
    List.filteri (fun k _ -> k < sh.quality) (Array.to_list warm)
    |> List.filter_map (Option.map (fun f -> float_of_int f.slots))
  in
  emit ctx ~final:true ~reps:(List.length quality) "slots_mean" "slots" (mean_of quality)

let routed_mixed ctx =
  let sh = ctx.sh in
  let specs = Array.init sh.specs (spec_of ctx.w sh ~seed:ctx.seed) in
  let tails = Array.map (fun s -> tail_of (P.Plan s)) specs in
  let zipf = Zipf.create ~s:sh.zipf_s sh.specs in
  (* One seeded input stream: its first [warm] draws fill the caches
     during set-up, the rest is the measured traffic. *)
  let rng = stream_rng ~seed:ctx.seed ctx.w "inputs" in
  let warm_pick = Array.init sh.warm (fun _ -> Zipf.draw zipf rng) in
  let seen = Array.make sh.specs None in
  let record what k (s : P.plan_summary) =
    check_plan ctx ~what s;
    let f = facts_of_summary s in
    match seen.(k) with
    | None -> seen.(k) <- Some f
    | Some f0 -> same_facts ctx ~what:(Printf.sprintf "%s (spec %d, seen before)" what k) f f0
  in
  let sys =
    repeated_setup ctx ~release:stop (fun () ->
        let sys = boot ~shards:sh.shards ~cache_entries:sh.cache_entries ~router:true in
        with_conn (front sys) (fun c ->
            Array.iteri
              (fun j k ->
                match answer_of_line (T.call c (T.request_line ~id:(j + 1) tails.(k))) with
                | Plan_ok s -> record (Printf.sprintf "warm-up %d" j) k s
                | Refused m -> failwith ("warm-up: " ^ m))
              warm_pick);
        sys)
  in
  Fun.protect ~finally:(fun () -> stop sys) @@ fun () ->
  let port = front sys in
  let phases, due = stepped_schedule ctx in
  let pick = Array.map (fun _ -> Zipf.draw zipf rng) due in
  let before = stats port in
  let lat, answers =
    drive ctx ~port ~tails ~pick ~due ~check:(fun i s ->
        record (Printf.sprintf "request %d" i) pick.(i) s)
  in
  emit_stats_delta ctx ~before ~after:(stats port);
  emit_latency ctx (Array.to_list lat);
  emit_phases ctx phases lat;
  let misses =
    List.filteri
      (fun i _ -> match answers.(i) with Some (Plan_ok s) -> not s.P.cached | _ -> false)
      (Array.to_list lat)
  in
  if misses <> [] then emit_latency ctx ~final:false ~prefix:"miss_" misses;
  (* Quality over the distinct plans of the set-up stream: fixed by the
     seed, whatever the timing of the measured phase. *)
  let quality =
    Array.to_list warm_pick
    |> List.sort_uniq compare
    |> List.filter_map (fun k -> Option.map (fun f -> float_of_int f.slots) seen.(k))
  in
  emit ctx ~final:true ~reps:(List.length quality) "slots_mean" "slots" (mean_of quality)

(* Traced pass --------------------------------------------------------- *)

let mode_of = function
  | `Global -> Wa_core.Greedy_schedule.Global_power
  | `Oblivious tau -> Wa_core.Greedy_schedule.Oblivious_power tau
  | `Uniform -> Wa_core.Greedy_schedule.Fixed_scheme Wa_sinr.Power.Uniform
  | `Linear -> Wa_core.Greedy_schedule.Fixed_scheme Wa_sinr.Power.Linear

let stage_names = [| "mst"; "index"; "conflict"; "color"; "validate"; "pressure" |]

(* [Pipeline.plan]'s stage calls, made one by one and timed from here,
   with the same gates: the index only for thresholded modes, pressure
   only when telemetry is on (the gate's own cost is what a run without
   telemetry pays).  Returns stage milliseconds, the conflict-edge
   count and the plan facts. *)
let replay_stages (spec : P.plan_spec) ps =
  let module G = Wa_core.Greedy_schedule in
  let params = params_of spec and gamma = spec.P.gamma and engine = spec.P.engine in
  let ms = Array.make (Array.length stage_names) 0.0 in
  let timed k f =
    let t = now () in
    let v = f () in
    ms.(k) <- ms_since t;
    v
  in
  let agg = timed 0 (fun () -> Wa_core.Agg_tree.mst ~sink:0 ps) in
  let mode = mode_of spec.P.power in
  let ls = agg.Wa_core.Agg_tree.links in
  let index =
    timed 1 (fun () ->
        match (engine, G.threshold_for ?gamma mode) with
        | `Indexed, Some _ -> Some (Wa_sinr.Link_index.build ls)
        | _ -> None)
  in
  let graph = timed 2 (fun () -> G.conflict_graph ?gamma ~engine ?index params ls mode) in
  let coloring =
    timed 3 (fun () ->
        Wa_graph.Coloring.greedy ~order:(Wa_sinr.Linkset.by_decreasing_length ls) graph)
  in
  let raw =
    Wa_core.Schedule.of_coloring coloring
      (match mode with
      | G.Global_power -> Wa_core.Schedule.Arbitrary
      | G.Oblivious_power tau -> Wa_core.Schedule.Scheme (Wa_sinr.Power.Oblivious tau)
      | G.Fixed_scheme s -> Wa_core.Schedule.Scheme s)
  in
  let schedule, repair_added, valid =
    timed 4 (fun () -> Wa_core.Schedule.repair_validated params ls raw)
  in
  timed 5 (fun () ->
      if Wa_obs.enabled () then ignore (Wa_core.Refinement.longer_pressure params ls));
  ( ms,
    Wa_graph.Graph.edge_count graph,
    valid,
    {
      slots = Wa_core.Schedule.length schedule;
      links = Wa_sinr.Linkset.size ls;
      raw_colors = Wa_core.Schedule.length raw;
      repair_added;
    } )

(* Words allocated by the calling domain.  The minor collection first
   settles the counts of fan-out domains that have already finished,
   which the runtime would otherwise fold in at a timing-dependent
   point. *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Replay the workload's first (at most 40) inputs in turn for the
   pass's time, mirroring the telemetry state of the system that plans
   them: a server enables telemetry, so pressure runs; the library path
   does not.  The counts come from the first [counted] inputs, so they
   repeat exactly for a seed.  Returns the facts of each replayed
   input. *)
let trace_stages ctx =
  let sh = ctx.sh in
  let served = ctx.w <> Plan_large in
  let counted = min sh.quality 4 and cycle = min sh.specs 40 in
  let spec = spec_of ctx.w sh ~seed:ctx.seed in
  let stage_sum = Array.make (Array.length stage_names) 0.0 in
  let plan_ms = ref 0.0 and replays = ref 0 in
  let counts = Array.make 6 0.0 in
  let facts = Hashtbl.create 64 in
  if served then Wa_obs.enable ();
  let t_end = now () +. ctx.seconds in
  Fun.protect ~finally:(fun () -> if served then Wa_obs.disable (); Wa_obs.reset ())
  @@ fun () ->
  while !replays < counted || now () < t_end do
    let i = !replays mod cycle in
    let spec = spec i in
    let ps = Engine.pointset_of_spec spec in
    let whole () =
      let a0 = allocated_words () in
      let t = now () in
      let plan = plan_of spec ps in
      let ms = ms_since t in
      (plan, ms, allocated_words () -. a0)
    in
    (* Alternate which of the two runs first, so heap and cache state
       left behind by one is not always billed to the other. *)
    let (plan, ms, words), (stage_ms, edges, valid, f) =
      if !replays mod 2 = 0 then begin
        let w = whole () in
        Wa_obs.reset ();
        (w, replay_stages spec ps)
      end
      else begin
        let r = replay_stages spec ps in
        Wa_obs.reset ();
        (whole (), r)
      end
    in
    Wa_obs.reset ();
    ctx.attempted <- ctx.attempted + 1;
    if not (valid && plan.Pipeline.valid) then mismatch ctx "replay %d: plan is not valid" i;
    same_facts ctx ~what:(Printf.sprintf "replay %d vs Pipeline.plan" i) f (facts_of_plan plan);
    Hashtbl.replace facts i f;
    Array.iteri (fun k v -> stage_sum.(k) <- stage_sum.(k) +. v) stage_ms;
    plan_ms := !plan_ms +. ms;
    if !replays < counted then
      List.iteri
        (fun k v -> counts.(k) <- counts.(k) +. v)
        [
          float_of_int f.links; float_of_int edges; float_of_int f.raw_colors;
          float_of_int f.repair_added; float_of_int f.slots; words /. 1e6;
        ];
    incr replays
  done;
  let r = float_of_int !replays in
  let final = true and reps = !replays in
  Array.iteri
    (fun k s -> emit ctx ~final ~reps ("stage." ^ s ^ "_ms") "ms" (stage_sum.(k) /. r))
    stage_names;
  let stages = Array.fold_left ( +. ) 0.0 stage_sum /. r in
  emit ctx ~final ~reps "pipeline.plan_ms" "ms" (!plan_ms /. r);
  emit ctx ~final ~reps "pipeline.unattributed_ms" "ms" ((!plan_ms /. r) -. stages);
  List.iteri
    (fun k (m, u) -> emit ctx ~final ~reps:counted m u (counts.(k) /. float_of_int counted))
    [
      ("plan.links", "count"); ("conflict.edges", "count"); ("plan.raw_colors", "count");
      ("plan.repair_added", "count"); ("plan.slots", "count"); ("pipeline.alloc_mwords", "Mword");
    ];
  emit ctx "pipeline.domains" "count" (float_of_int (Domain.recommended_domain_count ()));
  facts

(* Mean microseconds per call of [f] over [inputs], cycling through
   them for at least [budget] seconds (and at least one full pass). *)
let time_calls ~budget inputs f =
  let k = Array.length inputs in
  let calls = ref 0 in
  let t0 = now () in
  while !calls < k || now () -. t0 < budget do
    f inputs.(!calls mod k);
    incr calls
  done;
  ((now () -. t0) *. 1e6 /. float_of_int !calls, !calls)

(* Timed closed-loop round trips of one request line. *)
let round_trips conn line count =
  Array.init count (fun _ ->
      let t = now () in
      ignore (T.call conn line);
      (now () -. t) *. 1e6)

let traced_pass ctx =
  let sh = ctx.sh in
  let spec = spec_of ctx.w sh ~seed:ctx.seed in
  let budget = if ctx.seconds < 2.0 then 0.02 else 0.25 in
  let facts = trace_stages ctx in
  (* Engine: the hit line on a warmed in-process engine, with the
     workload's first input as the hot key. *)
  let hot = spec 0 in
  let engine = Engine.create () in
  (match Engine.handle engine (P.Plan hot) with
  | P.Plan_r _ -> ()
  | _ -> mismatch ctx "in-process engine could not plan the hot spec");
  (match Engine.cached_plan_line engine hot ~id:7 with
  | Some line -> (
      match answer_of_line line with
      | Plan_ok s -> check_plan ctx ~what:"engine hit line" ~cached:true s
      | Refused m -> mismatch ctx "engine hit line: %s" m)
  | None -> mismatch ctx "engine hit line: hot spec not cached");
  let hit_line_us, hit_calls =
    time_calls ~budget [| hot |] (fun s -> ignore (Engine.cached_plan_line engine s ~id:7))
  in
  ctx.attempted <- ctx.attempted + 1;
  (* Server and router: a fleet laid out as the workload's, fronted by
     a router; every request goes to its home shard directly unless it
     is the routed half of the hop measurement. *)
  let sys = boot ~shards:(max 1 sh.shards) ~cache_entries:128 ~router:true in
  let request_lines = ref [] and cold_lines = ref [] and hit_lines = ref [] in
  let noncompute = ref [] in
  let direct, routed =
    Fun.protect ~finally:(fun () -> stop sys) @@ fun () ->
    let probe k ~cached =
      let s = spec k in
      let line = T.request_line ~id:(k + 1) (tail_of (P.Plan s)) in
      with_conn (home sys s) @@ fun c ->
      let t = now () in
      let resp = T.call c line in
      let ms = ms_since t in
      ctx.attempted <- ctx.attempted + 1;
      match answer_of_line resp with
      | Plan_ok r ->
          check_plan ctx ~what:(Printf.sprintf "probe %d" k) ~cached r;
          Option.iter
            (fun f -> same_facts ctx ~what:(Printf.sprintf "served %d vs replay" k) (facts_of_summary r) f)
            (Hashtbl.find_opt facts k);
          request_lines := line :: !request_lines;
          if cached then hit_lines := resp :: !hit_lines
          else begin
            cold_lines := resp :: !cold_lines;
            noncompute := (ms -. r.P.compute_ms) :: !noncompute
          end
      | Refused m -> refused ctx m
    in
    for k = 0 to sh.cold_probes - 1 do probe k ~cached:false done;
    for k = 0 to sh.cold_probes - 1 do probe k ~cached:true done;
    (* Hot-key hits, direct and through the router, interleaved in
       blocks so drift lands on both sides of the difference. *)
    let line = T.request_line ~id:1 (tail_of (P.Plan hot)) in
    let blocks = if ctx.seconds < 2.0 then 4 else 20 and block = 50 in
    with_conn (home sys hot) @@ fun d ->
    with_conn (front sys) @@ fun r ->
    ignore (round_trips d line 20);
    ignore (round_trips r line 20);
    let direct = ref [] and routed = ref [] in
    for _ = 1 to blocks do
      direct := round_trips d line block :: !direct;
      routed := round_trips r line block :: !routed
    done;
    (match (answer_of_line (T.call d line), answer_of_line (T.call r line)) with
    | Plan_ok a, Plan_ok b ->
        check_plan ctx ~what:"direct hit" ~cached:true a;
        check_plan ctx ~what:"routed hit" ~cached:true b;
        same_facts ctx ~what:"routed vs direct hit" (facts_of_summary a) (facts_of_summary b)
    | _ -> mismatch ctx "hot-key hits did not return plans");
    ctx.attempted <- ctx.attempted + (2 * blocks * block);
    (Sample.of_array (Array.concat !direct), Sample.of_array (Array.concat !routed))
  in
  (* Protocol codec on the workload's own lines: the requests it sends,
     and the responses it mostly receives (hits for the cached
     workloads, cold answers otherwise). *)
  let requests = Array.of_list !request_lines in
  let responses =
    Array.of_list
      (match ctx.w with
      | Served_cached | Routed_mixed -> !hit_lines
      | Served_cold | Plan_large -> !cold_lines)
    |> Array.map (fun l ->
           match P.response_of_line l with
           | Ok r -> r
           | Error m -> failwith ("probe response does not decode: " ^ m))
  in
  let decode_us, decodes =
    time_calls ~budget requests (fun l ->
        match P.request_of_line l with
        | Ok _ -> ()
        | Error m -> failwith ("request line does not decode: " ^ m))
  in
  let encode_us, encodes = time_calls ~budget responses (fun r -> ignore (P.response_to_line r)) in
  let bytes =
    mean_of (Array.to_list (Array.map (fun r -> float_of_int (String.length (P.response_to_line r))) responses))
  in
  let final = true in
  emit ctx ~final ~reps:decodes "protocol.decode_us" "us" decode_us;
  emit ctx ~final ~reps:encodes "protocol.encode_us" "us" encode_us;
  emit ctx ~final ~reps:(Array.length responses) "protocol.response_bytes" "bytes" bytes;
  emit ctx ~final ~reps:hit_calls "engine.hit_line_us" "us" hit_line_us;
  let nc = Sample.of_list !noncompute in
  emit ctx ~final ~reps:(Sample.count nc) "server.noncompute_ms" "ms" (mean_of !noncompute);
  let rtt = Sample.median direct in
  emit ctx ~final ~reps:(Sample.count direct) "server.hit_rtt_us" "us" rtt;
  emit ctx ~final ~reps:(Sample.count direct) "server.loop_us" "us" (rtt -. decode_us -. hit_line_us);
  emit ctx ~final ~reps:(Sample.count routed) "router.hop_us" "us" (Sample.median routed -. rtt)

(* Roles --------------------------------------------------------------- *)

(* A subprocess announces its port once it listens, then stops writing
   to the pipe its parent reads. *)
let announce port =
  Printf.printf "ready %d\n%!" port;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null

let host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let a = String.sub s 0 i and p = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt p with Some p -> Some (a, p) | None -> None)
  | None -> None

(* Usage ----------------------------------------------------------------- *)

let usage =
  {|usage: wa_bench.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                   [--repeat K] [--json PATH] [--smoke]

  --workload NAME  served-cold, plan-large, served-cached or routed-mixed
                   (default: all four, in that order)
  --seed N         input seed (default 1); the same seed gives the same inputs
  --seconds S      measured seconds per pass (default 20)
  --trace 0|1      0: end-to-end pass only; 1: traced (per-layer) pass only
                   (default: both passes)
  --traced         same as --trace 1
  --repeat K       calibration: K runs per workload with seeds N..N+K-1, each
                   in a fresh process, alternating the workload order; prints
                   each metric's median and spread and flags end-to-end
                   metrics whose spread exceeds their BENCHMARK.json bound
  --json PATH      also write every row (layer, workload, n, metric, value,
                   unit, reps, spread) to PATH
  --smoke          all four workloads, both passes, at reduced size; asserts
                   every check and that every BENCHMARK.json metric is
                   emitted with its unit

The last line of standard output is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
with metric names prefixed by "<workload>/" when more than one pass ran.
|}

let usage_error msg =
  Printf.eprintf "wa_bench: %s\n%s" msg usage;
  exit 2

type opts = {
  only : workload list;
  seed : int;
  seconds : float;
  trace : bool option;  (** [None]: both passes. *)
  repeat : int option;
  json : string option;
  smoke : bool;
}

let parse_opts args =
  let int_arg f v =
    match int_of_string_opt v with Some i -> i | None -> usage_error (f ^ " expects an integer")
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> (
        match List.find_opt (fun w -> name w = v) workloads with
        | Some w -> go { o with only = [ w ] } rest
        | None -> usage_error ("unknown workload " ^ v))
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 && s <= 3600.0 -> go { o with seconds = s } rest
        | _ -> usage_error "--seconds expects a positive number")
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = Some (v = "1") } rest
    | "--trace" :: _ -> usage_error "--trace expects 0 or 1"
    | "--traced" :: rest -> go { o with trace = Some true } rest
    | "--repeat" :: v :: rest ->
        let k = int_arg "--repeat" v in
        if k < 2 then usage_error "--repeat needs at least 2 runs";
        go { o with repeat = Some k } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ -> usage_error ("unknown or incomplete argument " ^ a)
  in
  go
    { only = workloads; seed = 1; seconds = 20.0; trace = None; repeat = None; json = None; smoke = false }
    args

let run_role = function
  | "backend" :: args ->
      let rec go (port, name, cache, peers) = function
        | [] -> (port, name, cache, List.rev peers)
        | "--port" :: v :: rest -> go (int_of_string v, name, cache, peers) rest
        | "--name" :: v :: rest -> go (port, v, cache, peers) rest
        | "--cache-entries" :: v :: rest -> go (port, name, int_of_string v, peers) rest
        | "--peer" :: v :: rest -> (
            match host_port v with
            | Some hp -> go (port, name, cache, hp :: peers) rest
            | None -> usage_error ("--peer expects HOST:PORT, got " ^ v))
        | a :: _ -> usage_error ("unknown backend argument " ^ a)
      in
      let port, name, cache_entries, peers = go (0, "", 128, []) args in
      let srv =
        Wa_service.Server.create
          { Wa_service.Server.default_config with port; name; peers; cache_entries }
      in
      announce (Wa_service.Server.port srv);
      Wa_service.Server.run srv
  | "router" :: args ->
      let shard v =
        match host_port v with
        | Some (a_name, a_port) -> { Wa_fleet.Router.a_name; a_host = "127.0.0.1"; a_port }
        | None -> usage_error ("--shard expects NAME:PORT, got " ^ v)
      in
      let rec go acc = function
        | [] -> List.rev acc
        | "--shard" :: v :: rest -> go (shard v :: acc) rest
        | a :: _ -> usage_error ("unknown router argument " ^ a)
      in
      let backends = go [] args in
      let r =
        Wa_fleet.Router.create { (Wa_fleet.Router.default_config ~backends) with port = 0 }
      in
      announce (Wa_fleet.Router.port r);
      Wa_fleet.Router.run r
  | _ -> usage_error "--role expects backend or router"

(* Runs ------------------------------------------------------------------ *)

let run_pass ~smoke ~seed ~seconds ~traced w =
  let ctx =
    {
      w;
      sh = shape ~smoke w;
      seed;
      seconds;
      attempted = 0;
      failed = 0;
      incorrect = 0;
      rows = [];
    }
  in
  Printf.printf "%s, %s pass, seed %d, %g s\n%!" (name w)
    (if traced then "traced" else "end-to-end")
    seed seconds;
  (try
     if traced then traced_pass ctx
     else
       match w with
       | Served_cold -> served_cold ctx
       | Plan_large -> plan_large ctx
       | Served_cached -> served_cached ctx
       | Routed_mixed -> routed_mixed ctx
   with Failure m | Invalid_argument m | Unix.Unix_error (_, m, _) ->
     ctx.attempted <- max 1 ctx.attempted;
     mismatch ctx "run aborted: %s" m);
  kill_children ();
  ctx

let row_json r =
  Json.Obj
    [
      ("layer", String (layer_of r.metric));
      ("workload", String r.workload);
      ("n", Int r.n);
      ("metric", String r.metric);
      ("value", Float r.value);
      ("unit", String r.unit_);
      ("reps", Int r.reps);
      ("spread", Float r.spread);
    ]

let write_rows path rows =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Json.to_channel oc
    (Json.Obj [ ("benchmark", String "wa_bench"); ("rows", List (List.map row_json rows)) ]);
  output_char oc '\n'

(* The result line: the pass's gated metrics, by name. *)
let result_line ~prefixed ctxs =
  let metrics =
    List.concat_map
      (fun c ->
        List.rev c.rows
        |> List.filter (fun r -> r.final)
        |> List.map (fun r ->
               ( (if prefixed then r.workload ^ "/" ^ r.metric else r.metric),
                 Json.Obj [ ("value", Float r.value); ("unit", String r.unit_) ] )))
      ctxs
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 ctxs in
  Json.to_string ~pretty:false
    (Json.Obj
       [
         ("correct", Bool (sum (fun c -> c.incorrect) = 0));
         ("attempted", Int (sum (fun c -> c.attempted)));
         ("failed", Int (sum (fun c -> c.failed)));
         ("metrics", Obj metrics);
       ])

(* BENCHMARK.json ---------------------------------------------------------- *)

type bench_metric = { b_name : string; b_unit : string; b_bound : float option }

(* Found by walking up from the working directory: the repository root
   when run from a checkout, the build context under dune. *)
let load_benchmark () =
  let rec find dir =
    let p = Filename.concat dir "BENCHMARK.json" in
    if Sys.file_exists p then p
    else
      let up = Filename.dirname dir in
      if up = dir then failwith "BENCHMARK.json not found above the working directory"
      else find up
  in
  let path = find (Sys.getcwd ()) in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = match Json.of_string text with Ok d -> d | Error m -> failwith (path ^ ": " ^ m) in
  let list key =
    match Json.member key doc with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let str k = Option.bind (Json.member k m) Json.to_string_opt in
            match (str "name", str "unit") with
            | Some b_name, Some b_unit ->
                { b_name; b_unit; b_bound = Option.bind (Json.member "bound" m) Json.to_float_opt }
            | _ -> failwith (path ^ ": metric without name or unit"))
          l
    | _ -> failwith (path ^ ": missing " ^ key)
  in
  (list "end_to_end", list "per_layer")

(* Calibration ------------------------------------------------------------- *)

(* One pass in a fresh process, the way a single run is made;
   returns its parsed result line. *)
let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close w) (fun () ->
        Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr)
  in
  Hashtbl.replace children pid ();
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let status = snd (Unix.waitpid [] pid) in
  Hashtbl.remove children pid;
  let last =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "") |> List.rev
  in
  match (status, last) with
  | Unix.WEXITED 0, l :: _ -> (
      match Json.of_string l with
      | Ok j -> j
      | Error m -> failwith ("child result line: " ^ m))
  | _ ->
      print_string out;
      failwith ("child run failed: " ^ String.concat " " args)

let calibrate opts k =
  let e2e, per_layer = load_benchmark () in
  let traced = opts.trace = Some true in
  let listed = if traced then per_layer else e2e in
  let runs = Hashtbl.create 16 in
  let bad = ref 0 in
  for i = 0 to k - 1 do
    let order = if i mod 2 = 0 then opts.only else List.rev opts.only in
    List.iter
      (fun w ->
        let seed = opts.seed + i in
        let t = now () in
        let j =
          run_child
            [
              "--workload"; name w; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" opts.seconds; "--trace"; (if traced then "1" else "0");
            ]
        in
        let get key = Option.value ~default:Json.Null (Json.member key j) in
        if get "correct" <> Json.Bool true || Json.to_int_opt (get "failed") <> Some 0 then begin
          incr bad;
          Printf.printf "  run %d of %s: incorrect or failed requests\n" i (name w)
        end;
        Printf.printf "run %d/%d %-13s seed %d, %.1f s:" (i + 1) k (name w) seed (now () -. t);
        List.iter
          (fun m ->
            match
              Option.bind
                (Option.bind (Json.member "metrics" j) (Json.member m.b_name))
                (fun v -> Option.bind (Json.member "value" v) Json.to_float_opt)
            with
            | Some x ->
                Printf.printf " %s=%.4g" m.b_name x;
                let key = (w, m.b_name) in
                Hashtbl.replace runs key (x :: Option.value ~default:[] (Hashtbl.find_opt runs key))
            | None ->
                incr bad;
                Printf.printf " %s MISSING" m.b_name)
          listed;
        print_newline ())
      order
  done;
  let rows = ref [] in
  List.iter
    (fun w ->
      Printf.printf "\n%s: %d runs, seeds %d..%d\n" (name w) k opts.seed (opts.seed + k - 1);
      Printf.printf "  %-26s %14s %12s %9s %7s  %s\n" "metric" "median" "IQR" "spread" "bound" "";
      List.iter
        (fun m ->
          match Hashtbl.find_opt runs (w, m.b_name) with
          | None -> ()
          | Some values ->
              let q1, med, q3 = Sample.quartiles values in
              let spread = Sample.relative_iqr values in
              let verdict =
                match m.b_bound with
                | Some b when m.b_name <> "setup_s" && not (spread <= b) ->
                    incr bad;
                    "OVER BOUND: run longer or use a lower percentile"
                | Some b when m.b_name <> "setup_s" && spread > b /. 3.0 -> "over a third of the bound"
                | Some _ -> "ok"
                | None -> ""
              in
              Printf.printf "  %-26s %14.6g %12.4g %8.2f%% %6s  %s\n" m.b_name med (q3 -. q1)
                (100.0 *. spread)
                (match m.b_bound with Some b -> Printf.sprintf "%g%%" (100.0 *. b) | None -> "-")
                verdict;
              rows :=
                {
                  workload = name w;
                  n = (shape ~smoke:false w).n;
                  metric = m.b_name;
                  value = med;
                  unit_ = m.b_unit;
                  reps = k;
                  spread = q3 -. q1;
                  final = true;
                }
                :: !rows)
        listed)
    opts.only;
  Option.iter (fun p -> write_rows p (List.rev !rows)) opts.json;
  if !bad > 0 then begin
    Printf.printf "\ncalibration: %d problem(s)\n" !bad;
    exit 1
  end

(* Smoke ------------------------------------------------------------------- *)

let smoke opts =
  let e2e, per_layer = load_benchmark () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let ctxs =
    List.concat_map
      (fun w ->
        List.map
          (fun traced ->
            let c = run_pass ~smoke:true ~seed:opts.seed ~seconds:0.5 ~traced w in
            let pass = if traced then "traced" else "end-to-end" in
            let listed = if traced then per_layer else e2e in
            if c.incorrect > 0 || c.failed > 0 then
              problem "%s %s pass: %d incorrect, %d failed" (name w) pass c.incorrect c.failed;
            let finals = List.filter (fun r -> r.final) c.rows in
            List.iter
              (fun m ->
                match List.find_opt (fun r -> r.metric = m.b_name) finals with
                | None -> problem "%s %s pass: %s not emitted" (name w) pass m.b_name
                | Some r ->
                    if r.unit_ <> m.b_unit then
                      problem "%s: %s in %s, BENCHMARK.json says %s" (name w) m.b_name r.unit_
                        m.b_unit;
                    if not (Float.is_finite r.value) then
                      problem "%s: %s is not finite" (name w) m.b_name
                    else if (not traced) && r.value <= 0.0 then
                      problem "%s: %s is not positive" (name w) m.b_name)
              listed;
            List.iter
              (fun r ->
                if not (List.exists (fun m -> m.b_name = r.metric) listed) then
                  problem "%s: %s emitted but not in BENCHMARK.json" (name w) r.metric)
              finals;
            c)
          [ false; true ])
      workloads
  in
  let rows = List.concat_map (fun c -> List.rev c.rows) ctxs in
  (match opts.json with
  | None -> ()
  | Some path -> (
      write_rows path rows;
      let back = In_channel.with_open_bin path In_channel.input_all in
      match Json.of_string back with
      | Ok doc -> (
          match Json.member "rows" doc with
          | Some (Json.List l) ->
              if List.length l <> List.length rows then problem "%s: row count changed" path;
              List.iter
                (fun r ->
                  List.iter
                    (fun k -> if Json.member k r = None then problem "%s: a row lacks %s" path k)
                    [ "layer"; "workload"; "n"; "metric"; "value"; "unit"; "reps"; "spread" ])
                l
          | _ -> problem "%s: no rows" path)
      | Error m -> problem "%s does not parse back: %s" path m));
  List.iter (Printf.eprintf "SMOKE FAILURE: %s\n") (List.rev !problems);
  print_endline (result_line ~prefixed:true ctxs);
  if !problems <> [] then exit 1

(* Main -------------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "--role" :: role -> run_role role
  | _ ->
      let opts = parse_opts args in
      place_on_cpu0 ();
      if not (pinned ()) then
        print_endline "note: not pinned to CPUs (needs taskset and two CPUs)";
      (* A dead peer must be a write error, not a fatal signal; and an
         interrupted run still reaps its subprocesses (at_exit). *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm ];
      at_exit kill_children;
      if opts.smoke then smoke opts
      else
        match opts.repeat with
        | Some k -> calibrate opts k
        | None ->
            let passes = match opts.trace with None -> [ false; true ] | Some t -> [ t ] in
            let ctxs =
              List.concat_map
                (fun w ->
                  List.map
                    (fun traced ->
                      run_pass ~smoke:false ~seed:opts.seed ~seconds:opts.seconds ~traced w)
                    passes)
                opts.only
            in
            Option.iter
              (fun p -> write_rows p (List.concat_map (fun c -> List.rev c.rows) ctxs))
              opts.json;
            print_endline (result_line ~prefixed:(List.length ctxs > 1) ctxs);
            if List.exists (fun c -> c.incorrect > 0) ctxs then exit 1
