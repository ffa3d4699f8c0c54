module P = Wa_service.Protocol
module Client = Wa_service.Client

(* Process supervision for a local fleet: spawn N backend processes,
   wire their gossip neighborhoods from the same consistent-hash ring
   the router uses, poll readiness, restart members that die within a
   bounded budget, and tear everything down.

   The orchestrator is deliberately not part of the router: the router
   only ever sees addresses, so a fleet can also be assembled from
   externally-managed processes (or in-process servers in tests) and
   handed to {!Router.create} directly. *)

type member = {
  m_name : string;
  m_port : int;
  m_argv : string array;
  mutable m_pid : int;
  mutable m_restarts : int;
}

type config = {
  base_port : int;  (* backend i listens on base_port + i *)
  count : int;
  gossip_fanout : int;  (* ring successors advertised to, per member *)
  restart_budget : int;  (* restarts allowed per member *)
  ready_timeout_s : float;
  make_argv : name:string -> port:int -> peers:(string * int) list -> string array;
      (* Command line for one backend; argv.(0) is the executable. *)
}

let default_config ~make_argv =
  {
    base_port = 7461;
    count = 3;
    gossip_fanout = 2;
    restart_budget = 3;
    ready_timeout_s = 20.0;
    make_argv;
  }

type t = {
  config : config;
  members : member list;
  mutable stopped : bool;
}

let member_name i = Printf.sprintf "shard%d" i

(* Gossip neighborhoods come from the same ring geometry the router
   routes by: each member advertises fills to its [gossip_fanout] ring
   successors, so a key's failover shards are exactly the ones warmed
   for it. *)
let gossip_peers ~count ~fanout =
  let names = List.init count member_name in
  let ring = Ring.create names in
  List.map (fun name -> (name, Ring.successors ring name fanout)) names

let spawn_member (m : member) =
  let dev_null_r = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close dev_null_r)
      (fun () ->
        Unix.create_process m.m_argv.(0) m.m_argv dev_null_r Unix.stdout
          Unix.stderr)
  in
  m.m_pid <- pid

let create config =
  if config.count < 1 then invalid_arg "Orchestrator.create: count < 1";
  let peers = gossip_peers ~count:config.count ~fanout:config.gossip_fanout in
  let port_of name =
    (* member_name i -> base_port + i *)
    let i = int_of_string (String.sub name 5 (String.length name - 5)) in
    config.base_port + i
  in
  let members =
    List.mapi
      (fun i (name, succ) ->
        let port = config.base_port + i in
        let peer_addrs = List.map (fun s -> ("127.0.0.1", port_of s)) succ in
        {
          m_name = name;
          m_port = port;
          m_argv = config.make_argv ~name ~port ~peers:peer_addrs;
          m_pid = 0;
          m_restarts = 0;
        })
      peers
  in
  let t = { config; members; stopped = false } in
  List.iter spawn_member members;
  t

let backend_addrs t =
  List.map
    (fun m ->
      { Router.a_name = m.m_name; a_host = "127.0.0.1"; a_port = m.m_port })
    t.members

(* One readiness probe: connect and exchange a ping. *)
let ping_member m =
  match Client.connect ~port:m.m_port () with
  | Error _ -> false
  | Ok c ->
      let ok =
        match Client.call c P.Ping with
        | Ok { P.body = P.Pong; _ } -> true
        | Ok _ | Error _ -> false
      in
      Client.close c;
      ok

let wait_ready t =
  let deadline = Unix.gettimeofday () +. t.config.ready_timeout_s in
  let rec wait_for m =
    if ping_member m then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      wait_for m
    end
  in
  List.for_all wait_for t.members

(* Reap exited children; restart within budget.  Call periodically
   (the [wa fleet] CLI does, between supervision naps).  Returns the
   names of members restarted this sweep. *)
let supervise t =
  if t.stopped then []
  else
    List.filter_map
      (fun m ->
        match Unix.waitpid [ Unix.WNOHANG ] m.m_pid with
        | 0, _ -> None
        | _, _ ->
            if m.m_restarts >= t.config.restart_budget then None
            else begin
              m.m_restarts <- m.m_restarts + 1;
              spawn_member m;
              Some m.m_name
            end
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None)
      t.members

(* Polite shutdown: a protocol-level [shutdown] lets the backend drain
   its queue; SIGKILL is the fallback for a wedged process. *)
let stop_member m =
  (match Client.connect ~port:m.m_port () with
  | Ok c ->
      (match Client.call c P.Shutdown with Ok _ | Error _ -> ());
      Client.close c
  | Error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] m.m_pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill m.m_pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] m.m_pid)
        end
        else begin
          Unix.sleepf 0.05;
          reap ()
        end
    | _, _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let stop_all t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter stop_member t.members
  end

(* Kill one member hard, without marking the fleet stopped — the
   chaos lever the fleet smoke test pulls mid-burst. *)
let kill_member t name =
  match List.find_opt (fun m -> m.m_name = name) t.members with
  | None -> false
  | Some m -> (
      try
        Unix.kill m.m_pid Sys.sigkill;
        ignore (Unix.waitpid [] m.m_pid);
        true
      with Unix.Unix_error _ -> false)
