module P = Protocol

(* Cross-shard cache gossip: a backend that fills (or evicts) a cache
   entry advertises the keys to its ring neighbors so a router retry
   can peek a warm replica instead of recomputing.  The channel is
   advisory and never authoritative — every failure mode here (full
   queue, dead peer, dropped batch) only costs a potential recompute
   somewhere else, so the sender drops rather than blocks, always. *)

type peer = {
  p_host : string;
  p_port : int;
  mutable p_conn : Client.t option;  (* sender-thread-confined *)
  mutable p_next_try : float;  (* sender-thread-confined *)
  mutable p_backoff : float;  (* sender-thread-confined *)
}

type batch = { b_invalidate : bool; b_keys : string list }

type t = {
  origin : string;
  peers : peer list;
  mu : Mutex.t;
  cond : Condition.t;
  queue : batch Queue.t; [@wa.guarded_by "Gossip.t.mu"]
  mutable stopped : bool; [@wa.guarded_by "Gossip.t.mu"]
  mutable sender : Thread.t option;
}

let max_queue = 256
let backoff_start = 0.5
let backoff_max = 5.0

let disconnect peer =
  match peer.p_conn with
  | Some c ->
      Client.close c;
      peer.p_conn <- None
  | None -> ()

let peer_send t peer batch =
  let now = Unix.gettimeofday () in
  if now >= peer.p_next_try then begin
    (match peer.p_conn with
    | Some _ -> ()
    | None -> (
        match Client.connect ~host:peer.p_host ~port:peer.p_port () with
        | Ok c ->
            peer.p_conn <- Some c;
            peer.p_backoff <- backoff_start
        | Error _ ->
            peer.p_next_try <- now +. peer.p_backoff;
            peer.p_backoff <- Float.min backoff_max (peer.p_backoff *. 2.0)));
    match peer.p_conn with
    | None -> ()
    | Some c -> (
        let body =
          P.Cache_advertise
            {
              origin = t.origin;
              invalidate = batch.b_invalidate;
              keys = batch.b_keys;
            }
        in
        match Client.call c body with
        | Ok { P.body = P.Advertise_ok _; _ } -> ()
        | Ok _ | Error _ ->
            (* Anything but an ack: reconnect later with backoff. *)
            disconnect peer;
            peer.p_next_try <- Unix.gettimeofday () +. peer.p_backoff;
            peer.p_backoff <- Float.min backoff_max (peer.p_backoff *. 2.0))
  end

let sender_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.cond t.mu
    done;
    if t.stopped && Queue.is_empty t.queue then begin
      running := false;
      Mutex.unlock t.mu
    end
    else begin
      let batch = Queue.pop t.queue in
      (* Merge consecutive batches with the same polarity so a fill
         burst becomes one advertisement line per peer. *)
      let keys = ref (List.rev batch.b_keys) in
      while
        (not (Queue.is_empty t.queue))
        && (Queue.peek t.queue).b_invalidate = batch.b_invalidate
        && List.length !keys < 64
      do
        keys := List.rev_append (Queue.pop t.queue).b_keys !keys
      done;
      let batch = { batch with b_keys = List.rev !keys } in
      Mutex.unlock t.mu;
      List.iter (fun peer -> peer_send t peer batch) t.peers
    end
  done;
  List.iter disconnect t.peers

let create ~origin ~peers =
  let peers =
    List.map
      (fun (p_host, p_port) ->
        { p_host; p_port; p_conn = None; p_next_try = 0.0; p_backoff = backoff_start })
      peers
  in
  let t =
    {
      origin;
      peers;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      sender = None;
    }
  in
  (* The sender spends its time blocked on the queue or the network,
     so it is a systhread: a domain of its own would gain nothing and
     would join every stop-the-world collection. *)
  if not (List.is_empty peers) then
    t.sender <- Some (Thread.create (fun () -> sender_loop t) ());
  t

(* Never blocks: with no peers it is a no-op, with a full queue the
   batch is dropped. *)
let push t ~invalidate keys =
  if not (List.is_empty t.peers) && not (List.is_empty keys) then begin
    Mutex.lock t.mu;
    if (not t.stopped) && Queue.length t.queue < max_queue then begin
      Queue.push { b_invalidate = invalidate; b_keys = keys } t.queue;
      Condition.signal t.cond
    end;
    Mutex.unlock t.mu
  end

let stop t =
  Mutex.lock t.mu;
  t.stopped <- true;
  Condition.signal t.cond;
  Mutex.unlock t.mu;
  match t.sender with
  | Some th ->
      Thread.join th;
      t.sender <- None
  | None -> ()
