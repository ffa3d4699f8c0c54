module Json = Wa_util.Json

(* One line-framed TCP endpoint: an accepted client connection or an
   outbound link to a peer.  Reads are event-loop-confined; writes may
   come from any thread and serialize whole lines under [wlock]. *)
type endpoint = {
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;  (** Serializes whole lines on [oc]. *)
  rbuf : Buffer.t;  (** Event-loop-confined (see DESIGN.md §15). *)
  rchunk : Bytes.t;
      (** Read scratch, event-loop-confined.  Allocated once per
          endpoint: at 64 KiB it lands on the major heap, and a fresh
          one per readable event charges the major GC ~200 µs of
          marking debt per wakeup — dominating proxy-path latency. *)
  mutable eof : bool;  (** Peer closed its write side; loop-confined. *)
  mutable alive : bool; [@wa.benign_race]
      (** Our write side still works.  Written under [wlock] on the
          send path but read/written bare on the loop; a stale read
          only delays reaping by one iteration. *)
  mutable fd_closed : bool;  (** Loop-confined. *)
  mutable unflushed : bool; [@wa.guarded_by "Event_loop.endpoint.wlock"]
      (** A deferred-flush write is buffered in [oc]. *)
}

let read_chunk_len = 65536

let endpoint fd =
  {
    fd;
    oc = Unix.out_channel_of_descr fd;
    wlock = Mutex.create ();
    rbuf = Buffer.create 1024;
    rchunk = Bytes.create read_chunk_len;
    eof = false;
    alive = true;
    fd_closed = false;
    unflushed = false;
  }

let fd ep = ep.fd
let eof ep = ep.eof
let alive ep = ep.alive
let mark_dead ep = ep.alive <- false

let close ep =
  if not ep.fd_closed then begin
    ep.fd_closed <- true;
    (* [oc] wraps the same descriptor, so closing it closes the fd. *)
    close_out_noerr ep.oc
  end

(* Writing: one whole line (or streamed JSON value) plus newline under
   the lock.  A write failure marks the endpoint dead instead of
   raising — the loop reaps it. *)

let write_failed ep = ep.alive <- false

let send_line ep line =
  Mutex.lock ep.wlock;
  (if ep.alive then
     try
       output_string ep.oc line;
       output_char ep.oc '\n';
       flush ep.oc;
       ep.unflushed <- false
     with Sys_error _ | Unix.Unix_error _ -> write_failed ep);
  Mutex.unlock ep.wlock;
  ep.alive

(* [Json.to_channel] streams — a large response never exists as one
   string. *)
let send_json ep json =
  Mutex.lock ep.wlock;
  (if ep.alive then
     try
       Json.to_channel ~pretty:false ep.oc json;
       output_char ep.oc '\n';
       flush ep.oc;
       ep.unflushed <- false
     with Sys_error _ | Unix.Unix_error _ -> write_failed ep);
  Mutex.unlock ep.wlock;
  ep.alive

(* Deferred-flush variant for hot loops: many lines written while the
   loop drains one readable batch share a single flush ({!flush_now}
   at the end of the batch). *)
let send_line_nf ep line =
  Mutex.lock ep.wlock;
  (if ep.alive then
     try
       output_string ep.oc line;
       output_char ep.oc '\n';
       ep.unflushed <- true
     with Sys_error _ | Unix.Unix_error _ -> write_failed ep);
  Mutex.unlock ep.wlock;
  ep.alive

(* Id-splice send for proxies: [prefix] then [line] from [pos] on,
   one newline, flush deferred.  Writing the two pieces straight into
   the channel avoids materialising the spliced line — on the fleet
   router's response path that is two multi-kilobyte copies per
   forwarded plan. *)
let send_spliced_nf ep prefix line pos =
  Mutex.lock ep.wlock;
  (if ep.alive then
     try
       output_string ep.oc prefix;
       output_substring ep.oc line pos (String.length line - pos);
       output_char ep.oc '\n';
       ep.unflushed <- true
     with Sys_error _ | Unix.Unix_error _ -> write_failed ep);
  Mutex.unlock ep.wlock;
  ep.alive

let flush_now ep =
  Mutex.lock ep.wlock;
  (if ep.alive && ep.unflushed then
     try
       flush ep.oc;
       ep.unflushed <- false
     with Sys_error _ | Unix.Unix_error _ -> write_failed ep);
  Mutex.unlock ep.wlock

(* Reading: pull one chunk, split the buffer into complete lines and
   hand each to [on_line].  [on_overflow] fires when a partial line
   exceeds [max_line]; the endpoint is also marked eof+dead so the
   caller's reaper collects it. *)

let[@wa.event_loop] drain_lines ~max_line ~on_line ~on_overflow ep =
  let s = Buffer.contents ep.rbuf in
  let n = String.length s in
  let start = ref 0 in
  (try
     while !start < n do
       match String.index_from s !start '\n' with
       | nl ->
           let line = String.sub s !start (nl - !start) in
           start := nl + 1;
           on_line ep line
       | exception Not_found -> raise Exit
     done
   with Exit -> ());
  Buffer.clear ep.rbuf;
  if !start < n then Buffer.add_substring ep.rbuf s !start (n - !start);
  if Buffer.length ep.rbuf > max_line then begin
    on_overflow ep;
    ep.eof <- true;
    ep.alive <- false
  end

let[@wa.event_loop] handle_readable ~max_line ~on_line ~on_overflow ep =
  match Unix.read ep.fd ep.rchunk 0 read_chunk_len with
  | 0 -> ep.eof <- true
  | n ->
      Buffer.add_subbytes ep.rbuf ep.rchunk 0 n;
      drain_lines ~max_line ~on_line ~on_overflow ep
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      ep.eof <- true;
      ep.alive <- false
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

(* Accepting and connecting --------------------------------------------- *)

let listen ~host ~port =
  let addr = Unix.inet_addr_of_string host in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try Unix.bind listen_fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd 64;
  listen_fd

let bound_port ~fallback fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> fallback

let[@wa.event_loop] accept ~listen_fd ~greeting =
  match Unix.accept listen_fd with
  | fd, _ ->
      (* Line-framed request/response traffic is all small writes;
         letting Nagle hold them for the previous segment's ACK costs
         a round trip per hop, which the fleet router pays twice. *)
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let ep = endpoint fd in
      (try
         output_string ep.oc greeting;
         output_char ep.oc '\n';
         flush ep.oc
       with Sys_error _ -> ep.alive <- false);
      Some ep
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      None

(* Outbound link to a peer speaking the same greeting-first protocol.
   Blocking connect + greeting read; callers only dial on setup or
   probe paths, never per request. *)
let connect ~host ~port =
  match
    let addr = Unix.inet_addr_of_string host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (addr, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with e ->
       Unix.close fd;
       raise e);
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))
  | fd -> (
      let ic = Unix.in_channel_of_descr fd in
      match input_line ic with
      | exception End_of_file ->
          Unix.close fd;
          Error "connection closed before greeting"
      | exception Sys_error m ->
          Unix.close fd;
          Error ("greeting: " ^ m)
      | greeting -> (
          match Protocol.check_greeting greeting with
          | Ok () -> Ok (endpoint fd)
          | Error msg ->
              Unix.close fd;
              Error msg))

(* Select wrapper with EINTR handling. *)
let[@wa.event_loop] wait_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
