let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  partial : Buffer.t;  (** Bytes of a line not yet terminated. *)
  lines : string Queue.t;  (** Complete lines not yet consumed. *)
}

(* One read(2) worth of bytes, split into complete lines.  Returns
   false at end of stream. *)
let fill c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> false
  | k ->
      let start = ref 0 in
      for i = 0 to k - 1 do
        if Bytes.get c.buf i = '\n' then begin
          Buffer.add_subbytes c.partial c.buf !start (i - !start);
          Queue.push (Buffer.contents c.partial) c.lines;
          Buffer.clear c.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.partial c.buf !start (k - !start);
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec read_line c =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None -> if fill c then read_line c else failwith "connection closed"

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  let c =
    { fd; buf = Bytes.create 65536; partial = Buffer.create 1024; lines = Queue.create () }
  in
  match Wa_service.Protocol.check_greeting (read_line c) with
  | Ok () -> c
  | Error m ->
      Unix.close fd;
      failwith ("greeting: " ^ m)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let id_prefix = "{\"v\":1,\"id\":"
let request_line ~id tail = id_prefix ^ string_of_int id ^ tail

let split_response l =
  let lp = String.length id_prefix in
  let n = String.length l in
  if n <= lp || not (String.starts_with ~prefix:id_prefix l) then None
  else begin
    let i = ref lp and v = ref 0 in
    while !i < n && l.[!i] >= '0' && l.[!i] <= '9' do
      v := (!v * 10) + Char.code l.[!i] - Char.code '0';
      incr i
    done;
    if !i = lp then None else Some (!v, String.sub l !i (n - !i))
  end

let call c line =
  write_all c.fd (line ^ "\n");
  read_line c

type outcome = { latency_ms : float array; late_ms : float array; unmatched : int }

let select_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let open_loop ~conns ~due ~tail ~on_response ~timeout_s =
  let n = Array.length due and nc = Array.length conns in
  if nc = 0 then invalid_arg "Traffic.open_loop: no connections";
  let latency_ms = Array.make n Float.nan and late_ms = Array.make n Float.nan in
  let outs = Array.init nc (fun _ -> Buffer.create 4096) in
  let batch = Array.make nc [] in
  let next = ref 0 and answered = ref 0 and unmatched = ref 0 in
  let last_due = if n = 0 then 0.0 else due.(n - 1) in
  let t0 = now () in
  let elapsed () = now () -. t0 in
  let receive c =
    let alive = fill c in
    let t = elapsed () in
    let rec drain () =
      match Queue.take_opt c.lines with
      | None -> ()
      | Some line ->
          (match split_response line with
          | Some (id, _) when id >= 1 && id <= !next && Float.is_nan latency_ms.(id - 1) ->
              let i = id - 1 in
              latency_ms.(i) <- (t -. due.(i)) *. 1000.0;
              incr answered;
              on_response i line
          | _ -> incr unmatched);
          drain ()
    in
    drain ();
    alive
  in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let live = ref true in
  while !live && !answered < n && elapsed () < last_due +. timeout_s do
    (* Write everything that is due, one write per connection. *)
    let t = elapsed () in
    while !next < n && due.(!next) <= t do
      let i = !next in
      let ci = i mod nc in
      Buffer.add_string outs.(ci) (request_line ~id:(i + 1) (tail i));
      Buffer.add_char outs.(ci) '\n';
      batch.(ci) <- i :: batch.(ci);
      incr next
    done;
    Array.iteri
      (fun ci b ->
        if Buffer.length b > 0 then begin
          write_all conns.(ci).fd (Buffer.contents b);
          Buffer.clear b;
          let sent = elapsed () in
          List.iter (fun i -> late_ms.(i) <- (sent -. due.(i)) *. 1000.0) batch.(ci);
          batch.(ci) <- []
        end)
      outs;
    let wait =
      if !next < n then Float.max 0.0 (due.(!next) -. elapsed ())
      else Float.max 0.0 (last_due +. timeout_s -. elapsed ())
    in
    List.iter
      (fun fd ->
        Array.iter (fun c -> if c.fd = fd && not (receive c) then live := false) conns)
      (select_readable fds wait)
  done;
  { latency_ms; late_ms; unmatched = !unmatched }

let poisson_schedule rng ~rate ~seconds =
  let rec go t acc =
    (* 1 - u is in (0, 1], so the log is finite. *)
    let t = t -. (log (1.0 -. Wa_util.Rng.float rng 1.0) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []
