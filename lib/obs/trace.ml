(* Lightweight span tracer.

   Completed spans accumulate in a per-thread buffer and merge into
   one global list under a mutex.  A thread flushes its buffer when a
   depth-0 span closes, when the buffer exceeds a fixed size, and — for
   worker domains of Wa_util.Parallel fan-outs — at the end of each
   chunk (the Parallel hook wraps every chunk in a depth-0
   "parallel.chunk" span, so the chunk's own close flushes everything
   the chunk recorded before the domain terminates).  The mutex is
   therefore touched once per flush, not once per span.

   The state is per thread, not per domain: systhreads of one domain
   (a pool worker inside "service.request" and the event loop running
   [reset]) record at the same time, and each must keep its own span
   depth, buffer and collector. *)

type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;  (* 0 = outermost on its thread *)
  domain : int;  (* Domain.self of the recording domain *)
}

type thread_state = {
  mutable stack_depth : int;
  mutable buffer : span list;  (* newest first *)
  mutable buffered : int;
  mutable collector : span list ref option;
      (* When set, every span recorded on this thread is also appended
         here — the request-scoped trace capture of Wa_service. *)
}

let make_state () =
  { stack_depth = 0; buffer = []; buffered = 0; collector = None }

(* Each domain holds the states of its threads that are inside a span
   or a collector, or that hold unflushed spans, keyed by thread id.
   An idle state is dropped — it is indistinguishable from a fresh one
   — so the list stays as short as the number of threads recording at
   once, and a thread that ends leaves nothing behind.  Only the owning
   thread adds or drops its entry; the compare-and-set loops keep
   concurrent updates by its sibling threads. *)
let threads_key : (int * thread_state) list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let self_id () = Thread.id (Thread.self ())

let rec lookup tid = function
  | [] -> None
  | (id, st) :: rest -> if id = tid then Some st else lookup tid rest

let rec update table f =
  let old = Atomic.get table in
  if not (Atomic.compare_and_set table old (f old)) then update table f

(* The calling thread's state, if it has one. *)
let existing () = lookup (self_id ()) (Atomic.get (Domain.DLS.get threads_key))

(* The calling thread's state, created if absent. *)
let current () =
  match existing () with
  | Some st -> st
  | None ->
      let st = make_state () in
      let tid = self_id () in
      update (Domain.DLS.get threads_key) (fun l -> (tid, st) :: l);
      st

let release_if_idle st =
  if st.stack_depth = 0 && st.buffered = 0 && Option.is_none st.collector then begin
    let tid = self_id () in
    update (Domain.DLS.get threads_key) (List.filter (fun (id, _) -> id <> tid))
  end

let completed : span list ref = ref []  (* newest first *)
[@@wa.guarded_by "Trace.completed_mutex"]

let completed_mutex = Mutex.create ()

let max_buffered = 64

(* The buffer/merge machinery is parameterized over an explicit
   [thread_state] so that the interleaving checker (Wa_analysis) can
   drive several simulated buffers from one scheduler domain; the
   per-thread wrappers below are the production path. *)

let flush_state st =
  if st.buffered > 0 then begin
    let batch = st.buffer in
    st.buffer <- [];
    st.buffered <- 0;
    Mutex.protect completed_mutex (fun () ->
        completed := List.rev_append (List.rev batch) !completed)
  end

let record_state st span =
  (match st.collector with Some acc -> acc := span :: !acc | None -> ());
  st.buffer <- span :: st.buffer;
  st.buffered <- st.buffered + 1;
  if span.depth = 0 || st.buffered >= max_buffered then flush_state st

let flush_local () = Option.iter flush_state (existing ())

let with_span name f =
  if not (Runtime.enabled ()) then f ()
  else begin
    let st = current () in
    let depth = st.stack_depth in
    st.stack_depth <- depth + 1;
    let start_ns = Runtime.now_ns () in
    let finish () =
      let dur_ns = Int64.sub (Runtime.now_ns ()) start_ns in
      st.stack_depth <- depth;
      record_state st
        { name; start_ns; dur_ns; depth; domain = (Domain.self () :> int) };
      release_if_idle st
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Request-scoped capture: while [f] runs, every span that closes on
   the calling thread is also appended to a private accumulator, so a
   server can return exactly the spans of one request without fishing
   them out of the merged global list.  Nested collectors stack (the
   innermost wins until it exits); spans recorded on other threads —
   e.g. Parallel chunk spans, or a sibling systhread's request — are
   not captured.  Returns spans sorted by start time.  Empty while
   telemetry is disabled. *)
let with_collector f =
  let st = current () in
  let saved = st.collector in
  let acc = ref [] in
  st.collector <- Some acc;
  let finish () =
    st.collector <- saved;
    release_if_idle st
  in
  match f () with
  | v ->
      finish ();
      let spans =
        List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) !acc
      in
      (v, spans)
  | exception e ->
      finish ();
      raise e

let timed name f =
  let t0 = Runtime.now_ns () in
  let v = with_span name f in
  (v, Int64.to_float (Int64.sub (Runtime.now_ns ()) t0) /. 1e6)

let spans () =
  flush_local ();
  let all = Mutex.protect completed_mutex (fun () -> !completed) in
  List.sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> Int.compare a.depth b.depth
      | c -> c)
    all

let reset () =
  Option.iter
    (fun st ->
      st.buffer <- [];
      st.buffered <- 0;
      release_if_idle st)
    (existing ());
  Mutex.protect completed_mutex (fun () -> completed := [])

let ms_of span = Int64.to_float span.dur_ns /. 1e6

module Model = struct
  type state = thread_state

  let create () = make_state ()
  let record = record_state
  let flush = flush_state
  let buffered st = st.buffered
end
