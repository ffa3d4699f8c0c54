(* Chunked fork-join over OCaml 5 domains, and a persistent pool.

   No process should run more domains than it has CPUs.  Every minor
   collection stops all domains, so a domain that the OS has not
   scheduled (because it shares a CPU with the one computing) stalls
   the whole process until it runs.  Both halves of this module
   therefore draw the domains they spawn from one process-wide budget
   of [available_domains ()], the main domain included: a fan-out
   spawns only the domains the budget still holds (none at all runs
   the plain loop), and a pool worker that finds the budget spent is a
   systhread of the creating domain instead.

   The fork-join entry points keep no other state: each spawns
   short-lived domains for one batch and joins them before returning.
   A nested fan-out draws from the same budget, so it gets only the
   slots the outer one left (sequential once they are spent) and
   never multiplies domains. *)

let available_domains () = Domain.recommended_domain_count ()

(* Domains running on behalf of this module, plus the main domain. *)
let live_domains = Atomic.make 1

(* Take up to [k] slots of the domain budget; returns how many. *)
let rec claim k =
  let live = Atomic.get live_domains in
  let got = max 0 (min k (available_domains () - live)) in
  if got = 0 || Atomic.compare_and_set live_domains live (live + got) then got
  else claim k

let release k = if k > 0 then ignore (Atomic.fetch_and_add live_domains (-k))

(* Below this many items the spawn/join overhead dominates any
   conceivable per-item win; callers with expensive items can lower
   it explicitly. *)
let default_threshold = 32

(* Observability hook: when installed (by [Wa_obs], which sits above
   this library in the dependency order), every chunk of a genuine
   fan-out runs inside the wrapper, on the domain executing it.  The
   wrapper times the chunk and flushes that domain's trace buffer
   before the domain terminates, which is what makes per-domain span
   buffers safe to merge.  [None] (the default) costs one ref read per
   chunk and nothing per item. *)
let chunk_hook : (items:int -> (unit -> unit) -> unit) option ref = ref None

let set_chunk_hook h = chunk_hook := h

let run_chunk ~items body =
  match !chunk_hook with None -> body () | Some wrap -> wrap ~items body

let worker_count ?domains n threshold =
  let nd =
    match domains with
    | Some d -> if d < 1 then invalid_arg "Parallel: domains must be >= 1" else d
    | None -> available_domains ()
  in
  if nd <= 1 || n < threshold then 1 else min nd n

(* Split [0, n) into [count] contiguous chunks as (lo, hi) pairs. *)
let chunk_bounds n count =
  let size = (n + count - 1) / count in
  List.init count (fun k ->
      let lo = k * size in
      (lo, min n (lo + size)))
  |> List.filter (fun (lo, hi) -> lo < hi)

(* Runs [body lo hi] over contiguous chunks covering [0, n), one chunk
   per worker domain, the first on the calling domain.  The workers
   beyond the caller are capped by the domain budget; with none left
   (or a single worker asked for) [body 0 n] runs directly, bypassing
   the chunk hook. *)
let chunked ?domains ~threshold n body =
  let nd = worker_count ?domains n threshold in
  let extra = if nd <= 1 then 0 else claim (nd - 1) in
  if extra = 0 then body 0 n
  else
    Fun.protect ~finally:(fun () -> release extra) @@ fun () ->
    match chunk_bounds n (extra + 1) with
    | [] -> ()
    | (lo0, hi0) :: rest ->
        let chunk lo hi () = run_chunk ~items:(hi - lo) (fun () -> body lo hi) in
        Util_log.debug (fun m ->
            m "Parallel.iter: %d items over %d domains" n (List.length rest + 1));
        let spawned =
          List.map (fun (lo, hi) -> Domain.spawn (chunk lo hi)) rest
        in
        chunk lo0 hi0 ();
        List.iter Domain.join spawned

let iter ?domains ?(threshold = default_threshold) n f =
  if n < 0 then invalid_arg "Parallel.iter: negative count";
  chunked ?domains ~threshold n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let init_with ?domains ?(threshold = default_threshold) n make f =
  if n < 0 then invalid_arg "Parallel.init: negative count";
  if worker_count ?domains n threshold <= 1 then begin
    let s = make () in
    Array.init n (fun i -> f s i)
  end
  else begin
    (* Seed the result array from index 0, then let each worker fill a
       disjoint slice: disjoint writes to a preallocated array are
       race-free, and the result is independent of the domain count.
       The first chunk runs on the calling domain, so it keeps the
       seed's state. *)
    let s0 = make () in
    let result = Array.make n (f s0 0) in
    chunked ?domains ~threshold:0 (n - 1) (fun lo hi ->
        let s = if lo = 0 then s0 else make () in
        for k = lo to hi - 1 do
          result.(k + 1) <- f s (k + 1)
        done);
    result
  end

let init ?domains ?threshold n f =
  init_with ?domains ?threshold n ignore (fun () i -> f i)

let map_array ?domains ?threshold f arr =
  init ?domains ?threshold (Array.length arr) (fun i -> f arr.(i))

(* Persistent pool: long-lived workers pulling thunks off one bounded
   queue.  Unlike the fork-join entry points above this *is* global
   mutable state, so it is explicitly created and shut down by its
   owner (the serving layer).  All state lives under one mutex; jobs
   run outside it.  Every worker runs the same [worker] loop; only how
   it is started and joined depends on whether the domain budget still
   had a slot for it. *)
module Pool = struct
  type t = {
    mutex : Mutex.t;
    not_empty : Condition.t;
    settled : Condition.t;  (** Signalled whenever a job finishes. *)
    queue : (unit -> unit) Queue.t; [@wa.guarded_by "Pool.t.mutex"]
    capacity : int;
    mutable running : int; [@wa.guarded_by "Pool.t.mutex"]
        (** Jobs currently executing. *)
    mutable stopping : bool; [@wa.guarded_by "Pool.t.mutex"]
    mutable handles : handle list;
        (** Owner-confined: touched only by [create]/[shutdown], which
            the owning thread calls at most once each. *)
  }

  and handle = On_domain of unit Domain.t | On_thread of Thread.t

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.mutex;
      while Queue.is_empty pool.queue && not pool.stopping do
        Condition.wait pool.not_empty pool.mutex
      done;
      if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
      else begin
        let job = Queue.pop pool.queue in
        pool.running <- pool.running + 1;
        Mutex.unlock pool.mutex;
        (try job () with _ -> ());
        Mutex.lock pool.mutex;
        pool.running <- pool.running - 1;
        Condition.broadcast pool.settled;
        Mutex.unlock pool.mutex;
        (* A thread worker shares its domain with the creator (an event
           loop, say): hand the domain over between jobs rather than
           run the next one first.  Without waiting threads this
           returns at once. *)
        Thread.yield ();
        loop ()
      end
    in
    loop ()

  let start pool =
    if claim 1 = 0 then On_thread (Thread.create (worker pool) ())
    else
      match Domain.spawn (worker pool) with
      | d -> On_domain d
      | exception e ->
          release 1;
          raise e

  let join = function
    | On_domain d ->
        Domain.join d;
        release 1
    | On_thread th -> Thread.join th

  let create ?workers ~queue_capacity () =
    if queue_capacity < 1 then
      invalid_arg "Parallel.Pool.create: queue_capacity must be >= 1";
    let workers =
      match workers with
      | Some w ->
          if w < 1 then invalid_arg "Parallel.Pool.create: workers must be >= 1"
          else w
      | None -> max 1 (available_domains () - 1)
    in
    let pool =
      {
        mutex = Mutex.create ();
        not_empty = Condition.create ();
        settled = Condition.create ();
        queue = Queue.create ();
        capacity = queue_capacity;
        running = 0;
        stopping = false;
        handles = [];
      }
    in
    pool.handles <- List.init workers (fun _ -> start pool);
    pool

  let workers pool = List.length pool.handles

  let submit pool job =
    Mutex.lock pool.mutex;
    let verdict =
      if pool.stopping then `Stopping
      else if Queue.length pool.queue >= pool.capacity then `Rejected
      else begin
        Queue.push job pool.queue;
        Condition.signal pool.not_empty;
        `Queued
      end
    in
    Mutex.unlock pool.mutex;
    verdict

  let queue_depth pool =
    Mutex.lock pool.mutex;
    let d = Queue.length pool.queue in
    Mutex.unlock pool.mutex;
    d

  let in_flight pool =
    Mutex.lock pool.mutex;
    let d = Queue.length pool.queue + pool.running in
    Mutex.unlock pool.mutex;
    d

  let drain pool =
    Mutex.lock pool.mutex;
    while not (Queue.is_empty pool.queue && pool.running = 0) do
      Condition.wait pool.settled pool.mutex
    done;
    Mutex.unlock pool.mutex

  let shutdown pool =
    Mutex.lock pool.mutex;
    pool.stopping <- true;
    (* Workers drain whatever is queued before exiting; [drain] below
       would miss the wakeup if they were all asleep. *)
    Condition.broadcast pool.not_empty;
    Mutex.unlock pool.mutex;
    List.iter join pool.handles;
    pool.handles <- []
end
