(** Chunked fork-join parallelism over OCaml 5 domains, and a
    persistent worker pool.

    Each fork-join entry point splits the index range [0, n) into
    contiguous chunks, runs one chunk per domain ([Domain.spawn]), and
    joins all workers before returning.  When the runtime reports a
    single recommended domain, or when [n] falls below [threshold],
    execution is plain sequential, so the functions are safe to call
    unconditionally.

    Domain budget: the fan-outs and the {!Pool} draw the domains they
    spawn from one process-wide budget of {!available_domains}, the
    main domain included, so this module never brings a process past
    one domain per CPU.  A fan-out uses only the domains still free
    (none left: sequential), so a nested fan-out gets only what the
    outer one left; a pool worker beyond the budget is a systhread.
    The default {!Pool} takes every slot the main domain leaves, so a
    fan-out inside one of its jobs runs sequentially.  Domains spawned
    elsewhere are not counted.

    Supplied functions must be thread-safe: in practice they should
    only read immutable (or no-longer-mutated) data and write at most
    their own result slot.  Results never depend on the domain count —
    chunk boundaries only affect {e where} an index is computed. *)

val available_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val set_chunk_hook : (items:int -> (unit -> unit) -> unit) option -> unit
(** Install (or clear) the chunk wrapper.  When a fan-out actually
    spawns domains, each chunk — including the calling domain's own —
    runs as [wrap ~items body] on the domain executing it; sequential
    fallbacks bypass the hook.  The wrapper must call [body] exactly
    once.  Used by the observability layer to time chunks and flush
    per-domain trace buffers before worker domains terminate; not
    meant to be installed concurrently with running fan-outs. *)

val iter : ?domains:int -> ?threshold:int -> int -> (int -> unit) -> unit
(** [iter n f] runs [f i] for [i = 0 .. n-1], fanned out over domains.
    [domains] caps the worker count (default: recommended count; the
    domain budget may cap it further); [threshold] (default 32) is the
    minimum [n] worth parallelizing. *)

val init : ?domains:int -> ?threshold:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init].  [f 0] is evaluated first (on the calling
    domain) to seed the result array. *)

val init_with :
  ?domains:int -> ?threshold:int -> int -> (unit -> 's) -> ('s -> int -> 'a) -> 'a array
(** [init_with n make f] is [init n (f s)] with per-chunk scratch
    state: each chunk gets its own [s = make ()], made on the domain
    that runs the chunk, so [f] may mutate [s] freely.  [f s i] must
    not depend on what earlier calls left in [s]. *)

val map_array : ?domains:int -> ?threshold:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]. *)

(** Persistent worker pool: long-lived workers pulling jobs off one
    bounded queue.

    This is the complement of the fork-join entry points above for
    request-serving workloads: jobs arrive one at a time, the queue
    bound gives callers explicit backpressure ([`Rejected] instead of
    unbounded buffering), and shutdown drains queued work before the
    workers exit.  Jobs must not raise for control flow — escaped
    exceptions are swallowed (the worker survives), so report errors
    through the job's own channel. *)
module Pool : sig
  type t

  val create : ?workers:int -> queue_capacity:int -> unit -> t
  (** [workers] defaults to [max 1 (available_domains () - 1)],
      leaving one domain for the caller.  Each worker is a domain
      while the domain budget has a slot for it, and a systhread of
      the calling domain otherwise: on a one-CPU host the default
      single worker is a thread of the main domain.  An idle domain
      still joins every stop-the-world collection, and a domain the OS
      has not scheduled delays it, so a worker that cannot have a CPU
      of its own computes faster as a thread.  Raises
      [Invalid_argument] on a non-positive worker count or
      capacity. *)

  val submit : t -> (unit -> unit) -> [ `Queued | `Rejected | `Stopping ]
  (** Enqueue a job: [`Rejected] when the queue is at capacity,
      [`Stopping] after {!shutdown} began.  Never blocks. *)

  val workers : t -> int

  val queue_depth : t -> int
  (** Jobs queued and not yet started. *)

  val in_flight : t -> int
  (** Jobs queued plus jobs currently executing. *)

  val drain : t -> unit
  (** Block until the queue is empty and every worker is idle. *)

  val shutdown : t -> unit
  (** Stop accepting work, let the workers finish everything already
      queued, and join them, returning their domain slots to the
      budget.  Idempotent once the workers are gone. *)
end
