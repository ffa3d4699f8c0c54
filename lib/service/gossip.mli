(** Cross-shard cache gossip sender.

    On a local cache fill (or capacity eviction) the server pushes the
    keys here; a dedicated sender thread (a systhread of the creating
    domain) forwards them to the configured ring-neighbor peers as
    [cache_advertise] lines over the ordinary protocol, reconnecting
    with exponential backoff when a peer is down.

    The channel is {e advisory, never authoritative} (DESIGN.md §16):
    a dropped or stale advertisement only costs a potential recompute,
    so {!push} never blocks — a full queue drops the batch, and peer
    failures are absorbed by backoff.  Consecutive
    batches of the same polarity are merged into one advertisement
    line per peer. *)

type t

val create : origin:string -> peers:(string * int) list -> t
(** [origin] is this backend's shard name, echoed in advertisements.
    With [peers = []] no thread is started and {!push} is a no-op. *)

val push : t -> invalidate:bool -> string list -> unit
(** Enqueue keys for advertisement ([invalidate] retracts instead).
    Never blocks; drops when the bounded queue is full. *)

val stop : t -> unit
(** Drain the queue, close peer connections, join the sender thread.
    Idempotent. *)
