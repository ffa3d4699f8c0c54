(** Select-loop mechanics shared by the plan server and the fleet
    router: line-framed endpoints, deferred-flush writes, buffered
    line splitting, accept/connect helpers.

    The loop {e driver} (stop conditions, tick work, reaping policy)
    stays with the owner — {!Server.run} and [Wa_fleet.Router.run]
    both build on these pieces.  The confinement discipline is the
    server's (DESIGN.md §15): reads and the [rbuf] are event-loop
    confined, writes serialize whole lines under the endpoint's
    write lock and may come from any thread. *)

type endpoint

val fd : endpoint -> Unix.file_descr
val eof : endpoint -> bool
val alive : endpoint -> bool

val mark_dead : endpoint -> unit

val close : endpoint -> unit
(** Idempotent; closes the underlying descriptor. *)

val send_line : endpoint -> string -> bool
(** Write one line (newline appended) and flush, under the write
    lock.  Returns [alive] after the attempt: a write failure marks
    the endpoint dead instead of raising. *)

val send_json : endpoint -> Wa_util.Json.t -> bool
(** Like {!send_line} but streams the JSON value — a large response
    never exists as one string. *)

val send_line_nf : endpoint -> string -> bool
(** Deferred-flush {!send_line}: buffers in the channel and marks the
    endpoint unflushed.  Pair with {!flush_now} once per readable
    batch so pipelined hot paths pay one flush for many lines. *)

val send_spliced_nf : endpoint -> string -> string -> int -> bool
(** [send_spliced_nf ep prefix line pos] writes [prefix], then [line]
    from byte [pos] to the end, then a newline — deferred-flush, like
    {!send_line_nf}.  Lets a proxy splice a new id in front of a
    forwarded line without materialising the spliced string. *)

val flush_now : endpoint -> unit
(** Flush a pending {!send_line_nf} batch, if any. *)

val handle_readable :
  max_line:int ->
  on_line:(endpoint -> string -> unit) ->
  on_overflow:(endpoint -> unit) ->
  endpoint ->
  unit
(** Read one chunk and invoke [on_line] per complete line.  EOF and
    connection resets mark the endpoint; EAGAIN/EINTR are ignored.
    A partial line over [max_line] fires [on_overflow] then marks
    the endpoint eof+dead. *)

val listen : host:string -> port:int -> Unix.file_descr
(** Bound, listening socket (SO_REUSEADDR, backlog 64).  Raises
    [Unix.Unix_error] when the address is unavailable. *)

val bound_port : fallback:int -> Unix.file_descr -> int

val accept :
  listen_fd:Unix.file_descr -> greeting:string -> endpoint option
(** Accept one connection and lead with [greeting]; [None] on
    EAGAIN/EINTR. *)

val connect : host:string -> port:int -> (endpoint, string) result
(** Outbound link: TCP connect, then read and verify the peer's
    {!Protocol} greeting.  Blocking — dial on setup and probe paths
    only, never per request. *)

val wait_readable : Unix.file_descr list -> float -> Unix.file_descr list
(** [Unix.select] on the read set with EINTR mapped to []. *)
