(** Process supervision for a local fleet of [wa_service] backends:
    spawn, readiness, restart-within-budget, teardown.

    Deliberately separate from {!Router}: the router only consumes
    addresses, so fleets can also be assembled from
    externally-managed processes.  Gossip neighborhoods are derived
    from the same consistent-hash ring the router routes by
    ({!Ring.successors}), so the shards warmed by a member's
    advertisements are exactly the ones that inherit its keys on
    failure. *)

type config = {
  base_port : int;  (** Backend [i] listens on [base_port + i]. *)
  count : int;
  gossip_fanout : int;  (** Ring successors each member advertises to. *)
  restart_budget : int;  (** Restarts allowed per member. *)
  ready_timeout_s : float;
  make_argv :
    name:string -> port:int -> peers:(string * int) list -> string array;
      (** Command line for one backend; [argv.(0)] is the executable
          path.  [peers] are the gossip targets ((host, port)). *)
}

val default_config :
  make_argv:
    (name:string -> port:int -> peers:(string * int) list -> string array) ->
  config

type t

val create : config -> t
(** Spawn all members (stdin [/dev/null], stdout/stderr inherited). *)

val backend_addrs : t -> Router.backend_addr list
(** The members as router backends. *)

val wait_ready : t -> bool
(** Ping every member until it answers or [ready_timeout_s] expires;
    false if any member never came up. *)

val supervise : t -> string list
(** Reap exited members and restart them within [restart_budget];
    returns the names restarted this sweep.  Call periodically. *)

val kill_member : t -> string -> bool
(** SIGKILL one member by name (chaos lever for the smoke test); the
    next {!supervise} sweep may restart it. *)

val stop_all : t -> unit
(** Protocol-level [shutdown] per member, SIGKILL fallback after 5s,
    then reap.  Idempotent. *)
