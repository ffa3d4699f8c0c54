(** Registry of all reproduction experiments.

    Experiment ids follow the index in DESIGN.md: F1–F4 regenerate the
    paper's figures, T1–T9 the measured scaling claims.  The bench
    harness ([bench/main.exe]) and the CLI
    ([wireless_agg experiment <id>]) both dispatch through here. *)

type t = {
  id : string;
  title : string;
  run : quick:bool -> Wa_util.Table.t;
}

val all : t list
(** Every experiment in index order. *)

val find : string -> t option
(** Case-insensitive lookup by id. *)

val run_all : ?quick:bool -> ?ids:string list -> unit -> unit
(** Run all (or the named) experiments, printing each table.  Raises
    [Failure] for an unknown id. *)
