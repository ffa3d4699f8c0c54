(** Whole-program summary engine behind [Check].

    [Check] extracts serializable per-unit facts from the Typedtrees;
    this module builds the call graph, runs the bottom-up fixpoint
    over its strongly connected components (Tarjan, callees first),
    maintains the global record-field invariant table, and owns the
    on-disk cache keyed by [.cmt] digest.  Allocation / may-raise /
    write-footprints are least fixpoints; returns-positive is a
    greatest fixpoint (sound for terminating functions, and what
    proves positivity through mutual recursion). *)

module SSet : Set.S with type elt = string

type bound = { lb : float; strict : bool }
(** A float lower bound: value [>= lb], or [> lb] when [strict]. *)

val bound_positive : bound option -> bool
(** The bound proves the value nonzero (positive). *)

type call = {
  c_callee : string;  (** Resolved dotted name of the callee. *)
  c_args : (int * int) list;
      (** Callee argument position -> caller parameter index, for the
          arguments that are direct parameter references. *)
  c_caught : string list;
      (** Exception constructors an enclosing [try] catches at this
          call site; ["*"] for a catch-all pattern. *)
  c_held : string list;
      (** Lock keys held at the call site (sorted), from enclosing
          [Mutex.protect] / lock wrappers / lock–unlock sequences. *)
  c_deferred : bool;
      (** The call happens inside a closure handed to [Pool.submit] /
          [Domain.spawn] / [Thread.create] / a [Parallel] entry: it
          runs on another domain or thread, so it neither blocks the
          caller nor inherits its locks. *)
}

type fn_fact = {
  f_fq : string;
  f_params : string list;
  f_line : int;
  f_col : int;
  f_hot : bool;
  f_alloc : string option;
  f_raises : string list;
  f_global_writes : string list;
  f_param_writes : int list;
  f_pos : bool;
  f_pos_deps : string list option;
  f_preconds : string list;
  f_dom : string;
  f_calls : call list;
  f_event_loop : bool;  (** Annotated [[@wa.event_loop]]. *)
  f_block : string option;
      (** [Some reason] when the body reaches a blocking primitive
          directly (or is marked [[@wa.compute]]). *)
  f_locks : string list;  (** Lock keys this function acquires. *)
  f_lock_edges : (string * string * int) list;
      (** [(held, acquired, line)]: nested-acquisition sites. *)
  f_requires : (string * string) list;
      (** [(lock, witness)]: guarded state touched without the lock;
          discharged at call sites that hold it. *)
  f_guarded : int;  (** Guarded accesses certified lock-held. *)
}
(** Direct (intraprocedural) facts about one function, as extracted by
    [Check]; every field is serializable. *)

type field_fact = {
  r_type : string;
  r_field : string;
  r_bound : bound option;
}
(** Field bound observed at one record construction site. *)

type unit_facts = {
  u_path : string;
  u_src : string;
  u_digest : string;
  u_fns : fn_fact list;
  u_fields : field_fact list;
}

type fn_summary = {
  s_fq : string;
  s_params : string list;
  s_line : int;
  s_col : int;
  s_hot : bool;
  s_alloc : string option;
      (** [Some chain] when the function may allocate, with the
          allocating call chain spelled out. *)
  s_raises : SSet.t;  (** Escaping exception constructors, transitive. *)
  s_global_writes : string list;  (** Transitive, with call chains. *)
  s_param_writes : int list;  (** Transitive parameter indices. *)
  s_pos : bool;  (** Returns a provably nonzero float. *)
  s_preconds : string list;
      (** Parameters that must be positive (the function divides by
          them); discharged at call sites. *)
  s_dom : string;  (** Result unit-domain name. *)
  s_callers : int;  (** In-tree call sites targeting this function. *)
  s_event_loop : bool;
  s_block : string option;
      (** [Some chain] when a blocking primitive is transitively
          reachable outside deferred closures, chain spelled out. *)
  s_locks : (string * string) list;
      (** [(lock, via)]: locks transitively acquired, with the call
          chain that reaches the acquisition. *)
  s_requires : (string * string) list;
      (** [(lock, witness)]: lock requirements no analyzed call path
          discharges; a violation when [s_callers = 0]. *)
}

type table

val find : table -> string -> fn_summary option

val lookup : table -> string -> fn_summary option
(** [find], falling back to a last-two-components suffix match when it
    is unique (module aliases leave call sites with short paths). *)

val field_bound : table -> type_fq:string -> field:string -> bound option
(** Global invariant of a record field: the meet over every
    construction site in the program (with the same suffix fallback as
    {!lookup}). *)

val solve : unit_facts list -> table
(** Build the call graph and run every fixpoint. *)

val sccs : string list -> (string -> string list) -> string list list
(** Tarjan SCCs of an arbitrary string graph, callees-first; exposed
    for [Check]'s lock-order cycle detection. *)

(** {1 Cache} *)

val digest_file : string -> string

type cached_unit = {
  cu_facts : unit_facts;
  cu_report : Wa_util.Json.t;
      (** The per-unit diagnostic report, opaque to this module. *)
}

type cache = { c_units : cached_unit list }

val load_cache : string -> cache option
(** [None] on missing file, parse error, or version mismatch. *)

val save_cache : string -> cache -> bool

type cache_stats = { st_units : int; st_hits : int; st_warm : bool }

val stats_to_json : cache_stats -> Wa_util.Json.t
