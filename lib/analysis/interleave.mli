(** DPOR-lite systematic interleaving checker for lock-free telemetry.

    A {!scenario} declares logical threads — straight-line sequences
    of {!step}s over shared state built fresh per run — and a final
    consistency check (typically against a sequential shadow model).
    {!enumerate} executes one representative schedule per Mazurkiewicz
    trace: steps declare an abstract footprint ({!access} lists), two
    steps are {e independent} when they share no location with at
    least one write, and the search keeps only canonical schedules
    (never a lower-indexed thread's step immediately after an
    independent higher-indexed one), pruning the rest.

    Granularity: every step must be indivisible in the OCaml 5 memory
    model — an [Atomic] read/write/[fetch_and_add], or a whole
    mutex-protected critical section.  Then every real concurrent
    execution of the steps corresponds to an enumerated interleaving,
    and a clean exhaustive run is a proof over this step algebra.
    Model a {e racy} compound operation by splitting it into separate
    read and write steps (that is exactly the deliberately-broken
    counter of the mutation test). *)

type access = { loc : int; write : bool }
(** One abstract shared location touched by a step. *)

type step = { run : unit -> unit; accesses : access list }

type thread = step list

type 's scenario = {
  name : string;
  make : unit -> 's;  (** Fresh shared state, once per schedule. *)
  threads : 's -> thread list;
      (** The logical threads.  Step counts and footprints must not
          depend on the particular state value. *)
  check : 's -> (unit, string) result;
      (** Final-state consistency; [Error] describes the defect. *)
}

type failure = { schedule : int list; reason : string }
(** A schedule is the thread index executed at each step. *)

type outcome = {
  scenario : string;
  explored : int;  (** Schedules actually executed. *)
  pruned : int;  (** DFS prefixes cut by the independence rule. *)
  truncated : bool;  (** Hit [max_schedules] or [max_failures]. *)
  failures : failure list;
}

val enumerate :
  ?max_schedules:int -> ?max_failures:int -> 's scenario -> outcome
(** Canonical-form exhaustive exploration (defaults: 20000 schedules,
    10 failures). *)

val sample : ?max_failures:int -> seed:int -> samples:int -> 's scenario -> outcome
(** Seeded random schedules ({!Wa_util.Rng}; uniform among enabled
    threads at each step) — for spaces too large to enumerate. *)

val replay : 's scenario -> int list -> (unit, string) result
(** Execute one explicit schedule (e.g. a reported
    {!failure.schedule}) against a fresh state.  [Error] also covers
    malformed schedules (wrong thread index, overrun, or unexecuted
    steps). *)

val interleavings : int list -> int
(** Number of distinct interleavings of threads with the given step
    counts — the multinomial [(Σn)! / Πnᵢ!]; the ceiling on
    [explored + equivalent schedules]. *)

val pp_failure : Format.formatter -> failure -> unit
