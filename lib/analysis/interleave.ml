(* DPOR-lite systematic interleaving checker.

   A scenario declares a handful of logical threads, each a straight
   line of steps over shared state created fresh per run.  Steps carry
   a declared footprint (which abstract locations they read/write);
   two steps are independent when no location is shared with at least
   one write.  The checker enumerates one schedule per Mazurkiewicz
   trace (canonical form: a schedule is skipped when it would place a
   step of a lower-indexed thread immediately after an independent
   step of a higher-indexed thread — every equivalence class keeps its
   lexicographically-minimal member), executes each from a fresh
   state, and compares against the scenario's own check.

   Soundness of the single-domain model: the operations under test
   (Atomic reads/writes/fetch_and_add, mutex-protected critical
   sections) are single indivisible steps of the OCaml 5 memory model,
   so every real concurrent execution of such steps corresponds to one
   interleaving enumerated here.  Torn or speculative behaviors of
   plain (non-atomic) accesses are out of scope — model those by
   splitting a step into separate read and write steps, as the
   broken-counter mutation test does. *)

type access = { loc : int; write : bool }
type step = { run : unit -> unit; accesses : access list }
type thread = step list

type 's scenario = {
  name : string;
  make : unit -> 's;
  threads : 's -> thread list;
  check : 's -> (unit, string) result;
}

type failure = { schedule : int list; reason : string }

type outcome = {
  scenario : string;
  explored : int;
  pruned : int;
  truncated : bool;
  failures : failure list;
}

let conflicting a b = a.loc = b.loc && (a.write || b.write)

let independent s t =
  not
    (List.exists (fun a -> List.exists (fun b -> conflicting a b) t.accesses)
       s.accesses)

(* Number of interleavings of threads with the given step counts:
   multinomial (Σn)! / Πn!, computed as a product of exact binomials. *)
let interleavings counts =
  let binom n k =
    let k = Int.min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  in
  let _, total =
    List.fold_left
      (fun (placed, acc) n ->
        if n < 0 then invalid_arg "Interleave.interleavings: negative count";
        (placed + n, acc * binom (placed + n) n))
      (0, 1) counts
  in
  total

let structure_of scenario =
  scenario.threads (scenario.make ())
  |> List.map Array.of_list
  |> Array.of_list

(* Execute one complete schedule against a fresh state. *)
let run_schedule scenario sched =
  let state = scenario.make () in
  let threads =
    scenario.threads state |> List.map Array.of_list |> Array.of_list
  in
  let n = Array.length threads in
  let pos = Array.make n 0 in
  let bad = ref None in
  List.iter
    (fun t ->
      if Option.is_none !bad then
        if t < 0 || t >= n then
          bad := Some (Format.asprintf "schedule names thread %d of %d" t n)
        else if pos.(t) >= Array.length threads.(t) then
          bad :=
            Some
              (Format.asprintf "schedule overruns thread %d (%d steps)" t
                 (Array.length threads.(t)))
        else begin
          threads.(t).(pos.(t)).run ();
          pos.(t) <- pos.(t) + 1
        end)
    sched;
  match !bad with
  | Some reason -> Error reason
  | None ->
      let leftover = ref 0 in
      Array.iteri
        (fun t p -> leftover := !leftover + (Array.length threads.(t) - p))
        pos;
      if !leftover > 0 then
        Error
          (Format.asprintf "schedule leaves %d step(s) unexecuted" !leftover)
      else scenario.check state

let replay scenario sched = run_schedule scenario sched

let default_max_schedules = 20_000
let default_max_failures = 10

let enumerate ?(max_schedules = default_max_schedules)
    ?(max_failures = default_max_failures) scenario =
  let structure = structure_of scenario in
  let nthreads = Array.length structure in
  let total_steps =
    Array.fold_left (fun acc t -> acc + Array.length t) 0 structure
  in
  let pos = Array.make (Int.max nthreads 1) 0 in
  let schedule = Array.make (Int.max total_steps 1) 0 in
  let explored = ref 0 in
  let pruned = ref 0 in
  let truncated = ref false in
  let failures = ref [] in
  let nfailures = ref 0 in
  let rec dfs depth =
    if !truncated then ()
    else if depth = total_steps then
      if !explored >= max_schedules then truncated := true
      else begin
        incr explored;
        let sched = Array.to_list (Array.sub schedule 0 total_steps) in
        match run_schedule scenario sched with
        | Ok () -> ()
        | Error reason ->
            incr nfailures;
            failures := { schedule = sched; reason } :: !failures;
            if !nfailures >= max_failures then truncated := true
      end
    else
      for t = 0 to nthreads - 1 do
        if (not !truncated) && pos.(t) < Array.length structure.(t) then begin
          let step = structure.(t).(pos.(t)) in
          (* Canonical-form pruning: a lower-indexed thread must not
             immediately follow an independent step of a higher-indexed
             thread — the swapped (smaller) schedule covers the class. *)
          let prune =
            depth > 0
            &&
            let prev_t = schedule.(depth - 1) in
            prev_t > t && independent structure.(prev_t).(pos.(prev_t) - 1) step
          in
          if prune then incr pruned
          else begin
            schedule.(depth) <- t;
            pos.(t) <- pos.(t) + 1;
            dfs (depth + 1);
            pos.(t) <- pos.(t) - 1
          end
        end
      done
  in
  dfs 0;
  {
    scenario = scenario.name;
    explored = !explored;
    pruned = !pruned;
    truncated = !truncated;
    failures = List.rev !failures;
  }

let sample ?(max_failures = default_max_failures) ~seed ~samples scenario =
  let rng = Wa_util.Rng.create seed in
  let explored = ref 0 in
  let failures = ref [] in
  let nfailures = ref 0 in
  let truncated = ref false in
  (try
     for _ = 1 to samples do
       let state = scenario.make () in
       let threads =
         scenario.threads state |> List.map Array.of_list |> Array.of_list
       in
       let nthreads = Array.length threads in
       let pos = Array.make (Int.max nthreads 1) 0 in
       let remaining =
         ref (Array.fold_left (fun acc t -> acc + Array.length t) 0 threads)
       in
       let sched = ref [] in
       while !remaining > 0 do
         (* Uniform choice among enabled threads. *)
         let enabled = ref [] in
         for t = nthreads - 1 downto 0 do
           if pos.(t) < Array.length threads.(t) then enabled := t :: !enabled
         done;
         let choices = Array.of_list !enabled in
         let t = choices.(Wa_util.Rng.int rng (Array.length choices)) in
         threads.(t).(pos.(t)).run ();
         pos.(t) <- pos.(t) + 1;
         sched := t :: !sched;
         decr remaining
       done;
       incr explored;
       match scenario.check state with
       | Ok () -> ()
       | Error reason ->
           incr nfailures;
           failures := { schedule = List.rev !sched; reason } :: !failures;
           if !nfailures >= max_failures then begin
             truncated := true;
             raise Exit
           end
     done
   with Exit -> ());
  {
    scenario = scenario.name;
    explored = !explored;
    pruned = 0;
    truncated = !truncated;
    failures = List.rev !failures;
  }

let pp_failure fmt f =
  Format.fprintf fmt "schedule [%s]: %s"
    (String.concat ";" (List.map string_of_int f.schedule))
    f.reason
