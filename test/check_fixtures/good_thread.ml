(* Twin of bad_thread: the shared counter is an Atomic.t, and the
   compute an [@wa.event_loop] root hands to Thread.create is deferred,
   so the root is certified non-blocking. *)

let crunch xs = List.fold_left ( +. ) 0.0 xs [@@wa.compute]

let[@wa.event_loop] step hits xs =
  ignore
    (Thread.create
       (fun () ->
         Atomic.incr hits;
         ignore (crunch xs))
       ())
