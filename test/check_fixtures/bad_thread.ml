(* Fixture: exactly one [domain-capture] violation — a Thread.create
   closure increments a captured ref.  Systhreads of one domain
   preempt each other, so the write races with the creator's read. *)
let racy () =
  let hits = ref 0 in
  let th = Thread.create (fun () -> incr hits) () in
  Thread.join th;
  !hits
