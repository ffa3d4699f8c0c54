(* Reaches [Exports] only through a [let module] alias. *)
let use =
  let module E = Exports in
  E.used_fn 2
