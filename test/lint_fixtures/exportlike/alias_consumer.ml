(* Reaches [Exports] only through a top-level alias: [E.used_fn] marks
   [Exports.used_fn] used, and the alias keeps nothing else alive. *)
module E = Exports

let use = E.used_fn 1
