(* Reaches [Exports] only through an alias of an alias, bound inside a
   nested structure: [F] resolves to [E], which resolves to
   [Exports]. *)
module Inner = struct
  module E = Exports
  module F = E
end

let use = Inner.F.used_fn 3
