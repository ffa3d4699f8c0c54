module Vec2 = Wa_geom.Vec2

type t = { src : Vec2.t; dst : Vec2.t }

let make src dst =
  if Vec2.equal src dst then invalid_arg "Link.make: zero-length link";
  { src; dst }

let length t = Vec2.dist t.src t.dst

let sender_to_receiver i j = Vec2.dist i.src j.dst

let min_distance i j =
  Float.min
    (Float.min (Vec2.dist i.src j.src) (Vec2.dist i.src j.dst))
    (Float.min (Vec2.dist i.dst j.src) (Vec2.dist i.dst j.dst))

let shares_endpoint i j =
  Vec2.equal i.src j.src || Vec2.equal i.src j.dst || Vec2.equal i.dst j.src
  || Vec2.equal i.dst j.dst

(* NaN-safe structural comparisons: coordinates go through
   Float.equal/Float.compare (Vec2), so a link compares equal to
   itself even if a degenerate pipeline produced NaN coordinates,
   where polymorphic (=) would deny it.  The wa-lint float-eq rule
   points poly-compare call sites here. *)
let equal i j = Vec2.equal i.src j.src && Vec2.equal i.dst j.dst

let compare i j =
  let c = Vec2.compare i.src j.src in
  if c <> 0 then c else Vec2.compare i.dst j.dst

let reverse t = { src = t.dst; dst = t.src }
