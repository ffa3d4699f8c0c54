(** Axis-aligned bounding boxes. *)

type t = { min_x : float; min_y : float; max_x : float; max_y : float }

val of_points : Vec2.t array -> t
(** Raises [Invalid_argument] on an empty array. *)

val width : t -> float
val height : t -> float

val contains : t -> Vec2.t -> bool

val expand : float -> t -> t
(** Grow the box by a margin on every side. *)
