type t = { min_x : float; min_y : float; max_x : float; max_y : float }

let of_points points =
  if Array.length points = 0 then invalid_arg "Bbox.of_points: empty array";
  let p0 = points.(0) in
  let box =
    ref { min_x = p0.Vec2.x; min_y = p0.Vec2.y; max_x = p0.Vec2.x; max_y = p0.Vec2.y }
  in
  Array.iter
    (fun (p : Vec2.t) ->
      let b = !box in
      box :=
        {
          min_x = Float.min b.min_x p.x;
          min_y = Float.min b.min_y p.y;
          max_x = Float.max b.max_x p.x;
          max_y = Float.max b.max_y p.y;
        })
    points;
  !box

let width b = b.max_x -. b.min_x
let height b = b.max_y -. b.min_y

let contains b (p : Vec2.t) =
  p.x >= b.min_x && p.x <= b.max_x && p.y >= b.min_y && p.y <= b.max_y

let expand margin b =
  {
    min_x = b.min_x -. margin;
    min_y = b.min_y -. margin;
    max_x = b.max_x +. margin;
    max_y = b.max_y +. margin;
  }
