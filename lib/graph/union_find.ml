type t = {
  parent : int array;
  rank : int array;
  size : int array;
  mutable count : int;
}

let create n =
  {
    parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    size = Array.make n 1;
    count = n;
  }

let[@wa.hot] rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let[@wa.hot] union t i j =
  let ri = find t i and rj = find t j in
  if ri = rj then false
  else begin
    let a = if t.rank.(ri) >= t.rank.(rj) then ri else rj in
    let b = if a = ri then rj else ri in
    t.parent.(b) <- a;
    t.size.(a) <- t.size.(a) + t.size.(b);
    if t.rank.(a) = t.rank.(b) then t.rank.(a) <- t.rank.(a) + 1;
    t.count <- t.count - 1;
    true
  end

let connected t i j = find t i = find t j

let count t = t.count

let size_of t i = t.size.(find t i)
