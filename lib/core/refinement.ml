module Params = Wa_sinr.Params
module Linkset = Wa_sinr.Linkset
module Affectance = Wa_sinr.Affectance

type t = {
  buckets : int list array;
  bucket_of : int array;
  kappa : float;
}

let refine ?(kappa = 1.0) p ls =
  if kappa <= 0.0 then invalid_arg "Refinement.refine: kappa must be positive";
  let n = Linkset.size ls in
  let order = Linkset.by_decreasing_length ls in
  let buckets = ref [||] in
  let bucket_of = Array.make n (-1) in
  let bucket_load i k =
    (* I(i, S_k): pressure of link i on the current bucket k. *)
    Affectance.additive_on_set p ls (!buckets).(k) i
  in
  Array.iter
    (fun i ->
      let count = Array.length !buckets in
      let rec place k =
        if k = count then begin
          buckets := Array.append !buckets [| [ i ] |];
          bucket_of.(i) <- k
        end
        else if bucket_load i k < kappa then begin
          (!buckets).(k) <- i :: (!buckets).(k);
          bucket_of.(i) <- k
        end
        else place (k + 1)
      in
      place 0)
    order;
  let buckets = Array.map (List.sort Int.compare) !buckets in
  { buckets; bucket_of; kappa }

let bucket_count t = Array.length t.buckets

let m_max_pressure = Wa_obs.Metrics.gauge "affectance.max_pressure"

(* The batch sweep does half the pair kernels of per-link calls
   (longer-sets are prefixes of the length order); a per-link fan-out
   would re-scan the whole array per link, so batching beats
   parallelizing here even on multi-core. *)
let longer_pressure p ls =
  Wa_obs.Trace.with_span "affectance.pressure" @@ fun () ->
  let per_link = Affectance.mst_longer_pressure_all p ls in
  let v = Array.fold_left Float.max 0.0 per_link in
  Wa_obs.Metrics.set m_max_pressure v;
  v

let buckets_g1_independent p ls t =
  let gamma = t.kappa ** (-1.0 /. p.Params.alpha) in
  let th = Conflict.Constant gamma in
  let bucket_independent bucket =
    let rec pairs = function
      | [] -> true
      | i :: rest ->
          List.for_all (fun j -> not (Conflict.conflicting p th ls i j)) rest
          && pairs rest
    in
    pairs bucket
  in
  Array.for_all Fun.id
    (Wa_util.Parallel.map_array ~threshold:4 bucket_independent t.buckets)
