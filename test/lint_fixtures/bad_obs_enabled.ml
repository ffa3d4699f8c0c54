(* Fixture: exactly one [obs-scope] violation (a branch on telemetry
   outside lib/obs/). *)
let extra_work () = if Wa_obs.enabled () then Some (List.init 8 Fun.id) else None
