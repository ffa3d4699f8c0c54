(* Fixture: would-be violations silenced by suppression attributes. *)
let is_empty l = (l = []) [@wa.lint.allow "list-eq"]
let near_zero x = (x = 0.0) [@wa.lint.allow "float-eq"]
let wall_clock () = (Unix.gettimeofday [@wa.lint.allow "unix-scope"]) ()
let tracing () = (Wa_obs.enabled [@wa.lint.allow "obs-scope"]) ()
