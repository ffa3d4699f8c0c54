module Dynamic = Wa_core.Dynamic
module Metrics = Wa_obs.Metrics

type entry = {
  dyn : Dynamic.t;
  lock : Mutex.t;  (** Serializes churn ops on this one session. *)
}

type t = {
  mutex : Mutex.t;  (** Guards the table and id counter only. *)
  table : (int, entry) Hashtbl.t; [@wa.guarded_by "Session.t.mutex"]
  max_sessions : int;
  mutable next_id : int; [@wa.guarded_by "Session.t.mutex"]
  g_sessions : Metrics.gauge;
}

let create ?(max_sessions = 64) () =
  if max_sessions < 1 then invalid_arg "Session.create: max_sessions must be >= 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 16;
    max_sessions;
    next_id = 1;
    g_sessions = Metrics.gauge "service.sessions";
  }

let publish t = Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.table))

let open_session t ?params ?gamma ~sink power =
  let dyn = Dynamic.create ?params ?gamma ~sink power in
  Mutex.lock t.mutex;
  let r =
    if Hashtbl.length t.table >= t.max_sessions then Error `Limit
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.table id { dyn; lock = Mutex.create () };
      publish t;
      Ok id
    end
  in
  Mutex.unlock t.mutex;
  r

(* The registry lock is released before the per-session lock is taken:
   a long churn op must not block unrelated sessions.  A concurrent
   [close] can then detach the entry mid-op — harmless, the op
   completes on the detached network and the reply is still valid. *)
let with_session t id f =
  Mutex.lock t.mutex;
  let entry = Hashtbl.find_opt t.table id in
  Mutex.unlock t.mutex;
  match entry with
  | None -> Error `Unknown
  | Some { dyn; lock } ->
      Mutex.lock lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> Ok (f dyn))

let close t id =
  Mutex.lock t.mutex;
  let existed = Hashtbl.mem t.table id in
  Hashtbl.remove t.table id;
  publish t;
  Mutex.unlock t.mutex;
  existed

let count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

let close_all t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  publish t;
  Mutex.unlock t.mutex
