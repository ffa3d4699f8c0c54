(* Whole-program summary engine for wa_check.

   check.ml extracts serializable per-unit {e facts} from each
   Typedtree (direct allocations, raises, writes, calls with argument
   maps, record-field bounds, positivity of results); this module owns
   everything that happens {e between} units: the call graph, the
   bottom-up fixpoint over its strongly connected components, the
   global record-field invariant table, and the on-disk cache keyed by
   [.cmt] digest that makes warm re-runs skip the Typedtrees entirely.

   All fixpoints are standard:

   - allocation, may-raise and write-footprints are {e least}
     fixpoints (start from the direct facts, propagate along calls
     until stable; unknown callees were already pessimized at
     extraction time);
   - returns-positive is a {e greatest} fixpoint (every function in an
     SCC is assumed positive, assumptions are refuted until stable) —
     the coinductive reading is sound for the terminating functions
     the analyzer targets, and it is what lets mutual recursion
     ([fa]/[fb] fixtures, loops through [Linkset]) prove positivity.

   Nothing here touches compiler-libs: facts are plain strings and
   ints, so the cache round-trips through [Wa_util.Json] and the
   fixpoint is testable without a single [.cmt]. *)

module Json = Wa_util.Json
module SSet = Set.Make (String)

(* Facts ------------------------------------------------------------- *)

(* Lower bound of a float quantity: value >= lb, or > lb when
   [strict].  The meet across construction sites keeps the weakest
   claim; [None] (no information) absorbs. *)
type bound = { lb : float; strict : bool }

let meet_bound a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b ->
      if Float.equal a.lb b.lb then
        Some { lb = a.lb; strict = a.strict && b.strict }
      else if a.lb < b.lb then Some a
      else Some b

let bound_positive = function
  | Some { lb; strict } -> lb > 0.0 || (Float.equal lb 0.0 && strict)
  | None -> false

(* One call site, as much as the fixpoint needs: the resolved callee
   (dotted fully qualified name), which of the caller's parameters
   flow into which callee argument positions, the exception
   constructors an enclosing [try] around the call would catch ("*"
   for a catch-all pattern), the mutex names held when the call is
   made, and whether the call happens inside a closure handed to a
   spawn point ([Pool.submit] / [Domain.spawn] / [Thread.create] / the
   [Parallel] entries) — deferred calls run on another domain or
   thread, so the caller's held locks do not apply and the call cannot
   block the caller. *)
type call = {
  c_callee : string;
  c_args : (int * int) list;  (* callee arg position -> caller param index *)
  c_caught : string list;
  c_held : string list;  (* lock names held at the call site *)
  c_deferred : bool;
}

type fn_fact = {
  f_fq : string;  (* "Wa_core.Conflict.eval" *)
  f_params : string list;  (* labelled name or binder name, curried order *)
  f_line : int;
  f_col : int;
  f_hot : bool;  (* carries a [@wa.hot] annotation *)
  f_alloc : string option;  (* direct allocation: None = clean *)
  f_raises : string list;  (* directly raised, not caught locally *)
  f_global_writes : string list;  (* description of each global write *)
  f_param_writes : int list;  (* parameter indices written directly *)
  f_pos : bool;  (* result nonzero by local reasoning alone *)
  f_pos_deps : string list option;
      (* Some deps: result nonzero iff every dep returns positive *)
  f_preconds : string list;  (* params that must be positive (divisors) *)
  f_dom : string;  (* result unit-domain name, "unknown" when unhelpful *)
  f_calls : call list;
  f_event_loop : bool;  (* carries a [@wa.event_loop] annotation *)
  f_block : string option;
      (* direct blocking primitive reached outside deferred closures:
         "Condition.wait (src:line)", None = locally non-blocking *)
  f_locks : string list;  (* lock names acquired anywhere in the body *)
  f_lock_edges : (string * string * int) list;
      (* (held, acquired, line): nested acquisition observed in the body *)
  f_requires : (string * string) list;
      (* (lock, witness): guarded state touched without the lock held;
         becomes a call-site precondition during the fixpoint *)
  f_guarded : int;  (* guarded accesses certified with the lock held *)
}

(* Record-field bound observed at one construction site. *)
type field_fact = {
  r_type : string;  (* dotted type path, "Wa_sinr.Params.t" *)
  r_field : string;
  r_bound : bound option;
}

type unit_facts = {
  u_path : string;  (* .cmt path *)
  u_src : string;  (* source path as recorded in the cmt *)
  u_digest : string;
  u_fns : fn_fact list;
  u_fields : field_fact list;
}

(* Summaries --------------------------------------------------------- *)

type fn_summary = {
  s_fq : string;
  s_params : string list;
  s_line : int;
  s_col : int;
  s_hot : bool;
  s_alloc : string option;  (* Some chain: "f -> g: tuple construction" *)
  s_raises : SSet.t;  (* escaping exception constructors, transitive *)
  s_global_writes : string list;  (* transitive, with call chains *)
  s_param_writes : int list;  (* transitive *)
  s_pos : bool;  (* returns a provably nonzero float *)
  s_preconds : string list;
  s_dom : string;
  s_callers : int;  (* in-tree call sites targeting this function *)
  s_event_loop : bool;
  s_block : string option;  (* Some chain: "f -> g: Condition.wait (...)" *)
  s_locks : (string * string) list;
      (* (lock, via): locks this function may acquire, transitively;
         via is the call path, "" when acquired directly *)
  s_requires : (string * string) list;
      (* (lock, chain): locks that must be held by the caller — every
         requirement left on a zero-caller root is a lockset violation *)
}

type table = {
  fns : (string, fn_summary) Hashtbl.t;
  by_suffix : (string, string list) Hashtbl.t;  (* "Mod.fn" -> fqs *)
  fields : (string * string, bound option) Hashtbl.t;
}

let empty_table () =
  { fns = Hashtbl.create 16; by_suffix = Hashtbl.create 16;
    fields = Hashtbl.create 16 }

let find t fq = Hashtbl.find_opt t.fns fq

(* Last-two-components fallback: "Conflict.eval" resolves when exactly
   one summarized function ends in those components (module aliases
   and re-exports leave some call sites with short paths). *)
let lookup t fq =
  match Hashtbl.find_opt t.fns fq with
  | Some s -> Some s
  | None -> (
      match String.split_on_char '.' fq with
      | [] | [ _ ] -> None
      | parts -> (
          let n = List.length parts in
          let suffix =
            String.concat "." (List.filteri (fun i _ -> i >= n - 2) parts)
          in
          match Hashtbl.find_opt t.by_suffix suffix with
          | Some [ fq ] -> Hashtbl.find_opt t.fns fq
          | _ -> None))

let field_bound t ~type_fq ~field =
  match Hashtbl.find_opt t.fields (type_fq, field) with
  | Some b -> b
  | None -> (
      (* Same suffix fallback as [lookup]: the defining module sees
         its own record type under a short path. *)
      match String.split_on_char '.' type_fq with
      | [] | [ _ ] -> None
      | parts ->
          let n = List.length parts in
          let suffix =
            String.concat "." (List.filteri (fun i _ -> i >= n - 2) parts)
          in
          let hits =
            Hashtbl.fold
              (fun (ty, fd) b acc ->
                if
                  String.equal fd field
                  && (String.equal ty suffix
                     || (String.length ty > String.length suffix
                        && String.sub ty
                             (String.length ty - String.length suffix - 1)
                             (String.length suffix + 1)
                           = "." ^ suffix))
                then b :: acc
                else acc)
              t.fields []
          in
          (match hits with [ b ] -> b | _ -> None))

(* Tarjan ------------------------------------------------------------ *)

(* Strongly connected components of the call graph, emitted in
   reverse topological order (callees before callers), so one
   bottom-up sweep with iteration only {e inside} each SCC reaches the
   least fixpoint. *)
let sccs (nodes : string list) (succ : string -> string list) =
  let index = Hashtbl.create 64 in
  let low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if String.equal w v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !out

(* Fixpoint ----------------------------------------------------------- *)

let max_chain_entries = 3

let solve (units : unit_facts list) : table =
  let t = empty_table () in
  let facts = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter (fun f -> Hashtbl.replace facts f.f_fq f) u.u_fns;
      List.iter
        (fun r ->
          let key = (r.r_type, r.r_field) in
          let b =
            match Hashtbl.find_opt t.fields key with
            | None -> r.r_bound
            | Some prev -> meet_bound prev r.r_bound
          in
          Hashtbl.replace t.fields key b)
        u.u_fields)
    units;
  let nodes = Hashtbl.fold (fun fq _ acc -> fq :: acc) facts [] in
  let nodes = List.sort String.compare nodes in
  let succ fq =
    match Hashtbl.find_opt facts fq with
    | None -> []
    | Some f ->
        List.filter_map
          (fun c ->
            if Hashtbl.mem facts c.c_callee then Some c.c_callee else None)
          f.f_calls
  in
  (* Mutable per-function state driven to fixpoint. *)
  let alloc = Hashtbl.create 256 in
  let raises = Hashtbl.create 256 in
  let gwrites = Hashtbl.create 256 in
  let pwrites = Hashtbl.create 256 in
  let pos = Hashtbl.create 256 in
  let callers = Hashtbl.create 256 in
  let block = Hashtbl.create 256 in
  let locks = Hashtbl.create 256 in
  let requires = Hashtbl.create 256 in
  (* Requirements keyed by lock, first witness wins; sorted so the
     fixpoint (and therefore the cache) is deterministic. *)
  let norm_req l =
    let sorted =
      List.sort
        (fun (a, ca) (b, cb) ->
          match String.compare a b with 0 -> String.compare ca cb | c -> c)
        l
    in
    let rec dedup = function
      | (a, ca) :: (b, _) :: rest when String.equal a b ->
          dedup ((a, ca) :: rest)
      | x :: rest -> x :: dedup rest
      | [] -> []
    in
    dedup sorted
  in
  Hashtbl.iter
    (fun fq f ->
      Hashtbl.replace alloc fq f.f_alloc;
      Hashtbl.replace raises fq (SSet.of_list f.f_raises);
      Hashtbl.replace gwrites fq f.f_global_writes;
      Hashtbl.replace pwrites fq f.f_param_writes;
      Hashtbl.replace block fq f.f_block;
      Hashtbl.replace locks fq
        (List.map
           (fun l -> (l, ""))
           (List.sort_uniq String.compare f.f_locks));
      Hashtbl.replace requires fq (norm_req f.f_requires);
      List.iter
        (fun c ->
          Hashtbl.replace callers c.c_callee
            (1 + Option.value ~default:0 (Hashtbl.find_opt callers c.c_callee)))
        f.f_calls)
    facts;
  let union_take xs ys =
    let merged =
      List.sort_uniq String.compare (xs @ ys)
    in
    List.filteri (fun i _ -> i < max_chain_entries) merged
  in
  let short fq =
    match List.rev (String.split_on_char '.' fq) with
    | v :: m :: _ -> m ^ "." ^ v
    | _ -> fq
  in
  (* One propagation step for the least-fixpoint components of [fq];
     returns true when anything changed. *)
  let step fq =
    match Hashtbl.find_opt facts fq with
    | None -> false
    | Some f ->
        let changed = ref false in
        List.iter
          (fun c ->
            match Hashtbl.find_opt facts c.c_callee with
            | None -> ()
            | Some _ ->
                (* allocation chains *)
                (match (Hashtbl.find alloc fq, Hashtbl.find alloc c.c_callee)
                 with
                | None, Some reason ->
                    Hashtbl.replace alloc fq
                      (Some (short c.c_callee ^ " -> " ^ reason));
                    changed := true
                | _ -> ());
                (* may-raise, minus what the call site catches *)
                let callee_raises = Hashtbl.find raises c.c_callee in
                let escaping =
                  if List.mem "*" c.c_caught then SSet.empty
                  else
                    SSet.filter
                      (fun e -> not (List.mem e c.c_caught))
                      callee_raises
                in
                let mine = Hashtbl.find raises fq in
                if not (SSet.subset escaping mine) then begin
                  Hashtbl.replace raises fq (SSet.union mine escaping);
                  changed := true
                end;
                (* write footprints *)
                let cg = Hashtbl.find gwrites c.c_callee in
                if not (List.is_empty cg) then begin
                  let tagged =
                    List.map (fun w -> short c.c_callee ^ " -> " ^ w) cg
                  in
                  let mine = Hashtbl.find gwrites fq in
                  let merged = union_take mine tagged in
                  if merged <> mine then begin
                    Hashtbl.replace gwrites fq merged;
                    changed := true
                  end
                end;
                let cpw = Hashtbl.find pwrites c.c_callee in
                List.iter
                  (fun j ->
                    match List.assoc_opt j c.c_args with
                    | Some i ->
                        let mine = Hashtbl.find pwrites fq in
                        if not (List.mem i mine) then begin
                          Hashtbl.replace pwrites fq
                            (List.sort Int.compare (i :: mine));
                          changed := true
                        end
                    | None -> ())
                  cpw;
                (* blocking chains: a deferred call runs on another
                   domain and cannot block this one *)
                (if not c.c_deferred then
                   match
                     (Hashtbl.find block fq, Hashtbl.find block c.c_callee)
                   with
                   | None, Some reason ->
                       Hashtbl.replace block fq
                         (Some (short c.c_callee ^ " -> " ^ reason));
                       changed := true
                   | _ -> ());
                (* transitive lock acquisitions, for the order graph *)
                (if not c.c_deferred then begin
                   let mine = Hashtbl.find locks fq in
                   let add =
                     List.filter_map
                       (fun (l, via) ->
                         if List.mem_assoc l mine then None
                         else
                           let via' =
                             if String.equal via "" then short c.c_callee
                             else short c.c_callee ^ " -> " ^ via
                           in
                           Some (l, via'))
                       (Hashtbl.find locks c.c_callee)
                   in
                   if not (List.is_empty add) then begin
                     Hashtbl.replace locks fq
                       (List.sort
                          (fun (a, _) (b, _) -> String.compare a b)
                          (add @ mine));
                     changed := true
                   end
                 end);
                (* lock requirements, discharged by locks held at the
                   call site (none apply across a deferral boundary) *)
                let held = if c.c_deferred then [] else c.c_held in
                let mine = Hashtbl.find requires fq in
                let add =
                  List.filter_map
                    (fun (l, chain) ->
                      if List.mem l held || List.mem_assoc l mine then None
                      else Some (l, short c.c_callee ^ " -> " ^ chain))
                    (Hashtbl.find requires c.c_callee)
                in
                if not (List.is_empty add) then begin
                  Hashtbl.replace requires fq (norm_req (add @ mine));
                  changed := true
                end)
          f.f_calls;
        !changed
  in
  let components = sccs nodes succ in
  List.iter
    (fun comp ->
      let continue = ref true in
      while !continue do
        continue := List.exists step comp
      done;
      (* returns-positive: greatest fixpoint inside the component.
         Every member starts from its own claim; members whose claim
         depends on callees get refuted when a dependency fails. *)
      List.iter
        (fun fq ->
          let f = Hashtbl.find facts fq in
          Hashtbl.replace pos fq (f.f_pos || f.f_pos_deps <> None))
        comp;
      let refute = ref true in
      while !refute do
        refute :=
          List.exists
            (fun fq ->
              let f = Hashtbl.find facts fq in
              if not (Hashtbl.find pos fq) then false
              else if f.f_pos then false
              else
                match f.f_pos_deps with
                | None -> false
                | Some deps ->
                    let ok =
                      List.for_all
                        (fun d ->
                          match Hashtbl.find_opt pos d with
                          | Some v -> v
                          | None -> false)
                        deps
                    in
                    if ok then false
                    else begin
                      Hashtbl.replace pos fq false;
                      true
                    end)
            comp
      done)
    components;
  Hashtbl.iter
    (fun fq f ->
      let s =
        {
          s_fq = fq;
          s_params = f.f_params;
          s_line = f.f_line;
          s_col = f.f_col;
          s_hot = f.f_hot;
          s_alloc = Hashtbl.find alloc fq;
          s_raises = Hashtbl.find raises fq;
          s_global_writes = Hashtbl.find gwrites fq;
          s_param_writes = Hashtbl.find pwrites fq;
          s_pos = Hashtbl.find pos fq;
          s_preconds = f.f_preconds;
          s_dom = f.f_dom;
          s_callers = Option.value ~default:0 (Hashtbl.find_opt callers fq);
          s_event_loop = f.f_event_loop;
          s_block = Hashtbl.find block fq;
          s_locks = Hashtbl.find locks fq;
          s_requires = Hashtbl.find requires fq;
        }
      in
      Hashtbl.replace t.fns fq s;
      let suffix = short fq in
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_suffix suffix) in
      Hashtbl.replace t.by_suffix suffix (fq :: prev))
    facts;
  t

(* JSON codecs for the cache ------------------------------------------ *)

let bound_to_json = function
  | None -> Json.Null
  | Some { lb; strict } ->
      Json.Obj [ ("lb", Json.Float lb); ("strict", Json.Bool strict) ]

let bound_of_json = function
  | Json.Obj _ as j -> (
      match
        ( Option.bind (Json.member "lb" j) Json.to_float_opt,
          Json.member "strict" j )
      with
      | Some lb, Some (Json.Bool strict) -> Some { lb; strict }
      | _ -> None)
  | _ -> None

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let strings_of j =
  match j with
  | Some (Json.List l) ->
      Some (List.filter_map Json.to_string_opt l)
  | _ -> None

let pairs l =
  Json.List
    (List.map (fun (a, b) -> Json.List [ Json.String a; Json.String b ]) l)

let pairs_of j =
  match j with
  | Some (Json.List l) ->
      Some
        (List.filter_map
           (function
             | Json.List [ Json.String a; Json.String b ] -> Some (a, b)
             | _ -> None)
           l)
  | _ -> None

let call_to_json c =
  Json.Obj
    [
      ("callee", Json.String c.c_callee);
      ( "args",
        Json.List
          (List.map
             (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ])
             c.c_args) );
      ("caught", strings c.c_caught);
      ("held", strings c.c_held);
      ("deferred", Json.Bool c.c_deferred);
    ]

let call_of_json j =
  match
    ( Option.bind (Json.member "callee" j) Json.to_string_opt,
      Json.member "args" j,
      strings_of (Json.member "caught" j),
      strings_of (Json.member "held" j),
      Json.member "deferred" j )
  with
  | ( Some c_callee,
      Some (Json.List args),
      Some c_caught,
      Some c_held,
      Some (Json.Bool c_deferred) ) ->
      let c_args =
        List.filter_map
          (function
            | Json.List [ Json.Int a; Json.Int b ] -> Some (a, b)
            | _ -> None)
          args
      in
      Some { c_callee; c_args; c_caught; c_held; c_deferred }
  | _ -> None

let fn_to_json f =
  Json.Obj
    [
      ("fq", Json.String f.f_fq);
      ("params", strings f.f_params);
      ("line", Json.Int f.f_line);
      ("col", Json.Int f.f_col);
      ("hot", Json.Bool f.f_hot);
      ( "alloc",
        match f.f_alloc with None -> Json.Null | Some r -> Json.String r );
      ("raises", strings f.f_raises);
      ("global_writes", strings f.f_global_writes);
      ("param_writes", Json.List (List.map (fun i -> Json.Int i) f.f_param_writes));
      ("pos", Json.Bool f.f_pos);
      ( "pos_deps",
        match f.f_pos_deps with None -> Json.Null | Some d -> strings d );
      ("preconds", strings f.f_preconds);
      ("dom", Json.String f.f_dom);
      ("calls", Json.List (List.map call_to_json f.f_calls));
      ("event_loop", Json.Bool f.f_event_loop);
      ( "block",
        match f.f_block with None -> Json.Null | Some r -> Json.String r );
      ("locks", strings f.f_locks);
      ( "lock_edges",
        Json.List
          (List.map
             (fun (a, b, ln) ->
               Json.List [ Json.String a; Json.String b; Json.Int ln ])
             f.f_lock_edges) );
      ("requires", pairs f.f_requires);
      ("guarded", Json.Int f.f_guarded);
    ]

let fn_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let boolean k =
    match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
  in
  match
    ( str "fq", strings_of (Json.member "params" j), int "line", int "col",
      boolean "hot", strings_of (Json.member "raises" j),
      strings_of (Json.member "global_writes" j), boolean "pos",
      strings_of (Json.member "preconds" j), str "dom" )
  with
  | Some f_fq, Some f_params, Some f_line, Some f_col, Some f_hot,
    Some f_raises, Some f_global_writes, Some f_pos, Some f_preconds,
    Some f_dom ->
      let f_alloc =
        match Json.member "alloc" j with
        | Some (Json.String s) -> Some s
        | _ -> None
      in
      let f_param_writes =
        match Json.member "param_writes" j with
        | Some (Json.List l) -> List.filter_map Json.to_int_opt l
        | _ -> []
      in
      let f_pos_deps =
        match Json.member "pos_deps" j with
        | Some (Json.List _) -> strings_of (Json.member "pos_deps" j)
        | _ -> None
      in
      let f_calls =
        match Json.member "calls" j with
        | Some (Json.List l) -> List.filter_map call_of_json l
        | _ -> []
      in
      let f_event_loop =
        match Json.member "event_loop" j with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      let f_block =
        match Json.member "block" j with
        | Some (Json.String s) -> Some s
        | _ -> None
      in
      let f_locks =
        Option.value ~default:[] (strings_of (Json.member "locks" j))
      in
      let f_lock_edges =
        match Json.member "lock_edges" j with
        | Some (Json.List l) ->
            List.filter_map
              (function
                | Json.List [ Json.String a; Json.String b; Json.Int ln ] ->
                    Some (a, b, ln)
                | _ -> None)
              l
        | _ -> []
      in
      let f_requires =
        Option.value ~default:[] (pairs_of (Json.member "requires" j))
      in
      let f_guarded =
        Option.value ~default:0
          (Option.bind (Json.member "guarded" j) Json.to_int_opt)
      in
      Some
        {
          f_fq; f_params; f_line; f_col; f_hot; f_alloc; f_raises;
          f_global_writes; f_param_writes; f_pos; f_pos_deps; f_preconds;
          f_dom; f_calls; f_event_loop; f_block; f_locks; f_lock_edges;
          f_requires; f_guarded;
        }
  | _ -> None

let field_to_json r =
  Json.Obj
    [
      ("type", Json.String r.r_type);
      ("field", Json.String r.r_field);
      ("bound", bound_to_json r.r_bound);
    ]

let field_of_json j =
  match
    ( Option.bind (Json.member "type" j) Json.to_string_opt,
      Option.bind (Json.member "field" j) Json.to_string_opt )
  with
  | Some r_type, Some r_field ->
      let r_bound =
        Option.bind (Json.member "bound" j) (fun b -> bound_of_json b)
      in
      Some { r_type; r_field; r_bound }
  | _ -> None

let unit_to_json u =
  Json.Obj
    [
      ("path", Json.String u.u_path);
      ("src", Json.String u.u_src);
      ("digest", Json.String u.u_digest);
      ("fns", Json.List (List.map fn_to_json u.u_fns));
      ("fields", Json.List (List.map field_to_json u.u_fields));
    ]

let unit_of_json j =
  match
    ( Option.bind (Json.member "path" j) Json.to_string_opt,
      Option.bind (Json.member "src" j) Json.to_string_opt,
      Option.bind (Json.member "digest" j) Json.to_string_opt )
  with
  | Some u_path, Some u_src, Some u_digest ->
      let u_fns =
        match Json.member "fns" j with
        | Some (Json.List l) -> List.filter_map fn_of_json l
        | _ -> []
      in
      let u_fields =
        match Json.member "fields" j with
        | Some (Json.List l) -> List.filter_map field_of_json l
        | _ -> []
      in
      Some { u_path; u_src; u_digest; u_fns; u_fields }
  | _ -> None

(* Cache -------------------------------------------------------------- *)

(* Version 2: concurrency facts (held locks at call sites, deferred
   closures, blocking reasons, lock acquisitions and order edges,
   guarded-access requirements) joined the per-function record. *)
let cache_version = 2

let digest_file path = Digest.to_hex (Digest.file path)

type cached_unit = {
  cu_facts : unit_facts;
  cu_report : Json.t;  (* the per-unit file report, opaque to us *)
}

type cache = { c_units : cached_unit list }

let cache_to_json c =
  Json.Obj
    [
      ("tool", Json.String "wa_check_cache");
      ("version", Json.Int cache_version);
      ( "units",
        Json.List
          (List.map
             (fun cu ->
               Json.Obj
                 [
                   ("facts", unit_to_json cu.cu_facts);
                   ("report", cu.cu_report);
                 ])
             c.c_units) );
    ]

let cache_of_json j =
  match
    (Option.bind (Json.member "version" j) Json.to_int_opt, Json.member "units" j)
  with
  | Some v, Some (Json.List units) when v = cache_version ->
      let c_units =
        List.filter_map
          (fun u ->
            match (Json.member "facts" u, Json.member "report" u) with
            | Some facts, Some report ->
                Option.map
                  (fun cu_facts -> { cu_facts; cu_report = report })
                  (unit_of_json facts)
            | _ -> None)
          units
      in
      Some { c_units }
  | _ -> None

let load_cache path =
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception _ -> None
    | data -> (
        match Json.of_string data with
        | Error _ -> None
        | Ok j -> cache_of_json j)

let save_cache path c =
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Json.to_channel ~pretty:false oc (cache_to_json c);
        output_char oc '\n');
    true
  with _ -> false

type cache_stats = {
  st_units : int;
  st_hits : int;
  st_warm : bool;  (* every unit hit: no Typedtree was loaded *)
}

let stats_to_json st =
  Json.Obj
    [
      ("units", Json.Int st.st_units);
      ("hits", Json.Int st.st_hits);
      ("misses", Json.Int (st.st_units - st.st_hits));
      ("warm", Json.Bool st.st_warm);
    ]
