(* Typed-AST semantic analysis for the wireless_agg tree.

   Where wa_lint is deliberately syntactic (Parsetree, no types), this
   analyzer loads the .cmt files dune already produces and walks the
   Typedtree, so every rule below sees resolved paths and inferred
   types.  Since PR 8 the analysis is whole-program: a first phase
   extracts serializable per-function facts from every unit
   ([Summary.unit_facts]), a second phase builds the call graph and
   runs a bottom-up fixpoint over its SCCs ([Summary.solve]), and a
   third phase re-walks each unit with the summary table in hand.  Ten
   passes:

   - [domain-capture]: for every closure reaching
     [Wa_util.Parallel.{iter,init,map_array}] or [Thread.create],
     compute the capture set from the Typedtree and reject writes to
     captured refs ([:=], [incr], [decr]), mutable record fields
     ([<-]), arrays ([Array.set], [a.(i) <- v]) and mutating container
     calls ([Hashtbl.replace], [Buffer.add_*], ...) on free variables
     of the closure — unsynchronized mutable state shared across
     worker domains or preempting threads.  With summaries the check is transitive: a call whose
     callee (through any chain) writes module-level state, or writes
     through a parameter bound to free non-[Atomic] state, is rejected
     too.  [Atomic.t] state is exempt, as are whitelisted sites
     ([lib/obs/], [lib/util/parallel.ml] by default, where the
     disjoint-write and per-domain-buffer invariants are documented).
   - [unit-mix]: a small abstract interpretation over the lattice
     {power, distance, distance^alpha, gain, log-domain,
     dimensionless, unknown} seeded from declared sources
     ([Power.value], [Linkset.length], [Logfloat.log_value], [log],
     [Params] fields, ...) and, with summaries, from the recorded
     result domain of any resolvable callee.
   - [float-unguarded]: on configured hot paths, a division / [log] /
     [sqrt] whose denominator/argument is not provably nonzero.
     Provers: positive-by-construction sources, nonzero literals,
     products/powers of those, enclosing guards, record-field bounds
     proven over every construction site in the program
     ([Params.make]'s [alpha > 2] and friends), callees summarized as
     returning a positive float (through mutual recursion), witness
     refs ([let ok = ref true] refuted before use), and positive-array
     invariants ([Array.make _ c] with every write floored).  A
     denominator that only a caller can prove becomes a recorded
     precondition, discharged at every hot call site instead of
     flagged at the definition.
   - [nan-compare]: the same unguarded NaN-producing shapes appearing
     inside a comparator closure passed to [List.sort] /
     [Array.sort] / [sort_uniq] — NaN keys silently corrupt order.
   - [exn-escape]: a raise that can cross a [Parallel] chunk boundary
     and kill the fan-out on a worker domain: either a syntactic raise
     ([raise], [failwith], [invalid_arg], [assert]) with no enclosing
     [try] inside the closure, or — with summaries — a call whose
     transitive may-raise set is not covered by the enclosing
     handlers.  [Fun.protect] bodies count as handled (they delegate
     cleanup deliberately).
   - [hot-alloc]: functions annotated [@wa.hot] are certified to
     perform no heap allocation transitively: tuples, records, array
     literals, non-constant constructors, closures that capture,
     partial applications and calls to unsummarized functions are all
     diagnosed with the allocating call chain.  Cold paths (branches
     that always raise, assertion payloads) and non-escaping local
     refs are excluded; float boxing at returns and calls through
     function-typed parameters are out of the model (documented in
     DESIGN.md §14).
   - [lockset]: fields and top-level refs annotated
     [[@wa.guarded_by "Cache.t.mutex"]] must only be touched with the
     named mutex held.  Extraction threads the held-lock set through
     [Mutex.lock]/[unlock] sequences, [Mutex.protect] thunks and
     in-unit lock-wrapper functions; an access without the guard
     becomes a {e requirement} that call sites discharge by holding
     the lock ([Summary.solve] propagates undischarged requirements up
     the call graph), so helpers that run under their caller's lock
     are certified interprocedurally.  Requirements left on a function
     no summarized caller discharges are reported with the access
     chain.  [[@wa.benign_race]] marks an intentional unguarded field.
   - [lock-order]: the global lock-acquisition-order graph — direct
     nested acquisitions plus calls made with locks held into callees
     that transitively acquire more — must be acyclic; every edge of a
     cycle is reported with both conflicting chains.
   - [event-loop-block]: functions annotated [[@wa.event_loop]] (the
     per-iteration handlers of the select loop) are certified to reach
     no blocking primitive — [Condition.wait], [Thread.delay],
     [Domain.join], [Thread.join], blocking [Unix] syscalls (the
     [select] itself is exempt), [Pool.drain] (blocks via its
     [Condition.wait]), or functions marked [[@wa.compute]] — through
     any non-deferred call chain.  Closures handed to [Pool.submit] /
     [Domain.spawn] / [Thread.create] / [Parallel] entries run on
     other domains or threads and are exempt.
   - [check-then-act]: an [Atomic.get] in the scrutinee of a
     conditional followed by [Atomic.set] on the same atomic in a
     dependent branch is a lost-update window; use
     [Atomic.compare_and_set].

   Suppress with [[@wa.check.allow "rule ..."]] on the offending
   expression (or any enclosing one), or a floating
   [[@@@wa.check.allow "rule ..."]] for the whole file.  An on-disk
   cache keyed by .cmt digest ([analyze_program ~cache]) makes warm
   whole-program runs reconstruct byte-identical reports without
   reading a single Typedtree. *)

module Json = Wa_util.Json

(* Rules ------------------------------------------------------------- *)

let rule_domain_capture = "domain-capture"
let rule_unit_mix = "unit-mix"
let rule_float_unguarded = "float-unguarded"
let rule_nan_compare = "nan-compare"
let rule_exn_escape = "exn-escape"
let rule_hot_alloc = "hot-alloc"
let rule_lockset = "lockset"
let rule_lock_order = "lock-order"
let rule_event_loop = "event-loop-block"
let rule_check_then_act = "check-then-act"
let rule_cmt_error = "cmt-error"

let all_rules =
  [
    rule_domain_capture;
    rule_unit_mix;
    rule_float_unguarded;
    rule_nan_compare;
    rule_exn_escape;
    rule_hot_alloc;
    rule_lockset;
    rule_lock_order;
    rule_event_loop;
    rule_check_then_act;
    rule_cmt_error;
  ]

(* Configuration ------------------------------------------------------ *)

module Config = struct
  type t = {
    hot_paths : string list;
    capture_allowed : string list;
    positive_sources : (string * string) list;
    positive_maps : (string * string) list;
  }

  let default =
    {
      hot_paths = [ "lib/sinr/"; "lib/core/conflict.ml" ];
      capture_allowed = [ "lib/obs/"; "lib/util/parallel.ml" ];
      positive_sources =
        [
          (* Link.make rejects zero-length links, so every length
             derived from a linkset is strictly positive. *)
          ("Linkset", "length");
          ("Linkset", "min_length");
          ("Linkset", "max_length");
          ("Linkset", "diversity");
          (* The flat views expose the same validated lengths (and
             their alpha-powers) as arrays. *)
          ("Linkset", "lengths");
          ("Linkset", "lengths_pow");
          ("Link", "length");
          ("Link_index", "class_min_length");
          ("Link_index", "class_max_length");
          (* Power.value / Power.vector validate positivity (custom
             vectors via check_custom, oblivious schemes by
             construction). *)
          ("Power", "value");
          ("Power", "vector");
          ("Power", "oblivious_constant");
        ];
      positive_maps =
        [
          (* x^alpha is positive for positive x whatever the exponent;
             partial applications bound to a local name are tracked so
             [let pow = Params.alpha_pow p in ... pow d] inherits the
             guarantee from a guarded [d]. *)
          ("Params", "alpha_pow");
          ("Params", "pow_apply");
        ];
    }
end

(* Violations and reports (same schema as wa_lint, plus coverage) ----- *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let equal_violation a b =
  String.equal a.file b.file && a.line = b.line && a.col = b.col
  && String.equal a.rule b.rule
  && String.equal a.message b.message

let compare_violation a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let pp_violation fmt v =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" v.file v.line v.col v.rule v.message

let violation_to_json v =
  Json.Obj
    [
      ("file", Json.String v.file);
      ("line", Json.Int v.line);
      ("col", Json.Int v.col);
      ("rule", Json.String v.rule);
      ("message", Json.String v.message);
    ]

let violation_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  match (str "file", int "line", int "col", str "rule", str "message") with
  | Some file, Some line, Some col, Some rule, Some message ->
      Ok { file; line; col; rule; message }
  | _ -> Error "violation_of_json: missing or ill-typed field"

type report = {
  files_scanned : int;
  closures_analyzed : int;
  expressions_analyzed : int;
  guarded_accesses : int;  (* guarded-field accesses certified lock-held *)
  event_loop_roots : int;  (* [@wa.event_loop] roots certified non-blocking *)
  violations : violation list;
}

let report_to_json r =
  Json.Obj
    [
      ("tool", Json.String "wa_check");
      ("version", Json.Int 3);
      ("files_scanned", Json.Int r.files_scanned);
      ("closures_analyzed", Json.Int r.closures_analyzed);
      ("expressions_analyzed", Json.Int r.expressions_analyzed);
      ("guarded_accesses", Json.Int r.guarded_accesses);
      ("event_loop_roots", Json.Int r.event_loop_roots);
      ("violation_count", Json.Int (List.length r.violations));
      ("violations", Json.List (List.map violation_to_json r.violations));
    ]

let report_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  match
    ( int "files_scanned",
      int "closures_analyzed",
      int "expressions_analyzed",
      int "guarded_accesses",
      int "event_loop_roots",
      Json.member "violations" j )
  with
  | Some files_scanned, Some closures_analyzed, Some expressions_analyzed,
    Some guarded_accesses, Some event_loop_roots, Some (Json.List vs) ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
            match violation_of_json v with
            | Ok v -> collect (v :: acc) rest
            | Error _ as e -> e)
      in
      Result.map
        (fun violations ->
          {
            files_scanned;
            closures_analyzed;
            expressions_analyzed;
            guarded_accesses;
            event_loop_roots;
            violations;
          })
        (collect [] vs)
  | _ -> Error "report_of_json: missing files_scanned/stats/violations"

(* Per-file reports: the unit of caching. ----------------------------- *)

type file_report = {
  source : string option;
  analyzed : bool;
  file_violations : violation list;
  file_closures : int;
  file_expressions : int;
  file_guarded : int;  (* certified guarded-field accesses in this unit *)
  file_roots : int;  (* certified [@wa.event_loop] roots in this unit *)
}

let skipped =
  {
    source = None;
    analyzed = false;
    file_violations = [];
    file_closures = 0;
    file_expressions = 0;
    file_guarded = 0;
    file_roots = 0;
  }

let file_report_to_json r =
  Json.Obj
    [
      ( "source",
        match r.source with None -> Json.Null | Some s -> Json.String s );
      ("analyzed", Json.Bool r.analyzed);
      ("closures", Json.Int r.file_closures);
      ("expressions", Json.Int r.file_expressions);
      ("guarded", Json.Int r.file_guarded);
      ("roots", Json.Int r.file_roots);
      ("violations", Json.List (List.map violation_to_json r.file_violations));
    ]

let file_report_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let source =
    match Json.member "source" j with Some (Json.String s) -> Some s | _ -> None
  in
  let analyzed =
    match Json.member "analyzed" j with Some (Json.Bool b) -> Some b | _ -> None
  in
  match
    ( analyzed,
      int "closures",
      int "expressions",
      int "guarded",
      int "roots",
      Json.member "violations" j )
  with
  | Some analyzed, Some file_closures, Some file_expressions,
    Some file_guarded, Some file_roots, Some (Json.List vs) ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
            match violation_of_json v with
            | Ok v -> collect (v :: acc) rest
            | Error _ as e -> e)
      in
      Result.map
        (fun file_violations ->
          {
            source;
            analyzed;
            file_violations;
            file_closures;
            file_expressions;
            file_guarded;
            file_roots;
          })
        (collect [] vs)
  | _ -> Error "file_report_of_json: missing or ill-typed field"

(* Path helpers ------------------------------------------------------- *)

let normalize_path p =
  let p = String.map (fun c -> if c = '\\' then '/' else c) p in
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

let path_matches ~prefixes path =
  let path = normalize_path path in
  List.exists
    (fun prefix ->
      let prefix = normalize_path prefix in
      String.length path >= String.length prefix
      && String.sub path 0 (String.length prefix) = prefix)
    prefixes

(* Resolved-path helpers ---------------------------------------------- *)

(* Split a compilation-unit name mangled by dune's module wrapping:
   "Wa_util__Parallel" -> ["Wa_util"; "Parallel"]. *)
let split_wrapped s =
  let n = String.length s in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0 |> List.filter (fun x -> x <> "")

let rec path_parts = function
  | Path.Pident id -> split_wrapped (Ident.name id)
  | Path.Pdot (p, s) -> path_parts p @ [ s ]
  | Path.Papply (p, _) -> path_parts p
  | Path.Pextra_ty (p, _) -> path_parts p

(* (enclosing module, name): ["Wa_sinr"; "Linkset"; "length"] gives
   (Some "Linkset", "length"); a bare "log" gives (None, "log") with
   "Stdlib" qualifiers stripped. *)
let last2 parts =
  match List.rev parts with
  | [] -> (None, "")
  | [ v ] -> (None, v)
  | v :: "Stdlib" :: _ -> (None, v)
  | v :: m :: _ -> (Some m, v)

let short_fq fq =
  match List.rev (String.split_on_char '.' fq) with
  | v :: m :: _ -> m ^ "." ^ v
  | _ -> fq

open Typedtree

let fn_path e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let fn_last2 e = Option.map (fun p -> last2 (path_parts p)) (fn_path e)

let matches_table table e =
  match fn_last2 e with
  | Some (Some m, v) -> List.mem (m, v) table
  | _ -> false

let is_stdlib_fn names e =
  match fn_last2 e with
  | Some (None, v) -> List.mem v names
  | Some (Some "Float", v) -> List.mem v names
  | _ -> false

(* Resolver: local identifiers and module aliases of one unit -------- *)

type resolver = {
  unit_parts : string list;  (* ["Wa_sinr"; "Linkset"] *)
  r_values : (string, string) Hashtbl.t;
      (* Ident.unique_name of a toplevel binder -> dotted fq name *)
  r_aliases : (string, string list) Hashtbl.t;
      (* local module alias name -> aliased module parts *)
}

let build_resolver unit_parts str =
  let r =
    {
      unit_parts;
      r_values = Hashtbl.create 64;
      r_aliases = Hashtbl.create 8;
    }
  in
  let rec do_items prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun id ->
                    Hashtbl.replace r.r_values (Ident.unique_name id)
                      (String.concat "."
                         (unit_parts @ prefix @ [ Ident.name id ])))
                  (pat_bound_idents vb.vb_pat))
              vbs
        | Tstr_module mb -> do_module prefix mb
        | Tstr_recmodule mbs -> List.iter (do_module prefix) mbs
        | Tstr_include incl -> do_module_expr prefix incl.incl_mod
        | _ -> ())
      items
  and do_module prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        let name = Ident.name id in
        match mb.mb_expr.mod_desc with
        | Tmod_ident (p, _) -> Hashtbl.replace r.r_aliases name (path_parts p)
        | _ -> do_module_expr (prefix @ [ name ]) mb.mb_expr)
  and do_module_expr prefix me =
    match me.mod_desc with
    | Tmod_structure s -> do_items prefix s.str_items
    | Tmod_constraint (me, _, _, _) -> do_module_expr prefix me
    | Tmod_functor (_, me) -> do_module_expr prefix me
    | _ -> ()
  in
  do_items [] str.str_items;
  r

let resolve_parts r parts =
  let parts =
    match parts with "Stdlib" :: (_ :: _ as rest) -> rest | _ -> parts
  in
  match parts with
  | head :: rest -> (
      match Hashtbl.find_opt r.r_aliases head with
      | Some alias -> alias @ rest
      | None -> parts)
  | [] -> []

(* Resolve a callee expression to the dotted name [Summary.lookup]
   understands: a local Pident through [r_values], anything dotted
   through its path (aliases rewritten).  [None] for parameters, local
   closures and unresolvable shapes. *)
let resolve_fn r e =
  match fn_path e with
  | Some (Path.Pident id) -> Hashtbl.find_opt r.r_values (Ident.unique_name id)
  | Some p -> (
      match resolve_parts r (path_parts p) with
      | _ :: _ :: _ as parts -> Some (String.concat "." parts)
      | _ -> None)
  | None -> None

(* Type-head inspection ----------------------------------------------- *)

let type_last2 ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (last2 (path_parts p))
  | _ -> None

let is_atomic_type ty =
  match type_last2 ty with Some (Some "Atomic", "t") -> true | _ -> false

let is_arrow_type ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let is_float_type ty =
  match type_last2 ty with
  | Some (None, "float") | Some (Some "Float", "t") -> true
  | _ -> false

(* The fully qualified name of a (record) type: a bare in-unit ["t"]
   is prefixed with the unit itself. *)
let type_fq r ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match resolve_parts r (path_parts p) with
      | [ single ] -> Some (String.concat "." (r.unit_parts @ [ single ]))
      | [] -> None
      | parts -> Some (String.concat "." parts))
  | _ -> None

(* Suppressions ------------------------------------------------------- *)

let allows_of_payload = function
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( {
                  pexp_desc =
                    Pexp_constant (Parsetree.Pconst_string (s, _, _));
                  _;
                },
                _ );
          _;
        };
      ] ->
      String.split_on_char ' ' s |> List.filter (fun x -> x <> "")
  | _ -> []

let allows_of_attrs attrs =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt "wa.check.allow" then
        allows_of_payload a.attr_payload
      else [])
    attrs

let has_attr name attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let attr_string name attrs =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt name then
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc =
                          Pexp_constant (Parsetree.Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            Some s
        | _ -> None
      else None)
    attrs

let is_wa_hot attrs = has_attr "wa.hot" attrs

(* Guard tables: [@wa.guarded_by "Lock.name"] annotations ------------- *)

(* Keys are short "Module.type.field" strings for record fields
   ("Cache.t.tick", with the module being the nearest enclosing
   submodule, or the unit itself) and short "Module.name" strings for
   top-level refs ("Grid_index.budget_warned").  Lock names follow the
   same scheme ("Cache.t.mutex", "Metrics.registry_mutex"). *)
type guards = {
  g_decls : (string, string) Hashtbl.t;
      (* unique name of an in-unit type ident -> its display key
         ("Pool.t"): a bare [t] used inside [module Pool] carries no
         module path, so uses are resolved through the declaration *)
  g_locks : (string, string) Hashtbl.t;  (* access key -> guarding lock *)
  g_benign : (string, unit) Hashtbl.t;  (* intentional unguarded state *)
}

let collect_guards unit_parts str =
  let g =
    {
      g_decls = Hashtbl.create 8;
      g_locks = Hashtbl.create 8;
      g_benign = Hashtbl.create 4;
    }
  in
  let unit_last =
    match List.rev unit_parts with m :: _ -> m | [] -> ""
  in
  let display prefix name =
    let m = match List.rev prefix with m :: _ -> m | [] -> unit_last in
    m ^ "." ^ name
  in
  let do_label tkey (ld : label_declaration) =
    let attrs = ld.ld_attributes @ ld.ld_type.ctyp_attributes in
    let key = tkey ^ "." ^ Ident.name ld.ld_id in
    (match attr_string "wa.guarded_by" attrs with
    | Some lock -> Hashtbl.replace g.g_locks key lock
    | None -> ());
    if has_attr "wa.benign_race" attrs then Hashtbl.replace g.g_benign key ()
  in
  let rec do_items prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_type (_, decls) ->
            List.iter
              (fun (d : type_declaration) ->
                let tkey = display prefix (Ident.name d.typ_id) in
                Hashtbl.replace g.g_decls (Ident.unique_name d.typ_id) tkey;
                match d.typ_kind with
                | Ttype_record lds -> List.iter (do_label tkey) lds
                | _ -> ())
              decls
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) -> (
                    let key = display prefix (Ident.name id) in
                    (match attr_string "wa.guarded_by" vb.vb_attributes with
                    | Some lock -> Hashtbl.replace g.g_locks key lock
                    | None -> ());
                    if has_attr "wa.benign_race" vb.vb_attributes then
                      Hashtbl.replace g.g_benign key ())
                | _ -> ())
              vbs
        | Tstr_module mb -> (
            match mb.mb_id with
            | Some id -> do_module_expr (prefix @ [ Ident.name id ]) mb.mb_expr
            | None -> ())
        | Tstr_recmodule mbs ->
            List.iter
              (fun mb ->
                match mb.mb_id with
                | Some id ->
                    do_module_expr (prefix @ [ Ident.name id ]) mb.mb_expr
                | None -> ())
              mbs
        | Tstr_include incl -> do_module_expr prefix incl.incl_mod
        | _ -> ())
      items
  and do_module_expr prefix me =
    match me.mod_desc with
    | Tmod_structure s -> do_items prefix s.str_items
    | Tmod_constraint (me, _, _, _) -> do_module_expr prefix me
    | Tmod_functor (_, me) -> do_module_expr prefix me
    | _ -> ()
  in
  do_items [] str.str_items;
  g

(* Analysis context --------------------------------------------------- *)

type summaries = {
  tbl : Summary.table;
  facts : (string, Summary.fn_fact) Hashtbl.t;
  srcs : (string, string) Hashtbl.t;
      (* fq -> source path of the unit that defined it.  Whole-program
         diagnoses must attribute each fact to exactly one unit; a
         module-name prefix test is not enough, because a dune library
         wrapper module (Wa_service) is a prefix of every fq in its
         library and would claim them all a second time. *)
  lock_cycles : (string * int * string) list;
      (* (owning function fq, line, message) for every edge of every
         cycle in the global lock-order graph: computed once over the
         whole program, attributed to the unit that owns the edge so
         per-file reports (the unit of caching) stay deterministic *)
}

type ctx = {
  cfg : Config.t;
  src : string;
  self_module : string;
      (* Module defined by [src]: self-references to positive sources
         carry no module qualifier inside their own module. *)
  hot : bool;
  capture_ok : bool;
  quiet : bool;
      (* Extraction mode: collect facts, never flag, never count. *)
  resolver : resolver;
  guards : guards;
  wrappers : (string, int * int) Hashtbl.t;
      (* fq of an in-unit lock-wrapper -> (mutex arg, thunk arg):
         calls run the thunk with the mutex argument held *)
  summaries : summaries option;
  file_allows : string list;
  mutable allow_stack : string list;
  mutable found : violation list;
  mutable closures : int;
  mutable exprs : int;
  mutable guarded : int;  (* guarded accesses certified lock-held *)
  mutable roots : int;  (* [@wa.event_loop] roots certified non-blocking *)
}

let lookup_summary ctx name =
  match ctx.summaries with
  | None -> None
  | Some s -> Summary.lookup s.tbl name

let flag_at ctx ~line ~col rule message =
  if
    (not ctx.quiet)
    && (not (List.mem rule ctx.file_allows))
    && not (List.mem rule ctx.allow_stack)
  then ctx.found <- { file = ctx.src; line; col; rule; message } :: ctx.found

let flag ctx loc rule message =
  let pos = loc.Location.loc_start in
  flag_at ctx ~line:pos.Lexing.pos_lnum
    ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
    rule message

(* Run [f] with the allow-list of [attrs] pushed: suppressions on an
   enclosing expression cover everything beneath it. *)
let with_allows ctx attrs f =
  match allows_of_attrs attrs with
  | [] -> f ()
  | allows ->
      let saved = ctx.allow_stack in
      ctx.allow_stack <- allows @ saved;
      Fun.protect ~finally:(fun () -> ctx.allow_stack <- saved) f

(* Access keys and lock names (see [collect_guards] for the naming
   scheme).  An in-unit record type is resolved through the guard
   table's declaration map; cross-unit types fall back to the last two
   path components. *)
let type_key ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (Path.Pident id, _, _) ->
      Hashtbl.find_opt ctx.guards.g_decls (Ident.unique_name id)
  | Types.Tconstr (p, _, _) -> (
      match List.rev (resolve_parts ctx.resolver (path_parts p)) with
      | v :: m :: _ -> Some (m ^ "." ^ v)
      | _ -> None)
  | _ -> None

let field_key ctx robj (lbl : Types.label_description) =
  Option.map
    (fun tk -> tk ^ "." ^ lbl.Types.lbl_name)
    (type_key ctx robj.exp_type)

let global_key ctx id =
  Option.map short_fq
    (Hashtbl.find_opt ctx.resolver.r_values (Ident.unique_name id))

(* The name of a mutex expression: a record field ("Server.t.state_mu"),
   a toplevel value ("Metrics.registry_mutex"), or a dotted path.
   Parameters and locals have no stable name and go untracked (lock
   wrappers are the supported way to pass a mutex around). *)
let lock_name ctx e =
  match e.exp_desc with
  | Texp_field (r, _, lbl) -> field_key ctx r lbl
  | Texp_ident (Path.Pident id, _, _) -> global_key ctx id
  | Texp_ident (p, _, _) -> (
      match resolve_parts ctx.resolver (path_parts p) with
      | _ :: _ :: _ as parts -> Some (short_fq (String.concat "." parts))
      | _ -> None)
  | _ -> None

(* Blocking primitives for the event-loop pass.  [Unix.select] is the
   event loop itself; [Unix.read]/[write]/[accept] follow the
   readiness discipline (only called on ready fds) and are excluded —
   a documented model caveat, see DESIGN.md §15. *)
let blocking_prim f =
  match fn_last2 f with
  | Some (Some "Condition", "wait") -> Some "Condition.wait"
  | Some (Some "Thread", "delay") -> Some "Thread.delay"
  | Some (Some "Domain", "join") -> Some "Domain.join"
  | Some (Some "Thread", "join") -> Some "Thread.join"
  | Some (Some "Unix", (("sleep" | "sleepf" | "wait" | "waitpid" | "system") as v))
    ->
      Some ("Unix." ^ v)
  | _ -> None

(* Generic child traversal: applies [f] to every direct subexpression
   of [e] (descending through cases, bindings, etc. exactly once). *)
let iter_children f e =
  let open Tast_iterator in
  let it = { default_iterator with expr = (fun _ e -> f e) } in
  default_iterator.expr it e

(* Local (Pident) identifier occurrences anywhere inside [e0]. *)
let idents_in e0 =
  let acc = ref [] in
  let rec go e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> acc := Ident.unique_name id :: !acc
    | _ -> ());
    iter_children go e
  in
  go e0;
  !acc

(* Idents bound anywhere inside [e0] (params, lets, match cases, for
   indices): everything else referenced from inside is captured. *)
let bound_idents e0 =
  let tbl = Hashtbl.create 32 in
  let add id = Hashtbl.replace tbl (Ident.unique_name id) () in
  let add_pat p = List.iter add (pat_bound_idents p) in
  let rec go e =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) -> List.iter (fun vb -> add_pat vb.vb_pat) vbs
    | Texp_function { param; cases; _ } ->
        add param;
        List.iter (fun c -> add_pat c.c_lhs) cases
    | Texp_match (_, cases, _) -> List.iter (fun c -> add_pat c.c_lhs) cases
    | Texp_try (_, cases) -> List.iter (fun c -> add_pat c.c_lhs) cases
    | Texp_for (id, _, _, _, _, _) -> add id
    | _ -> ());
    iter_children go e
  in
  go e0;
  tbl

(* Function-spine peeling: the parameters of a toplevel binding, with
   display names and float-ness, plus the innermost body.  Stops at a
   dispatching [function] (multiple cases). *)
let rec peel_params e =
  match e.exp_desc with
  | Texp_function { param; cases = [ c ]; _ } ->
      let unique, display, fl =
        match c.c_lhs.pat_desc with
        | Tpat_var (id, _) ->
            (Ident.unique_name id, Ident.name id, is_float_type c.c_lhs.pat_type)
        | _ ->
            ( Ident.unique_name param,
              Ident.name param,
              is_float_type c.c_lhs.pat_type )
      in
      let rest, body = peel_params c.c_rhs in
      ((unique, display, fl) :: rest, body)
  | _ -> ([], e)

(* Pass 1 + 5: domain-capture and exn-escape -------------------------- *)

let parallel_entries = [ "iter"; "init"; "map_array"; "map" ]

let is_parallel_entry e =
  match fn_last2 e with
  | Some (Some "Parallel", v) -> List.mem v parallel_entries
  | _ -> false

let raise_like = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let array_set_fns =
  [
    ("Array", "set"); ("Array", "unsafe_set"); ("Bytes", "set");
    ("Bytes", "unsafe_set");
  ]

let container_mut_fns =
  [
    ("Hashtbl", "add"); ("Hashtbl", "replace"); ("Hashtbl", "remove");
    ("Hashtbl", "reset"); ("Hashtbl", "clear");
    ("Buffer", "add_char"); ("Buffer", "add_string"); ("Buffer", "add_bytes");
    ("Buffer", "add_buffer"); ("Buffer", "clear"); ("Buffer", "reset");
    ("Queue", "add"); ("Queue", "push"); ("Queue", "pop"); ("Queue", "take");
    ("Queue", "clear"); ("Queue", "transfer");
    ("Stack", "push"); ("Stack", "pop"); ("Stack", "clear");
  ]

(* The variable ultimately written through an lvalue-ish expression:
   [x], [x.contents], [x.(i)], [!x] chains. *)
let rec head_ident e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (e, id)
  | Texp_field (inner, _, _) -> head_ident inner
  | Texp_apply (f, args) when matches_table [ ("Array", "get") ] f
                              || is_stdlib_fn [ "!" ] f -> (
      match args with
      | (_, Some first) :: _ -> head_ident first
      | _ -> None)
  | _ -> None

let describe_write = function
  | `Ref -> "assignment to captured ref"
  | `Field -> "mutation of a field of captured state"
  | `Array -> "write into captured array"
  | `Container -> "mutating call on captured container"

(* Exception-handler names of a try case pattern; "*" is a catch-all
   (unknown shapes are treated as catch-alls: quieter, not sound). *)
let rec handler_names p acc =
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> cd.Types.cstr_name :: acc
  | Tpat_or (a, b, _) -> handler_names a (handler_names b acc)
  | Tpat_alias (inner, _, _) -> handler_names inner acc
  | _ -> "*" :: acc

let caught_of_cases cases =
  List.fold_left (fun acc c -> handler_names c.c_lhs acc) [] cases

let is_fun_protect e =
  match fn_last2 e with Some (Some "Fun", "protect") -> true | _ -> false

(* Positional argument expressions, in order. *)
let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

(* Map callee parameter display names to argument expressions:
   labelled arguments by name, then positional ones in declaration
   order over the remaining parameters. *)
let align_args s_params args =
  let labelled =
    List.filter_map
      (fun (l, a) ->
        match (l, a) with
        | (Asttypes.Labelled n | Asttypes.Optional n), Some a -> Some (n, a)
        | _ -> None)
      args
  in
  let positional = positional_args args in
  let unlabelled =
    List.filter (fun p -> not (List.mem_assoc p labelled)) s_params
  in
  let rec zip ps qs =
    match (ps, qs) with
    | p :: ps', q :: qs' -> (p, q) :: zip ps' qs'
    | _ -> []
  in
  labelled @ zip unlabelled positional

(* A lock-wrapper shape: [let locked mu f = Mutex.lock mu;
   Fun.protect ~finally:(fun () -> Mutex.unlock mu) f] (or a direct
   [Mutex.protect mu f] eta-expansion).  Calls to such a wrapper run
   the thunk argument with the mutex argument held; [params] are the
   wrapper's own parameters in curried order. *)
let wrapper_shape params body =
  let idx e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        List.find_index
          (fun (u, _, _) -> String.equal u (Ident.unique_name id))
          params
    | _ -> None
  in
  match body.exp_desc with
  | Texp_sequence (a, b) -> (
      match (a.exp_desc, b.exp_desc) with
      | Texp_apply (lf, largs), Texp_apply (pf, pargs)
        when matches_table [ ("Mutex", "lock") ] lf && is_fun_protect pf -> (
          match (positional_args largs, positional_args pargs) with
          | [ m ], [ th ] -> (
              match (idx m, idx th) with
              | Some i, Some j -> Some (i, j)
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | Texp_apply (pf, pargs) when matches_table [ ("Mutex", "protect") ] pf -> (
      match positional_args pargs with
      | [ m; th ] -> (
          match (idx m, idx th) with
          | Some i, Some j -> Some (i, j)
          | _ -> None)
      | _ -> None)
  | _ -> None

let is_thread_create e =
  match fn_last2 e with Some (Some "Thread", "create") -> true | _ -> false

(* Spawn points: closures handed to these run on another domain or
   thread, so the creator's held locks do not apply inside and nothing
   inside can block the creator. *)
let spawn_like_fn f =
  match fn_last2 f with
  | Some (Some "Pool", "submit") | Some (Some "Domain", "spawn") -> true
  | _ -> is_parallel_entry f || is_thread_create f

(* Where a closure analyzed by [analyze_chunk_closure] runs: a
   Parallel chunk on a worker domain, or a systhread that the other
   threads of its domain may preempt.  Only chunks are checked for
   exn-escape: a raise there crosses the join into the caller, while a
   thread body's raise ends that thread alone. *)
type closure_site = Chunk | Thread_body

let site_closure = function
  | Chunk -> "a Parallel chunk closure"
  | Thread_body -> "a Thread.create closure"

let site_sharers = function
  | Chunk -> "worker domains"
  | Thread_body -> "threads"

(* Analyze one closure that runs as a Parallel chunk or a thread body:
   writes to free mutable state and (chunks only) raises that can
   cross the chunk boundary, both directly and — when summaries are
   available — through any call chain. *)
let analyze_chunk_closure ctx site closure =
  ctx.closures <- ctx.closures + 1;
  let flag_exn loc msg =
    match site with
    | Chunk -> flag ctx loc rule_exn_escape msg
    | Thread_body -> ()
  in
  let bound = bound_idents closure in
  let free id = not (Hashtbl.mem bound (Ident.unique_name id)) in
  let check_write kind target loc =
    match head_ident target with
    | Some (root, id) when free id && not (is_atomic_type root.exp_type) ->
        flag ctx loc rule_domain_capture
          (Printf.sprintf
             "%s '%s' inside %s: unsynchronized mutable state shared \
              across %s (use Atomic.t, preallocate disjoint slices, or \
              merge per-domain results after the join)"
             (describe_write kind) (Ident.name id) (site_closure site)
             (site_sharers site))
    | _ -> ()
  in
  let check_call e f args caught =
    match resolve_fn ctx.resolver f with
    | None -> ()
    | Some callee -> (
        match lookup_summary ctx callee with
        | None -> ()
        | Some s ->
            (if not (List.is_empty s.Summary.s_global_writes) then
               flag ctx e.exp_loc rule_domain_capture
                 (Printf.sprintf
                    "call to %s inside %s writes shared state (%s): \
                     unsynchronized across %s"
                    (short_fq callee) (site_closure site)
                    (String.concat "; " s.Summary.s_global_writes)
                    (site_sharers site)));
            (let positional = positional_args args in
             List.iter
               (fun j ->
                 match List.nth_opt positional j with
                 | Some arg -> (
                     match head_ident arg with
                     | Some (root, id)
                       when free id && not (is_atomic_type root.exp_type) ->
                         flag ctx e.exp_loc rule_domain_capture
                           (Printf.sprintf
                              "call to %s inside %s writes through its \
                               argument '%s', captured mutable state \
                               shared across %s"
                              (short_fq callee) (site_closure site)
                              (Ident.name id) (site_sharers site))
                     | _ -> ())
                 | None -> ())
               s.Summary.s_param_writes);
            let escaping =
              if List.mem "*" caught then Summary.SSet.empty
              else
                Summary.SSet.filter
                  (fun exn -> not (List.mem exn caught))
                  s.Summary.s_raises
            in
            if not (Summary.SSet.is_empty escaping) then
              flag_exn e.exp_loc
                (Printf.sprintf
                   "call to %s may raise %s, which would cross the Parallel \
                    chunk boundary: no matching handler inside the closure"
                   (short_fq callee)
                   (String.concat ", " (Summary.SSet.elements escaping))))
  in
  let rec go ~caught e =
    with_allows ctx e.exp_attributes @@ fun () ->
    (match e.exp_desc with
    | Texp_setfield (obj, _, _, _) -> check_write `Field obj e.exp_loc
    | Texp_apply (f, args) -> (
        let positional = positional_args args in
        match (fn_last2 f, positional) with
        | Some (None, ":="), lhs :: _ -> check_write `Ref lhs e.exp_loc
        | Some (None, ("incr" | "decr")), r :: _ -> check_write `Ref r e.exp_loc
        | Some (Some m, v), first :: _ when List.mem (m, v) array_set_fns ->
            check_write `Array first e.exp_loc
        | Some (Some m, v), first :: _ when List.mem (m, v) container_mut_fns
          ->
            check_write `Container first e.exp_loc
        | Some (None, v), _ when List.mem v raise_like && List.is_empty caught
          ->
            flag_exn e.exp_loc
              (Printf.sprintf
                 "'%s' can cross the Parallel chunk boundary: no enclosing \
                  try inside the closure (handle it locally or return an \
                  error value)"
                 v)
        | _ -> check_call e f args caught)
    | Texp_assert _ when List.is_empty caught ->
        flag_exn e.exp_loc
          "assert failure would cross the Parallel chunk boundary: no \
           enclosing try inside the closure"
    | _ -> ());
    match e.exp_desc with
    | Texp_try (body, cases) ->
        go ~caught:(caught_of_cases cases @ caught) body;
        List.iter
          (fun c ->
            Option.iter (go ~caught) c.c_guard;
            go ~caught c.c_rhs)
          cases
    | Texp_apply (f, args) when is_fun_protect f ->
        (* Fun.protect delegates cleanup deliberately: its thunk and
           ~finally run under the protection discipline the caller
           chose, so raises inside are not chunk-boundary escapes. *)
        List.iter
          (fun (_, a) -> Option.iter (go ~caught:("*" :: caught)) a)
          args
    | _ -> iter_children (go ~caught) e
  in
  go ~caught:[] closure

(* Find Parallel fan-out and [Thread.create] applications and analyze
   their function arguments, resolving let-bound closures by
   identifier. *)
let scan_parallel ctx fns e0 =
  let resolve a =
    match a.exp_desc with
    | Texp_function _ -> Some a
    | Texp_ident (Path.Pident id, _, _) -> (
        match Hashtbl.find_opt fns (Ident.unique_name id) with
        | Some body -> Some body
        | None -> None)
    | _ -> None
  in
  let rec go e =
    with_allows ctx e.exp_attributes @@ fun () ->
    (match e.exp_desc with
    | Texp_apply (f, args) when is_parallel_entry f || is_thread_create f ->
        let site = if is_thread_create f then Thread_body else Chunk in
        List.iter
          (fun (_, a) ->
            match a with
            | Some a when is_arrow_type a.exp_type -> (
                match resolve a with
                | Some closure -> analyze_chunk_closure ctx site closure
                | None -> ())
            | _ -> ())
          args
    | _ -> ());
    iter_children go e
  in
  go e0

(* Collect every let-bound function body of the structure, keyed by
   the binder's unique name, so [Parallel.init n edges_of] resolves. *)
let collect_fn_bindings str =
  let tbl = Hashtbl.create 32 in
  let record vb =
    (* Any arrow-typed binding counts: [let value_of = match engine
       with ... -> fun i -> ...] still carries the chunk closures in
       its branches, and the write/raise scan is purely syntactic. *)
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when is_arrow_type vb.vb_expr.exp_type ->
        Hashtbl.replace tbl (Ident.unique_name id) vb.vb_expr
    | _ -> ()
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      value_binding =
        (fun it vb ->
          record vb;
          default_iterator.value_binding it vb);
    }
  in
  it.structure it str;
  tbl

(* Pass: Atomic check-then-act ---------------------------------------- *)

(* [if Atomic.get a ... then Atomic.set a v] leaves a race window
   between the read and the write: another domain can update [a] after
   the check commits but before the act lands. Flag branch-guarded
   sets whose guard read the same atom (identified syntactically:
   same ident, module path, or record field) and point at
   [compare_and_set]. *)
let scan_check_then_act ctx e0 =
  let flagged = Hashtbl.create 4 in
  let atom_key env e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
        let u = Ident.unique_name id in
        match Hashtbl.find_opt env u with
        | Some k -> Some k
        | None -> Some ("i:" ^ u))
    | Texp_ident (p, _, _) -> Some ("p:" ^ Path.name p)
    | Texp_field (r, _, lbl) -> (
        match r.exp_desc with
        | Texp_ident (Path.Pident id, _, _) ->
            Some ("f:" ^ Ident.unique_name id ^ "." ^ lbl.Types.lbl_name)
        | Texp_ident (p, _, _) ->
            Some ("f:" ^ Path.name p ^ "." ^ lbl.Types.lbl_name)
        | _ -> None)
    | _ -> None
  in
  (* Atoms read inside the scrutinee, directly ([Atomic.get a]) or via
     a let-bound alias of an earlier get. *)
  let rec gets env acc e =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        match (fn_last2 f, positional_args args) with
        | Some (Some "Atomic", "get"), [ a ] ->
            Option.iter (fun k -> acc := k :: !acc) (atom_key env a)
        | _ -> ())
    | Texp_ident (Path.Pident id, _, _) -> (
        match Hashtbl.find_opt env (Ident.unique_name id) with
        | Some k -> acc := k :: !acc
        | None -> ())
    | _ -> ());
    iter_children (gets env acc) e
  in
  let rec sets env keys e =
    with_allows ctx e.exp_attributes @@ fun () ->
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        match (fn_last2 f, positional_args args) with
        | Some (Some "Atomic", "set"), a :: _ -> (
            match atom_key env a with
            | Some k
              when List.mem k keys
                   && not (Hashtbl.mem flagged e.exp_loc.Location.loc_start)
              ->
                Hashtbl.add flagged e.exp_loc.Location.loc_start ();
                flag ctx e.exp_loc rule_check_then_act
                  "Atomic.set guarded by a branch on Atomic.get of the \
                   same atom: the check-then-act window races with other \
                   domains — use Atomic.compare_and_set in a retry loop \
                   (or Atomic.fetch_and_add for counters)"
            | _ -> ())
        | _ -> ())
    | _ -> ());
    iter_children (sets env keys) e
  in
  let rec go env e =
    with_allows ctx e.exp_attributes @@ fun () ->
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_apply (f, args) -> (
                match (fn_last2 f, positional_args args) with
                | Some (Some "Atomic", "get"), [ a ] ->
                    Option.iter
                      (Hashtbl.replace env (Ident.unique_name id))
                      (atom_key env a)
                | _ -> ())
            | _ -> ())
          vbs
    | Texp_ifthenelse (cond, bt, bf) ->
        let acc = ref [] in
        gets env acc cond;
        if not (List.is_empty !acc) then begin
          sets env !acc bt;
          Option.iter (sets env !acc) bf
        end
    | Texp_match (scrut, cases, _) ->
        let acc = ref [] in
        gets env acc scrut;
        if not (List.is_empty !acc) then
          List.iter (fun c -> sets env !acc c.c_rhs) cases
    | _ -> ());
    iter_children (go env) e
  in
  go (Hashtbl.create 8) e0

(* Pass 2: unit / log-domain abstract interpretation ------------------ *)

type dom = Power | Distance | DistPow | Gain | LogDom | Dimless | Unknown

let dom_name = function
  | Power -> "power"
  | Distance -> "distance"
  | DistPow -> "distance^alpha"
  | Gain -> "gain"
  | LogDom -> "log-domain"
  | Dimless -> "dimensionless"
  | Unknown -> "unknown"

let dom_of_name = function
  | "power" -> Power
  | "distance" -> Distance
  | "distance^alpha" -> DistPow
  | "gain" -> Gain
  | "log-domain" -> LogDom
  | "dimensionless" -> Dimless
  | _ -> Unknown

let dom_equal (a : dom) (b : dom) = a = b

let is_linear_quantity = function
  | Power | Distance | DistPow | Gain -> true
  | LogDom | Dimless | Unknown -> false

(* Incompatible under + / - / comparison: log vs linear, or two
   distinct linear quantities.  Dimensionless mixes with anything
   (thresholds, accumulator seeds, log-domain shifts). *)
let mixes a b =
  match (a, b) with
  | LogDom, x | x, LogDom -> is_linear_quantity x
  | _ ->
      is_linear_quantity a && is_linear_quantity b && not (dom_equal a b)

let join a b = if dom_equal a b then a else Unknown

let distance_sources =
  [
    ("Linkset", "length"); ("Linkset", "dist");
    ("Linkset", "sender_to_receiver"); ("Linkset", "min_length");
    ("Linkset", "max_length"); ("Link", "length"); ("Link", "min_distance");
    ("Link", "sender_to_receiver"); ("Vec2", "dist"); ("Vec2", "norm");
    ("Link_index", "class_min_length"); ("Link_index", "class_max_length");
  ]

let power_sources = [ ("Power", "value"); ("Power", "oblivious_constant") ]
let power_array_sources = [ ("Power", "vector") ]

let dimless_sources =
  [
    ("Affectance", "additive"); ("Affectance", "additive_on_set");
    ("Affectance", "additive_from_set"); ("Affectance", "relative");
    ("Affectance", "relative_total"); ("Affectance", "mst_longer_pressure");
    ("Feasibility", "sinr"); ("Feasibility", "margin");
    ("Linkset", "diversity");
  ]

let logdom_sources =
  [ ("Logfloat", "log_value"); ("Growth", "log2"); ("Float", "log");
    ("Float", "log10"); ("Float", "log2") ]

let params_field_dom lbl_name =
  match lbl_name with
  | "noise" -> Some Power
  | "alpha" | "beta" | "epsilon" -> Some Dimless
  | _ -> None

let is_params_record ty =
  match type_last2 ty with
  | Some (Some "Params", "t") | Some (None, "t") -> true
  | _ -> false

let mix_message op a b =
  Printf.sprintf
    "%s mixes %s and %s operands: linear and log-domain (or distinct \
     physical) quantities never meet under %s — convert explicitly \
     (exp/log, Logfloat.to_float) or normalize the units first"
    op (dom_name a) (dom_name b) op

let rec infer ctx env e : dom =
  ctx.exprs <- ctx.exprs + 1;
  with_allows ctx e.exp_attributes @@ fun () ->
  let bind_pat pat d =
    match pat.pat_desc with
    | Tpat_var (id, _) -> Hashtbl.replace env (Ident.unique_name id) d
    | _ -> ()
  in
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float _) -> Dimless
  | Texp_constant _ -> Unknown
  | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt env (Ident.unique_name id) with
      | Some d -> d
      | None -> Unknown)
  | Texp_ident _ -> Unknown
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          with_allows ctx vb.vb_attributes @@ fun () ->
          bind_pat vb.vb_pat (infer ctx env vb.vb_expr))
        vbs;
      infer ctx env body
  | Texp_function { arg_label; param; cases; _ } ->
      let param_dom =
        match arg_label with
        | Asttypes.Labelled "power" | Asttypes.Optional "power" -> Some Power
        | _ -> if String.equal (Ident.name param) "power" then Some Power
               else None
      in
      Option.iter
        (fun d -> Hashtbl.replace env (Ident.unique_name param) d)
        param_dom;
      List.iter
        (fun c ->
          (match (c.c_lhs.pat_desc, param_dom) with
          | Tpat_var (id, _), Some d ->
              Hashtbl.replace env (Ident.unique_name id) d
          | Tpat_var (id, _), None when String.equal (Ident.name id) "power"
            ->
              Hashtbl.replace env (Ident.unique_name id) Power
          | _ -> ());
          Option.iter (fun g -> ignore (infer ctx env g)) c.c_guard;
          ignore (infer ctx env c.c_rhs))
        cases;
      Unknown
  | Texp_ifthenelse (c, a, b) -> (
      ignore (infer ctx env c);
      let da = infer ctx env a in
      match b with
      | Some b -> join da (infer ctx env b)
      | None -> Unknown)
  | Texp_sequence (a, b) ->
      ignore (infer ctx env a);
      infer ctx env b
  | Texp_match (s, cases, _) ->
      ignore (infer ctx env s);
      List.fold_left
        (fun acc c ->
          Option.iter (fun g -> ignore (infer ctx env g)) c.c_guard;
          join acc (infer ctx env c.c_rhs))
        Unknown cases
  | Texp_field (r, _, lbl) ->
      ignore (infer ctx env r);
      if is_params_record lbl.Types.lbl_res then
        Option.value ~default:Unknown (params_field_dom lbl.Types.lbl_name)
      else Unknown
  | Texp_array es ->
      List.fold_left
        (fun acc el ->
          let d = infer ctx env el in
          match acc with None -> Some d | Some a -> Some (join a d))
        None es
      |> Option.value ~default:Unknown
  | Texp_open (_, body) -> infer ctx env body
  | Texp_apply (f, args) -> infer_apply ctx env e f args
  | _ ->
      iter_children (fun c -> ignore (infer ctx env c)) e;
      Unknown

and infer_apply ctx env e f args =
  let positional = positional_args args in
  (* Labelled ~power: arguments expect a linear-domain value. *)
  List.iter
    (fun (lbl, a) ->
      match (lbl, a) with
      | Asttypes.Labelled "power", Some a when is_float_type a.exp_type ->
          if dom_equal (infer ctx env a) LogDom then
            flag ctx a.exp_loc rule_unit_mix
              "log-domain float passed to a linear-domain ~power: argument \
               (convert with Logfloat.to_float / exp first)"
      | _ -> ())
    args;
  let infer_rest skip =
    List.iter
      (fun (_, a) ->
        match a with
        | Some a when not (List.memq a skip) -> ignore (infer ctx env a)
        | _ -> ())
      args
  in
  let binary k =
    match positional with
    | [ a; b ] ->
        let da = infer ctx env a and db = infer ctx env b in
        infer_rest [ a; b ];
        k a b da db
    | _ ->
        infer_rest [];
        Unknown
  in
  let flag_mix op a b da db =
    if mixes da db then
      flag ctx e.exp_loc rule_unit_mix (mix_message op da db);
    ignore a;
    ignore b
  in
  match fn_last2 f with
  | Some (None, (("+." | "-.") as op)) ->
      binary (fun a b da db ->
          flag_mix op a b da db;
          match (da, db) with
          | d, Dimless | Dimless, d -> d
          | da, db -> join da db)
  | Some (None, "*.") ->
      binary (fun _ _ da db ->
          match (da, db) with
          | d, Dimless | Dimless, d -> d
          | Power, Gain | Gain, Power -> Power
          | DistPow, Gain | Gain, DistPow -> Dimless
          | _ -> Unknown)
  | Some (None, "/.") ->
      binary (fun _ _ da db ->
          match (da, db) with
          | da, db when dom_equal da db && not (dom_equal da Unknown) ->
              Dimless
          | Power, DistPow -> Power
          | Dimless, DistPow -> Gain
          | d, Dimless -> d
          | LogDom, _ | _, LogDom -> Unknown
          | _ -> Unknown)
  | Some (None, "**") ->
      binary (fun _ _ da _ ->
          match da with
          | Distance -> DistPow
          | Dimless -> Dimless
          | _ -> Unknown)
  | Some (None, "~-.") -> (
      match positional with
      | [ a ] -> infer ctx env a
      | _ ->
          infer_rest [];
          Unknown)
  | Some (None, (("<" | "<=" | ">" | ">=" | "=" | "<>") as op))
    when List.length positional = 2
         && List.for_all (fun a -> is_float_type a.exp_type) positional ->
      binary (fun a b da db ->
          flag_mix (Printf.sprintf "comparison (%s)" op) a b da db;
          Unknown)
  | Some (Some "Float", (("compare" | "equal" | "min" | "max") as op)) ->
      binary (fun a b da db ->
          flag_mix ("Float." ^ op) a b da db;
          match op with "min" | "max" -> join da db | _ -> Unknown)
  | Some (Some "Logfloat", "of_float") ->
      (match positional with
      | [ a ] ->
          if dom_equal (infer ctx env a) LogDom then
            flag ctx e.exp_loc rule_unit_mix
              "log-domain float passed to Logfloat.of_float (double log): \
               use Logfloat.of_log for values that are already logarithms"
      | _ -> infer_rest []);
      Unknown
  | Some (Some "Logfloat", "of_log") ->
      (match positional with
      | [ a ] ->
          let da = infer ctx env a in
          if is_linear_quantity da then
            flag ctx e.exp_loc rule_unit_mix
              (Printf.sprintf
                 "linear-domain %s passed to Logfloat.of_log, which expects \
                  a logarithm: use Logfloat.of_float"
                 (dom_name da))
      | _ -> infer_rest []);
      Unknown
  | Some (None, ("log" | "log10" | "log1p")) ->
      infer_rest [];
      LogDom
  | Some (None, "exp") | Some (Some "Float", "exp") ->
      infer_rest [];
      Unknown
  | Some (None, "float_of_int") | Some (Some "Float", "of_int") ->
      infer_rest [];
      Dimless
  | Some (Some "Float", "abs") -> (
      match positional with
      | [ a ] -> infer ctx env a
      | _ ->
          infer_rest [];
          Unknown)
  | Some (Some ("Array" | "Linkset"), ("get" | "unsafe_get")) -> (
      match positional with
      | arr :: rest ->
          List.iter (fun a -> ignore (infer ctx env a)) rest;
          infer ctx env arr
      | [] -> Unknown)
  | Some key when List.mem key (List.map (fun (m, v) -> (Some m, v))
                                  distance_sources) ->
      infer_rest [];
      Distance
  | Some key when List.mem key (List.map (fun (m, v) -> (Some m, v))
                                  (power_sources @ power_array_sources)) ->
      infer_rest [];
      Power
  | Some key when List.mem key (List.map (fun (m, v) -> (Some m, v))
                                  dimless_sources) ->
      infer_rest [];
      Dimless
  | Some key when List.mem key (List.map (fun (m, v) -> (Some m, v))
                                  logdom_sources) ->
      infer_rest [];
      LogDom
  | _ ->
      ignore (infer ctx env f);
      infer_rest [];
      (* Interprocedural fallback: the callee's summarized result
         domain (only for a saturated float-valued application). *)
      if is_float_type e.exp_type then
        match Option.bind (resolve_fn ctx.resolver f) (lookup_summary ctx) with
        | Some s -> dom_of_name s.Summary.s_dom
        | None -> Unknown
      else Unknown

(* Pass 3: float-safety dataflow -------------------------------------- *)

module SSet = Set.Make (String)

let float_const_nonzero s =
  match float_of_string_opt s with
  | Some v -> Float.is_finite v && not (Float.equal v 0.0)
  | None -> false

let float_const_value e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float s) -> float_of_string_opt s
  | _ -> None

let rec always_raises e =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match fn_last2 f with
      | Some (None, v) -> List.mem v raise_like
      | _ -> false)
  | Texp_sequence (_, b) -> always_raises b
  | Texp_let (_, _, b) -> always_raises b
  | Texp_ifthenelse (_, a, Some b) -> always_raises a && always_raises b
  | _ -> false

(* A (possibly partial) application of a configured positivity-
   preserving map — [Params.alpha_pow p] and friends. *)
let positive_map_partial ctx e =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match fn_last2 f with
      | Some (Some m, v) -> List.mem (m, v) ctx.cfg.Config.positive_maps
      | _ -> false)
  | _ -> false

(* A conservative lower bound for a float expression, rooted in the
   whole-program record-field invariant table: [p.Params.alpha] is
   [> 2.0] because every construction site of [Params.t] in the
   program proves it. *)
let rec lower_bound ctx e : Summary.bound option =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float s) -> (
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Some { Summary.lb = v; strict = false }
      | _ -> None)
  | Texp_field (_, _, lbl) when is_float_type e.exp_type -> (
      match ctx.summaries with
      | None -> None
      | Some s -> (
          match type_fq ctx.resolver lbl.Types.lbl_res with
          | Some tfq ->
              Summary.field_bound s.tbl ~type_fq:tfq ~field:lbl.Types.lbl_name
          | None -> None))
  | Texp_open (_, b) -> lower_bound ctx b
  | Texp_apply (f, args) -> (
      let positional = positional_args args in
      match (fn_last2 f, positional) with
      | Some (None, "-."), [ a; b ] -> (
          match (lower_bound ctx a, float_const_value b) with
          | Some { Summary.lb; strict }, Some c
            when Float.is_finite c ->
              Some { Summary.lb = lb -. c; strict }
          | _ -> None)
      | Some (None, "+."), [ a; b ] -> (
          match (lower_bound ctx a, lower_bound ctx b) with
          | Some ba, Some bb ->
              Some
                {
                  Summary.lb = ba.Summary.lb +. bb.Summary.lb;
                  strict = ba.Summary.strict || bb.Summary.strict;
                }
          | _ -> None)
      | Some (None, "**"), [ base; _ ] -> (
          match float_const_value base with
          | Some c when c > 0.0 -> Some { Summary.lb = 0.0; strict = true }
          | _ -> None)
      | Some (Some "Float", "max"), [ a; b ] -> (
          match (lower_bound ctx a, lower_bound ctx b) with
          | Some ba, Some bb ->
              if ba.Summary.lb >= bb.Summary.lb then Some ba else Some bb
          | Some b, None | None, Some b -> Some b
          | None, None -> None)
      | _ -> None)
  | _ -> None

(* [nonzero ctx guards pos maps e]: the "provably nonzero on this
   path" judgment described in the module header.  [maps] holds local
   idents bound to positivity-preserving closures (see
   [positive_map_partial]): applying one to a nonzero operand is
   nonzero.  With summaries, three interprocedural provers kick in:
   record-field lower bounds, callees summarized as returning a
   positive float, and module-level positive constants. *)
let rec nonzero ctx guards pos maps e =
  let self = nonzero ctx guards pos maps in
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float s) -> float_const_nonzero s
  | Texp_ident (Path.Pident id, _, _) -> (
      let n = Ident.unique_name id in
      SSet.mem n guards || SSet.mem n pos
      ||
      (* A module-level constant summarized as positive
         (e.g. [radius_slack = 1.0 +. 1e-9]). *)
      match Hashtbl.find_opt ctx.resolver.r_values n with
      | Some fq -> (
          match lookup_summary ctx fq with
          | Some s -> s.Summary.s_pos && List.is_empty s.Summary.s_params
          | None -> false)
      | None -> false)
  | Texp_field _ -> Summary.bound_positive (lower_bound ctx e)
  | Texp_open (_, b) -> self b
  | Texp_apply (f, args) -> (
      let positional = positional_args args in
      let last_positional () =
        match List.rev positional with a :: _ -> self a | [] -> false
      in
      match (fn_last2 f, positional) with
      | Some (Some m, v), _ when List.mem (m, v) ctx.cfg.Config.positive_sources
        ->
          true
      | Some (None, v), _
        when List.mem (ctx.self_module, v) ctx.cfg.Config.positive_sources ->
          true
      | Some (Some m, v), _ when List.mem (m, v) ctx.cfg.Config.positive_maps
        ->
          (* Fully applied positivity-preserving map: positive iff its
             (last) operand is. *)
          last_positional ()
      | _, _
        when (match f.exp_desc with
             | Texp_ident (Path.Pident id, _, _) ->
                 SSet.mem (Ident.unique_name id) maps
             | _ -> false) ->
          last_positional ()
      | Some (None, "exp"), _ | Some (Some "Float", "exp"), _ -> true
      | Some (None, ("log" | "log10")), [ arg ] -> (
          (* log of a constant other than 1 is a nonzero constant. *)
          match arg.exp_desc with
          | Texp_constant (Asttypes.Const_float s) -> (
              match float_of_string_opt s with
              | Some v -> v > 0.0 && not (Float.equal v 1.0)
              | None -> false)
          | _ -> false)
      | Some (None, "**"), [ base; _ ] -> self base
      | Some (None, ("*." | "/." | "+.")), [ a; b ] -> self a && self b
      | Some (None, "~-."), [ a ] -> self a
      | Some (Some "Float", "abs"), [ a ] -> self a
      | Some (Some "Float", "min"), [ a; b ] -> self a && self b
      | Some (Some "Float", "max"), [ a; b ] ->
          self a || self b
          || List.exists
               (fun x ->
                 match x.exp_desc with
                 | Texp_constant (Asttypes.Const_float s) ->
                     float_const_nonzero s
                 | _ -> false)
               [ a; b ]
      | Some (Some "Array", ("get" | "unsafe_get")), arr :: _ -> self arr
      | _ ->
          is_float_type e.exp_type
          && ((match
                 Option.bind (resolve_fn ctx.resolver f) (lookup_summary ctx)
               with
              | Some s -> s.Summary.s_pos
              | None -> false)
             || Summary.bound_positive (lower_bound ctx e)))
  | _ ->
      (* Fallback: any identifier inside the operand is covered by an
         enclosing guard. *)
      List.exists (fun n -> SSet.mem n guards) (idents_in e)

let guard_idents e = SSet.of_list (idents_in e)

let sort_fns =
  [
    ("List", "sort"); ("List", "stable_sort"); ("List", "fast_sort");
    ("List", "sort_uniq"); ("Array", "sort"); ("Array", "stable_sort");
    ("Array", "fast_sort");
  ]

(* Positive-array invariant: [let x = Array.make _ c] with a nonzero
   float [c], where every write to [x] has a statically nonzero
   right-hand side, every call passing [x] is summarized as not
   writing that parameter, and [x] never escapes otherwise.  Elements
   of such arrays are nonzero forever. *)
let posarrays ctx e0 =
  match ctx.summaries with
  | None -> SSet.empty
  | Some _ ->
      let cands = Hashtbl.create 4 in
      let rec collect e =
        (match e.exp_desc with
        | Texp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                | Tpat_var (id, _), Texp_apply (f, args)
                  when matches_table [ ("Array", "make") ] f -> (
                    match positional_args args with
                    | [ _; init ] -> (
                        match float_const_value init with
                        | Some v
                          when Float.is_finite v && not (Float.equal v 0.0) ->
                            Hashtbl.replace cands (Ident.unique_name id) true
                        | _ -> ())
                    | _ -> ())
                | _ -> ())
              vbs
        | _ -> ());
        iter_children collect e
      in
      collect e0;
      if Hashtbl.length cands = 0 then SSet.empty
      else begin
        let disqualify n =
          if Hashtbl.mem cands n then Hashtbl.replace cands n false
        in
        let is_cand e =
          match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when Hashtbl.mem cands (Ident.unique_name id) ->
              Some (Ident.unique_name id)
          | _ -> None
        in
        (* Statically nonzero RHS for a write: constants, floored
           maxes, powers, products of those. *)
        let static_nonzero e = nonzero ctx SSet.empty SSet.empty SSet.empty e in
        let rec scan e =
          match e.exp_desc with
          | Texp_apply (f, args) -> (
              let positional = positional_args args in
              match (fn_last2 f, positional) with
              | Some (Some ("Array" | "Bytes"), ("set" | "unsafe_set")),
                arr :: rest -> (
                  (match (is_cand arr, List.rev rest) with
                  | Some n, rhs :: _ ->
                      if not (static_nonzero rhs) then disqualify n
                  | Some n, [] -> disqualify n
                  | None, _ -> ());
                  List.iter scan rest;
                  match is_cand arr with Some _ -> () | None -> scan arr)
              | ( Some
                    (Some "Array", ("get" | "unsafe_get" | "length" | "copy")),
                  arr :: rest ) ->
                  (match is_cand arr with Some _ -> () | None -> scan arr);
                  List.iter scan rest
              | _ ->
                  (* A call: arguments that are candidate arrays must
                     be summarized as unwritten parameters. *)
                  let callee =
                    Option.bind (resolve_fn ctx.resolver f) (lookup_summary ctx)
                  in
                  List.iteri
                    (fun j a ->
                      match is_cand a with
                      | Some n -> (
                          match callee with
                          | Some s
                            when not (List.mem j s.Summary.s_param_writes) ->
                              ()
                          | _ -> disqualify n)
                      | None -> scan a)
                    positional;
                  (* Non-positional (labelled) occurrences escape. *)
                  List.iter
                    (fun (lbl, a) ->
                      match (lbl, a) with
                      | Asttypes.Nolabel, _ -> ()
                      | _, Some a -> (
                          match is_cand a with
                          | Some n -> disqualify n
                          | None -> scan a)
                      | _, None -> ())
                    args;
                  scan f)
          | Texp_ident (Path.Pident id, _, _)
            when Hashtbl.mem cands (Ident.unique_name id) ->
              (* Bare occurrence outside the allowed shapes: escape. *)
              disqualify (Ident.unique_name id)
          | Texp_let (_, vbs, body) ->
              List.iter
                (fun vb ->
                  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                  | Tpat_var _, Texp_apply (f, args)
                    when matches_table [ ("Array", "make") ] f ->
                      List.iter (fun (_, a) -> Option.iter scan a) args
                  | _ -> scan vb.vb_expr)
                vbs;
              scan body
          | _ -> iter_children scan e
        in
        scan e0;
        Hashtbl.fold
          (fun n ok acc -> if ok then SSet.add n acc else acc)
          cands SSet.empty
      end

(* The per-binding context the float walk runs under: the enclosing
   toplevel function's parameters (for precondition inference and
   discharge) and, in collect mode, the accumulator preconditions are
   recorded into. *)
type fw_fn = {
  fw_fq : string option;
  fw_params : (string * string * bool) list;  (* unique, display, float *)
  fw_collect : string list ref option;  (* Some acc: extraction mode *)
}

let float_walk ctx fw e0 =
  let float_params = List.filter (fun (_, _, fl) -> fl) fw.fw_params in
  let rescued guards pos maps den =
    (* Can the operand be proven if some float parameters are assumed
       positive?  Singletons first, then the whole set. *)
    let with_extra extra =
      nonzero ctx guards (SSet.union pos (SSet.of_list extra)) maps den
    in
    match
      List.find_opt (fun (u, _, _) -> with_extra [ u ]) float_params
    with
    | Some (_, d, _) -> Some [ d ]
    | None ->
        let all = List.map (fun (u, _, _) -> u) float_params in
        if (not (List.is_empty all)) && with_extra all then begin
          let den_ids = idents_in den in
          match
            List.filter_map
              (fun (u, d, _) -> if List.mem u den_ids then Some d else None)
              float_params
          with
          | [] -> None
          | ds -> Some ds
        end
        else None
  in
  let check_nonzero guards pos maps ~in_sort what den loc =
    if not (nonzero ctx guards pos maps den) then
      match fw.fw_collect with
      | Some acc ->
          (* Extraction: an unprovable operand rescued by parameters
             becomes a precondition; anything else stays silent here
             (the check-mode walk owns the diagnostics). *)
          if not in_sort then (
            match rescued guards pos maps den with
            | Some ds -> acc := ds @ !acc
            | None -> ())
      | None ->
          if in_sort then
            flag ctx loc rule_nan_compare
              (Printf.sprintf
                 "%s with an operand not provably nonzero inside a sort \
                  comparator: a NaN key silently corrupts the order — guard \
                  the operand or precompute a safe key"
                 what)
          else if ctx.hot then begin
            (* A parameter-rescuable operand whose function has known
               call sites is a discharged precondition, not a defect:
               every hot call site proves the argument instead. *)
            let discharged =
              match (rescued guards pos maps den, fw.fw_fq) with
              | Some _, Some fq -> (
                  match lookup_summary ctx fq with
                  | Some s -> s.Summary.s_callers > 0
                  | None -> false)
              | _ -> false
            in
            if not discharged then
              flag ctx loc rule_float_unguarded
                (Printf.sprintf
                   "unguarded %s on a hot path: the operand is not provably \
                    nonzero (guard with an explicit test, or derive it from \
                    a positive source such as Linkset.length)"
                   what)
          end
  in
  let check_preconds guards pos maps ~in_sort e f args =
    (* Call-site discharge: a hot caller must prove every recorded
       precondition of the callee. *)
    if (not in_sort) && ctx.hot && fw.fw_collect = None then
      match Option.bind (resolve_fn ctx.resolver f) (lookup_summary ctx) with
      | Some s when not (List.is_empty s.Summary.s_preconds) ->
          let aligned = align_args s.Summary.s_params args in
          List.iter
            (fun pname ->
              match List.assoc_opt pname aligned with
              | Some arg ->
                  if not (nonzero ctx guards pos maps arg) then
                    flag ctx e.exp_loc rule_float_unguarded
                      (Printf.sprintf
                         "call into %s requires '%s' > 0 (the callee divides \
                          by it) but the argument is not provably nonzero"
                         (short_fq s.Summary.s_fq) pname)
              | None -> ())
            (List.sort_uniq String.compare s.Summary.s_preconds)
      | _ -> ()
  in
  (* Witness refs: [let ok = ref true] with every refutation site
     [if cond then (... ok := false ...)] recorded; once [!ok] is
     tested true, the idents of every refuting condition are known
     positive on that branch. *)
  let witnesses : (string, SSet.t) Hashtbl.t = Hashtbl.create 4 in
  let writes_false id e0 =
    let found = ref false in
    let rec go e =
      (match e.exp_desc with
      | Texp_apply (f, args) when is_stdlib_fn [ ":=" ] f -> (
          match positional_args args with
          | { exp_desc = Texp_ident (Path.Pident w, _, _); _ } :: _
            when String.equal (Ident.unique_name w) id ->
              found := true
          | _ -> ())
      | _ -> ());
      iter_children go e
    in
    go e0;
    !found
  in
  let witness_test e =
    (* [!ok] or [not !ok] over a registered witness. *)
    let deref e =
      match e.exp_desc with
      | Texp_apply (f, args) when is_stdlib_fn [ "!" ] f -> (
          match positional_args args with
          | [ { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ]
            when Hashtbl.mem witnesses (Ident.unique_name id) ->
              Some (Ident.unique_name id)
          | _ -> None)
      | _ -> None
    in
    match e.exp_desc with
    | Texp_apply (f, args) when is_stdlib_fn [ "not" ] f -> (
        match positional_args args with
        | [ inner ] -> Option.map (fun id -> (id, `Negated)) (deref inner)
        | _ -> None)
    | _ -> Option.map (fun id -> (id, `Plain)) (deref e)
  in
  let witness_pos id pos =
    match Hashtbl.find_opt witnesses id with
    | Some ids -> SSet.union pos ids
    | None -> pos
  in
  let pos0 = if fw.fw_collect = None then posarrays ctx e0 else SSet.empty in
  let rec go guards pos maps ~in_sort e =
    with_allows ctx e.exp_attributes @@ fun () ->
    let self = go guards pos maps ~in_sort in
    match e.exp_desc with
    | Texp_let (_, vbs, body) ->
        List.iter (fun vb -> self vb.vb_expr) vbs;
        let pos, maps =
          List.fold_left
            (fun (pos, maps) vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) when nonzero ctx guards pos maps vb.vb_expr ->
                  (SSet.add (Ident.unique_name id) pos, maps)
              | Tpat_var (id, _) when positive_map_partial ctx vb.vb_expr ->
                  (pos, SSet.add (Ident.unique_name id) maps)
              | Tpat_var (id, _)
                when (match vb.vb_expr.exp_desc with
                     | Texp_apply (f, _) -> is_stdlib_fn [ "ref" ] f
                     | _ -> false) ->
                  Hashtbl.replace witnesses (Ident.unique_name id) SSet.empty;
                  (pos, maps)
              | _ -> (pos, maps))
            (pos, maps) vbs
        in
        go guards pos maps ~in_sort body
    | Texp_function { arg_label; param; cases; _ } ->
        let pos =
          let powerish =
            match arg_label with
            | Asttypes.Labelled "power" | Asttypes.Optional "power" -> true
            | _ -> String.equal (Ident.name param) "power"
          in
          if powerish then SSet.add (Ident.unique_name param) pos else pos
        in
        List.iter
          (fun c ->
            let pos =
              match c.c_lhs.pat_desc with
              | Tpat_var (id, _) when String.equal (Ident.name id) "power" ->
                  SSet.add (Ident.unique_name id) pos
              | _ -> pos
            in
            match c.c_guard with
            | Some g ->
                go guards pos maps ~in_sort g;
                go (SSet.union guards (guard_idents g)) pos maps ~in_sort
                  c.c_rhs
            | None -> go guards pos maps ~in_sort c.c_rhs)
          cases
    | Texp_ifthenelse (c, a, b) -> (
        self c;
        (* A refutation site charges the witness; a witness test
           promotes its recorded idents on the surviving branch. *)
        Hashtbl.iter
          (fun id ids ->
            if writes_false id a || (match b with
                                    | Some b -> writes_false id b
                                    | None -> false)
            then
              Hashtbl.replace witnesses id
                (SSet.union ids (guard_idents c)))
          (Hashtbl.copy witnesses);
        match witness_test c with
        | Some (id, `Plain) ->
            go (SSet.union guards (guard_idents c)) (witness_pos id pos) maps
              ~in_sort a;
            Option.iter
              (go (SSet.union guards (guard_idents c)) pos maps ~in_sort)
              b
        | Some (id, `Negated) ->
            go (SSet.union guards (guard_idents c)) pos maps ~in_sort a;
            Option.iter
              (go
                 (SSet.union guards (guard_idents c))
                 (witness_pos id pos) maps ~in_sort)
              b
        | None ->
            let guards = SSet.union guards (guard_idents c) in
            go guards pos maps ~in_sort a;
            Option.iter (go guards pos maps ~in_sort) b)
    | Texp_match (s, cases, _) ->
        self s;
        List.iter
          (fun c ->
            match c.c_guard with
            | Some g ->
                self g;
                go (SSet.union guards (guard_idents g)) pos maps ~in_sort
                  c.c_rhs
            | None -> self c.c_rhs)
          cases
    | Texp_sequence (a, b) ->
        self a;
        let guards =
          match a.exp_desc with
          | Texp_ifthenelse (c, th, None) when always_raises th ->
              SSet.union guards (guard_idents c)
          | Texp_ifthenelse (c, th, Some el)
            when always_raises th || always_raises el ->
              SSet.union guards (guard_idents c)
          | Texp_assert (c, _) -> SSet.union guards (guard_idents c)
          | _ -> guards
        in
        go guards pos maps ~in_sort b
    | Texp_apply (f, args) -> (
        let positional = positional_args args in
        (match (fn_last2 f, positional) with
        | Some (None, "/."), [ _; den ] ->
            check_nonzero guards pos maps ~in_sort "division (/.)" den
              e.exp_loc
        | Some (None, (("log" | "log10" | "sqrt") as fn)), [ arg ]
        | Some (Some "Float", (("log" | "log10" | "sqrt") as fn)), [ arg ] ->
            check_nonzero guards pos maps ~in_sort (fn ^ " application") arg
              e.exp_loc
        | _ -> ());
        check_preconds guards pos maps ~in_sort e f args;
        match (fn_last2 f, positional) with
        | Some (Some m, v), cmp :: rest when List.mem (m, v) sort_fns ->
            go guards pos maps ~in_sort:true cmp;
            List.iter self rest
        | Some (None, ("&&" | "||")), [ a; b ] ->
            (* Short-circuit: the right conjunct only evaluates under
               the left one's test. *)
            self a;
            go (SSet.union guards (guard_idents a)) pos maps ~in_sort b
        | _ ->
            self f;
            List.iter (fun (_, a) -> Option.iter self a) args)
    | Texp_try (body, cases) ->
        self body;
        List.iter
          (fun c ->
            Option.iter self c.c_guard;
            self c.c_rhs)
          cases
    | _ -> iter_children self e
  in
  go SSet.empty pos0 SSet.empty ~in_sort:false e0

(* Extraction: positivity judgment ------------------------------------ *)

(* Three-valued positivity of a function result: [`P] provably
   positive here, [`D deps] positive iff every callee in [deps] is
   (resolved to the exact fact keys [Summary.solve] refutes against),
   [`N] not provable.  Guards use loose polarity — a tested ident is
   assumed positive on both branches; the greatest fixpoint in
   [Summary.solve] is what makes mutual recursion work. *)
let rec pos3 ctx guards e =
  if nonzero ctx guards SSet.empty SSet.empty e then `P
  else
    let comb a b =
      match (a, b) with
      | `N, _ | _, `N -> `N
      | `P, x | x, `P -> x
      | `D s1, `D s2 -> `D (SSet.union s1 s2)
    in
    match e.exp_desc with
    | Texp_let (_, _, b) | Texp_open (_, b) -> pos3 ctx guards b
    | Texp_sequence (a, b) ->
        let guards =
          match a.exp_desc with
          | Texp_ifthenelse (c, th, None) when always_raises th ->
              SSet.union guards (guard_idents c)
          | Texp_assert (c, _) -> SSet.union guards (guard_idents c)
          | _ -> guards
        in
        pos3 ctx guards b
    | Texp_ifthenelse (c, a, b) -> (
        match b with
        | None -> `N
        | Some b ->
            let g = SSet.union guards (guard_idents c) in
            let branches =
              List.filter (fun br -> not (always_raises br)) [ a; b ]
            in
            List.fold_left (fun acc br -> comb acc (pos3 ctx g br)) `P branches)
    | Texp_match (_, cases, _) ->
        List.fold_left
          (fun acc c ->
            if always_raises c.c_rhs then acc
            else
              let g =
                match c.c_guard with
                | Some gd -> SSet.union guards (guard_idents gd)
                | None -> guards
              in
              comb acc (pos3 ctx g c.c_rhs))
          `P cases
    | Texp_apply (f, args) -> (
        let positional = positional_args args in
        match (fn_last2 f, positional) with
        | Some (None, ("*." | "+." | "/.")), [ a; b ] ->
            comb (pos3 ctx guards a) (pos3 ctx guards b)
        | Some (None, "**"), [ base; _ ] -> pos3 ctx guards base
        | Some (Some "Float", "abs"), [ a ] -> pos3 ctx guards a
        | _ ->
            if is_float_type e.exp_type then
              match resolve_fn ctx.resolver f with
              | Some callee -> `D (SSet.singleton callee)
              | None -> `N
            else `N)
    | _ -> `N

(* Extraction: allocation model --------------------------------------- *)

let noalloc_bare =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "+"; "-"; "*"; "/"; "mod"; "land";
    "lor"; "lxor"; "lsl"; "lsr"; "asr"; "abs"; "abs_float"; "sqrt"; "log";
    "log10"; "log1p"; "exp"; "expm1"; "floor"; "ceil"; "not"; "&&"; "||";
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max";
    "ignore"; "fst"; "snd"; "float_of_int"; "int_of_float"; "truncate";
    "succ"; "pred"; "!"; ":="; "incr"; "decr";
  ]

let noalloc_qualified =
  [
    ( "Float",
      [
        "min"; "max"; "abs"; "equal"; "compare"; "is_nan"; "is_finite";
        "is_integer"; "round"; "trunc"; "floor"; "ceil"; "hypot"; "of_int";
        "to_int"; "pow"; "sqrt"; "log"; "log2"; "log10"; "log1p"; "exp";
        "expm1"; "add"; "sub"; "mul"; "div"; "rem"; "neg"; "fma"; "succ";
        "pred"; "copy_sign"; "sign_bit";
      ] );
    ("Array", [ "get"; "set"; "unsafe_get"; "unsafe_set"; "length" ]);
    ("Bytes", [ "get"; "set"; "unsafe_get"; "unsafe_set"; "length" ]);
    ( "Int",
      [
        "min"; "max"; "abs"; "equal"; "compare"; "succ"; "pred"; "add";
        "sub"; "mul"; "div"; "rem"; "neg"; "shift_left"; "shift_right";
        "logand"; "logor"; "logxor"; "lognot"; "to_float"; "of_float";
      ] );
    ("Bool", [ "not"; "equal"; "compare" ]);
    ( "Atomic",
      [
        "get"; "set"; "exchange"; "compare_and_set"; "fetch_and_add";
        "incr"; "decr";
      ] );
  ]

let is_noalloc = function
  | None, v -> List.mem v noalloc_bare
  | Some m, v -> (
      match List.assoc_opt m noalloc_qualified with
      | Some vs -> List.mem v vs
      | None -> false)

(* Like [resolve_fn] but keeps single-component Stdlib names
   ("string_of_int"): extraction records them so [hot-alloc] can
   reject calls with unknown allocation behavior. *)
let resolve_callee r e =
  match fn_path e with
  | Some (Path.Pident id) -> Hashtbl.find_opt r.r_values (Ident.unique_name id)
  | Some p -> (
      match resolve_parts r (path_parts p) with
      | [] -> None
      | parts -> Some (String.concat "." parts))
  | None -> None

(* Let-bound refs used only through [!], [:=], [incr], [decr]: local
   accumulators the backend keeps well-behaved (float contents may
   still box — documented model limitation), so [hot-alloc] admits
   them. *)
let benign_refs e0 =
  let cands = Hashtbl.create 4 in
  let rec collect e =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_apply (f, _)
              when is_stdlib_fn [ "ref" ] f ->
                Hashtbl.replace cands (Ident.unique_name id) true
            | _ -> ())
          vbs
    | _ -> ());
    iter_children collect e
  in
  collect e0;
  let rec scan e =
    match e.exp_desc with
    | Texp_apply (f, args) when is_stdlib_fn [ "!"; ":="; "incr"; "decr" ] f
      -> (
        match positional_args args with
        | { exp_desc = Texp_ident (Path.Pident _, _, _); _ } :: rest ->
            List.iter scan rest
        | ps -> List.iter scan ps)
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem cands (Ident.unique_name id) ->
        Hashtbl.replace cands (Ident.unique_name id) false
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var _, Texp_apply (f, args) when is_stdlib_fn [ "ref" ] f
              ->
                List.iter (fun (_, a) -> Option.iter scan a) args
            | _ -> scan vb.vb_expr)
          vbs;
        scan body
    | _ -> iter_children scan e
  in
  scan e0;
  Hashtbl.fold (fun n ok acc -> if ok then SSet.add n acc else acc) cands
    SSet.empty

(* Extraction: record-field bounds ------------------------------------ *)

(* [if id <= c then <raise>] proves [id > c] afterwards. *)
let guard_bound cond =
  match cond.exp_desc with
  | Texp_apply (f, args) -> (
      match (fn_last2 f, positional_args args) with
      | ( Some (None, (("<=" | "<") as op)),
          [ { exp_desc = Texp_ident (Path.Pident id, _, _); _ }; b ] ) -> (
          match float_const_value b with
          | Some c when Float.is_finite c ->
              Some
                ( Ident.unique_name id,
                  { Summary.lb = c; strict = String.equal op "<=" } )
          | None | Some _ -> None)
      | _ -> None)
  | _ -> None

let expr_bound bmap fe =
  match fe.exp_desc with
  | Texp_constant (Asttypes.Const_float s) -> (
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Some { Summary.lb = v; strict = false }
      | _ -> None)
  | Texp_ident (Path.Pident id, _, _) ->
      List.assoc_opt (Ident.unique_name id) bmap
  | Texp_apply (f, args) -> (
      match (fn_last2 f, positional_args args) with
      | Some (None, "**"), [ base; _ ] -> (
          match float_const_value base with
          | Some c when c > 0.0 -> Some { Summary.lb = 0.0; strict = true }
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Record every float field of every record construction site, with
   the strongest bound the guard sequence in scope proves.  A site
   with no provable bound records [None] — which absorbs in
   [Summary.meet_bound], correctly killing the whole-program
   invariant. *)
let rec field_scan ctx bmap acc e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          Option.iter (field_scan ctx bmap acc) c.c_guard;
          field_scan ctx bmap acc c.c_rhs)
        cases
  | Texp_let (_, vbs, body) ->
      List.iter (fun vb -> field_scan ctx bmap acc vb.vb_expr) vbs;
      let bmap =
        List.fold_left
          (fun bmap vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> (
                match expr_bound bmap vb.vb_expr with
                | Some b -> (Ident.unique_name id, b) :: bmap
                | None -> bmap)
            | _ -> bmap)
          bmap vbs
      in
      field_scan ctx bmap acc body
  | Texp_sequence (a, b) ->
      field_scan ctx bmap acc a;
      let bmap =
        match a.exp_desc with
        | Texp_ifthenelse (cond, th, None) when always_raises th -> (
            match guard_bound cond with
            | Some (u, bnd) -> (u, bnd) :: bmap
            | None -> bmap)
        | _ -> bmap
      in
      field_scan ctx bmap acc b
  | Texp_record { fields; extended_expression; _ } ->
      Option.iter (field_scan ctx bmap acc) extended_expression;
      (match type_fq ctx.resolver e.exp_type with
      | Some tfq ->
          Array.iter
            (fun (lbl, def) ->
              match def with
              | Overridden (_, fe) ->
                  if is_float_type lbl.Types.lbl_arg then
                    acc :=
                      {
                        Summary.r_type = tfq;
                        r_field = lbl.Types.lbl_name;
                        r_bound = expr_bound bmap fe;
                      }
                      :: !acc;
                  field_scan ctx bmap acc fe
              | Kept _ -> ())
            fields
      | None ->
          Array.iter
            (fun (_, def) ->
              match def with
              | Overridden (_, fe) -> field_scan ctx bmap acc fe
              | Kept _ -> ())
            fields)
  | _ -> iter_children (field_scan ctx bmap acc) e

(* Extraction: one toplevel binding -> one fact ----------------------- *)

let extract_binding ctx env vb fq =
  let params, body = peel_params vb.vb_expr in
  let param_uniques = List.map (fun (u, _, _) -> u) params in
  let param_index u = List.find_index (String.equal u) param_uniques in
  let locals = bound_idents vb.vb_expr in
  let benign = benign_refs vb.vb_expr in
  let calls = ref [] in
  let raises = ref [] in
  let gwrites = ref [] in
  let pwrites = ref [] in
  let alloc = ref None in
  let bind_line = vb.vb_pat.pat_loc.Location.loc_start.Lexing.pos_lnum in
  let block =
    ref
      (if has_attr "wa.compute" vb.vb_attributes then
         Some
           (Printf.sprintf "[@wa.compute] unbounded compute (%s:%d)" ctx.src
              bind_line)
       else None)
  in
  let locks_acq = ref [] in
  let lock_edges = ref [] in
  let requires = ref [] in
  let guarded = ref 0 in
  (* Register lock-wrapper shapes before any later binding calls
     them: [extract_structure] processes bindings in source order. *)
  (match wrapper_shape params body with
  | Some ij -> Hashtbl.replace ctx.wrappers fq ij
  | None -> ());
  let record_acquire ~held ~deferred l line =
    match l with
    | None -> ()
    | Some l ->
        if (not deferred) && not (List.mem l !locks_acq) then
          locks_acq := l :: !locks_acq;
        List.iter
          (fun h ->
            if not (String.equal h l) then
              lock_edges := (h, l, line) :: !lock_edges)
          held
  in
  let check_access ~allows ~held key line =
    match key with
    | None -> ()
    | Some key ->
        if Hashtbl.mem ctx.guards.g_benign key then ()
        else (
          match Hashtbl.find_opt ctx.guards.g_locks key with
          | None -> ()
          | Some lock ->
              if List.mem lock held then incr guarded
              else if
                not
                  (List.mem rule_lockset allows
                  || List.mem rule_lockset ctx.file_allows)
              then
                requires :=
                  ( lock,
                    Printf.sprintf "%s touched without %s (%s:%d)" key lock
                      ctx.src line )
                  :: !requires)
  in
  (* A write already synchronized (guard held) or declared an
     intentional race is not a cross-domain write footprint. *)
  let write_synced ~held key =
    match key with
    | None -> false
    | Some k -> (
        Hashtbl.mem ctx.guards.g_benign k
        ||
        match Hashtbl.find_opt ctx.guards.g_locks k with
        | Some lock -> List.mem lock held
        | None -> false)
  in
  let target_key t =
    match t.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> global_key ctx id
    | Texp_field (r, _, lbl) -> field_key ctx r lbl
    | _ -> None
  in
  let closure_captures e =
    let inner = bound_idents e in
    List.exists
      (fun u ->
        (not (Hashtbl.mem inner u))
        && Hashtbl.mem locals u
        && not (Hashtbl.mem ctx.resolver.r_values u))
      (idents_in e)
  in
  let record_write ~allows target =
    if
      not
        (List.mem rule_domain_capture allows
        || List.mem rule_domain_capture ctx.file_allows)
    then
      match head_ident target with
      | Some (root, id) when not (is_atomic_type root.exp_type) -> (
          let u = Ident.unique_name id in
          match param_index u with
          | Some i -> pwrites := i :: !pwrites
          | None ->
              if not (Hashtbl.mem locals u) then
                gwrites := Ident.name id :: !gwrites)
      | _ -> ()
  in
  let rec walk ~caught ~cold ~allows ~held ~deferred e =
    let allows = allows_of_attrs e.exp_attributes @ allows in
    let go = walk ~caught ~cold ~allows ~held ~deferred in
    let go_cold = walk ~caught ~cold:true ~allows ~held ~deferred in
    let line = e.exp_loc.Location.loc_start.Lexing.pos_lnum in
    let note what =
      if (not cold) && !alloc = None then
        alloc := Some (Printf.sprintf "%s (%s:%d)" what ctx.src line)
    in
    (* Lock delta of a statement position: [Mutex.lock m] holds [m]
       for the rest of the enclosing sequence (or let body),
       [Mutex.unlock m] releases it. *)
    let apply_delta held st =
      match st.exp_desc with
      | Texp_apply (f, args) -> (
          match (fn_last2 f, positional_args args) with
          | Some (Some "Mutex", "lock"), [ m ] -> (
              match lock_name ctx m with
              | Some l ->
                  l :: List.filter (fun x -> not (String.equal x l)) held
              | None -> held)
          | Some (Some "Mutex", "unlock"), [ m ] -> (
              match lock_name ctx m with
              | Some l -> List.filter (fun x -> not (String.equal x l)) held
              | None -> held)
          | _ -> held)
      | _ -> held
    in
    match e.exp_desc with
    | Texp_sequence (a, b) ->
        go a;
        walk ~caught ~cold ~allows ~held:(apply_delta held a) ~deferred b
    | Texp_field (r, _, lbl) ->
        check_access ~allows ~held (field_key ctx r lbl) line;
        go r
    | Texp_ident (Path.Pident id, _, _) ->
        (match global_key ctx id with
        | Some k
          when Hashtbl.mem ctx.guards.g_locks k
               || Hashtbl.mem ctx.guards.g_benign k ->
            check_access ~allows ~held (Some k) line
        | _ -> ())
    | Texp_tuple es ->
        note "allocates a tuple";
        List.iter go es
    | Texp_array es ->
        note "allocates an array literal";
        List.iter go es
    | Texp_record { fields; extended_expression; _ } ->
        note "allocates a record";
        Option.iter go extended_expression;
        Array.iter
          (fun (_, def) ->
            match def with Overridden (_, fe) -> go fe | Kept _ -> ())
          fields
    | Texp_construct (_, cd, args) ->
        if not (List.is_empty args) then
          note (Printf.sprintf "allocates constructor %s" cd.Types.cstr_name);
        List.iter go args
    | Texp_variant (_, arg) ->
        Option.iter
          (fun a ->
            note "allocates a variant";
            go a)
          arg
    | Texp_lazy e' ->
        note "allocates a lazy value";
        go e'
    | Texp_function _ ->
        if closure_captures e then note "allocates a capturing closure";
        iter_children go e
    | Texp_setfield (obj, _, lbl, rhs) ->
        let key = field_key ctx obj lbl in
        check_access ~allows ~held key line;
        if not (write_synced ~held key) then record_write ~allows obj;
        go obj;
        go rhs
    | Texp_try (body, cases) ->
        walk ~caught:(caught_of_cases cases @ caught) ~cold ~allows ~held
          ~deferred body;
        List.iter
          (fun c ->
            Option.iter go c.c_guard;
            go c.c_rhs)
          cases
    | Texp_assert (cond, _) -> go_cold cond
    | Texp_ifthenelse (c, a, b) ->
        go c;
        (if always_raises a then go_cold a else go a);
        Option.iter (fun b -> if always_raises b then go_cold b else go b) b
    | Texp_match (scrut, cases, _) ->
        go scrut;
        List.iter
          (fun c ->
            Option.iter go c.c_guard;
            if always_raises c.c_rhs then go_cold c.c_rhs else go c.c_rhs)
          cases
    | Texp_let (_, vbs, bd) ->
        List.iter
          (fun vb' ->
            match (vb'.vb_pat.pat_desc, vb'.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_apply (f, args)
              when is_stdlib_fn [ "ref" ] f
                   && SSet.mem (Ident.unique_name id) benign ->
                (* Non-escaping accumulator ref: admitted. *)
                List.iter (fun (_, a) -> Option.iter go a) args
            | _ -> go vb'.vb_expr)
          vbs;
        let held' =
          List.fold_left (fun h vb' -> apply_delta h vb'.vb_expr) held vbs
        in
        walk ~caught ~cold ~allows ~held:held' ~deferred bd
    | Texp_apply (f, args) -> (
        let positional = positional_args args in
        let record_call callee =
          let c_args =
            List.mapi (fun j a -> (j, a)) positional
            |> List.filter_map (fun (j, a) ->
                   match a.exp_desc with
                   | Texp_ident (Path.Pident id, _, _) ->
                       Option.map
                         (fun i -> (j, i))
                         (param_index (Ident.unique_name id))
                   | _ -> None)
          in
          calls :=
            {
              Summary.c_callee = callee;
              c_args;
              c_caught = caught;
              c_held = List.sort_uniq String.compare held;
              c_deferred = deferred;
            }
            :: !calls
        in
        (* Blocking primitives: deferred closures run on another
           domain and cannot block this function. *)
        (match blocking_prim f with
        | Some reason when (not deferred) && !block = None ->
            block := Some (Printf.sprintf "%s (%s:%d)" reason ctx.src line)
        | _ -> ());
        (match (fn_last2 f, positional) with
        | Some (Some "Mutex", "lock"), [ m ] ->
            record_acquire ~held ~deferred (lock_name ctx m) line
        | Some (None, ":="), lhs :: _ ->
            if not (write_synced ~held (target_key lhs)) then
              record_write ~allows lhs
        | Some (None, ("incr" | "decr")), r :: _ ->
            if not (write_synced ~held (target_key r)) then
              record_write ~allows r
        | Some (Some m, v), first :: _ when List.mem (m, v) array_set_fns ->
            if not (write_synced ~held (target_key first)) then
              record_write ~allows first
        | Some (Some m, v), first :: _ when List.mem (m, v) container_mut_fns
          ->
            if not (write_synced ~held (target_key first)) then
              record_write ~allows first
        | _ -> ());
        (* Scoped acquisitions: [Mutex.protect m thunk] and in-unit
           lock wrappers run their thunk with the lock held. *)
        let scoped =
          match (fn_last2 f, positional) with
          | Some (Some "Mutex", "protect"), m :: rest -> Some (m, rest)
          | _ -> (
              match resolve_callee ctx.resolver f with
              | Some callee -> (
                  match Hashtbl.find_opt ctx.wrappers callee with
                  | Some (i, j) -> (
                      match
                        (List.nth_opt positional i, List.nth_opt positional j)
                      with
                      | Some m, Some th -> Some (m, [ th ])
                      | _ -> None)
                  | None -> None)
              | None -> None)
        in
        match scoped with
        | Some (m, thunks) ->
            let l = lock_name ctx m in
            record_acquire ~held ~deferred l line;
            let held' =
              match l with
              | Some l when not (List.mem l held) -> l :: held
              | _ -> held
            in
            List.iter
              (fun (_, a) ->
                Option.iter
                  (fun a ->
                    if List.memq a thunks then
                      walk ~caught ~cold ~allows ~held:held' ~deferred a
                    else go a)
                  a)
              args;
            if not cold then
              Option.iter record_call (resolve_callee ctx.resolver f)
        | None -> (
            match (fn_last2 f, positional) with
            | Some (None, ("raise" | "raise_notrace")), arg :: _ ->
                let name =
                  match arg.exp_desc with
                  | Texp_construct (_, cd, _) -> cd.Types.cstr_name
                  | _ -> "exn"
                in
                if not (List.mem "*" caught || List.mem name caught) then
                  raises := name :: !raises;
                List.iter go_cold positional
            | Some (None, v), _ when List.mem v raise_like ->
                (* failwith / invalid_arg: excluded from the may-raise
                   summary by policy (ubiquitous precondition guards);
                   their argument construction is cold. *)
                List.iter go_cold positional
            | key, _ ->
                (match f.exp_desc with Texp_apply _ -> go f | _ -> ());
                if is_arrow_type e.exp_type then
                  note
                    "allocates a partial application (the result is a \
                     closure)";
                (match key with
                | Some k when is_noalloc k -> ()
                | _ -> (
                    if not cold then
                      match resolve_callee ctx.resolver f with
                      | Some callee -> record_call callee
                      | None -> ()));
                let spawn = spawn_like_fn f in
                List.iter
                  (fun (_, a) ->
                    Option.iter
                      (fun a ->
                        if spawn && is_arrow_type a.exp_type then
                          walk ~caught ~cold ~allows ~held:[] ~deferred:true a
                        else go a)
                      a)
                  args))
    | _ -> iter_children go e
  in
  walk ~caught:[] ~cold:false ~allows:[] ~held:[] ~deferred:false body;
  let f_pos, f_pos_deps =
    match pos3 ctx SSet.empty body with
    | `P -> (true, None)
    | `D deps -> (false, Some (SSet.elements deps))
    | `N -> (false, None)
  in
  let preconds = ref [] in
  float_walk ctx
    { fw_fq = Some fq; fw_params = params; fw_collect = Some preconds }
    vb.vb_expr;
  let d = infer ctx env body in
  let loc = vb.vb_pat.pat_loc.Location.loc_start in
  let fact =
    {
      Summary.f_fq = fq;
      f_params = List.map (fun (_, disp, _) -> disp) params;
      f_line = loc.Lexing.pos_lnum;
      f_col = loc.Lexing.pos_cnum - loc.Lexing.pos_bol;
      f_hot = is_wa_hot vb.vb_attributes;
      f_alloc = !alloc;
      f_raises =
        (if ctx.capture_ok then []
         else List.sort_uniq String.compare !raises);
      f_global_writes =
        (if ctx.capture_ok then []
         else List.sort_uniq String.compare !gwrites);
      f_param_writes =
        (if ctx.capture_ok then [] else List.sort_uniq Int.compare !pwrites);
      f_pos;
      f_pos_deps;
      f_preconds = List.sort_uniq String.compare !preconds;
      f_dom = dom_name d;
      f_calls = List.rev !calls;
      f_event_loop = has_attr "wa.event_loop" vb.vb_attributes;
      f_block = !block;
      f_locks = List.sort_uniq String.compare !locks_acq;
      f_lock_edges =
        List.sort_uniq
          (fun (h, l, i) (h', l', i') ->
            match String.compare h h' with
            | 0 -> (
                match String.compare l l' with
                | 0 -> Int.compare i i'
                | n -> n)
            | n -> n)
          !lock_edges;
      f_requires =
        (* one witness per missing lock, deterministic choice *)
        (List.sort_uniq
           (fun (a, wa) (b, wb) ->
             match String.compare a b with
             | 0 -> String.compare wa wb
             | n -> n)
           !requires
        |> List.fold_left
             (fun acc (l, w) ->
               if List.mem_assoc l acc then acc else (l, w) :: acc)
             []
        |> List.rev);
      f_guarded = !guarded;
    }
  in
  (fact, d)

let extract_structure ctx str =
  let env = Hashtbl.create 64 in
  let fns = ref [] in
  let fields = ref [] in
  let rec do_items items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                field_scan ctx [] fields vb.vb_expr;
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) -> (
                    match
                      Hashtbl.find_opt ctx.resolver.r_values
                        (Ident.unique_name id)
                    with
                    | Some fq ->
                        let fact, d = extract_binding ctx env vb fq in
                        fns := fact :: !fns;
                        if List.is_empty fact.Summary.f_params then
                          Hashtbl.replace env (Ident.unique_name id) d
                    | None -> ())
                | _ -> ())
              vbs
        | Tstr_eval (e, _) ->
            field_scan ctx [] fields e;
            ignore (infer ctx env e)
        | Tstr_module mb -> do_module_expr mb.mb_expr
        | Tstr_recmodule mbs ->
            List.iter (fun mb -> do_module_expr mb.mb_expr) mbs
        | Tstr_include incl -> do_module_expr incl.incl_mod
        | _ -> ())
      items
  and do_module_expr me =
    match me.mod_desc with
    | Tmod_structure s -> do_items s.str_items
    | Tmod_constraint (me, _, _, _) -> do_module_expr me
    | Tmod_functor (_, me) -> do_module_expr me
    | _ -> ()
  in
  do_items str.str_items;
  (List.rev !fns, List.rev !fields)

(* Pass 6: hot-alloc certification ------------------------------------ *)

let diagnose_hot_alloc ctx =
  match ctx.summaries with
  | None -> ()
  | Some s ->
      let owned fq =
        match Hashtbl.find_opt s.srcs fq with
        | Some src -> String.equal src ctx.src
        | None -> false
      in
      Hashtbl.iter
        (fun fq (f : Summary.fn_fact) ->
          if f.Summary.f_hot && owned fq then begin
            (match Summary.find s.tbl fq with
            | Some sum -> (
                match sum.Summary.s_alloc with
                | Some chain ->
                    flag_at ctx ~line:f.Summary.f_line ~col:f.Summary.f_col
                      rule_hot_alloc
                      (Printf.sprintf "[@wa.hot] %s may allocate: %s"
                         (short_fq fq) chain)
                | None -> ())
            | None -> ());
            (* Any call chain reaching a function without a summary
               leaves the certificate open: reject it. *)
            let visited = Hashtbl.create 16 in
            let flagged = Hashtbl.create 4 in
            let rec dfs chain (g : Summary.fn_fact) =
              if not (Hashtbl.mem visited g.Summary.f_fq) then begin
                Hashtbl.add visited g.Summary.f_fq ();
                List.iter
                  (fun (c : Summary.call) ->
                    match Summary.lookup s.tbl c.Summary.c_callee with
                    | Some sum -> (
                        match Hashtbl.find_opt s.facts sum.Summary.s_fq with
                        | Some g' ->
                            dfs (chain @ [ short_fq c.Summary.c_callee ]) g'
                        | None -> ())
                    | None ->
                        if not (Hashtbl.mem flagged c.Summary.c_callee) then begin
                          Hashtbl.add flagged c.Summary.c_callee ();
                          flag_at ctx ~line:f.Summary.f_line
                            ~col:f.Summary.f_col rule_hot_alloc
                            (Printf.sprintf
                               "[@wa.hot] %s calls %s (via %s), which has no \
                                summary: allocation behavior unknown — \
                                inline it, extend the analyzer's no-alloc \
                                table, or drop the annotation"
                               (short_fq fq) c.Summary.c_callee
                               (String.concat " -> "
                                  (chain @ [ c.Summary.c_callee ])))
                        end)
                  g.Summary.f_calls
              end
            in
            dfs [ short_fq fq ] f
          end)
        s.facts

(* Passes 7–9: lockset, lock-order, event-loop certification ---------- *)

let diagnose_concurrency ctx =
  match ctx.summaries with
  | None -> ()
  | Some s ->
      let owned fq =
        match Hashtbl.find_opt s.srcs fq with
        | Some src -> String.equal src ctx.src
        | None -> false
      in
      (* Lock-order cycles are global facts; attribute each conflicting
         edge to the unit that owns its outer acquisition so per-file
         reports stay cacheable. *)
      List.iter
        (fun (owner, line, msg) ->
          if owned owner then
            flag_at ctx ~line ~col:0 rule_lock_order msg)
        s.lock_cycles;
      Hashtbl.iter
        (fun fq (f : Summary.fn_fact) ->
          if owned fq then begin
            ctx.guarded <- ctx.guarded + f.Summary.f_guarded;
            match Summary.find s.tbl fq with
            | None -> ()
            | Some sum ->
                (* A lock requirement that survives to a function no
                   call site discharges is a real race: nothing in the
                   program ever holds the guard across this path. *)
                if sum.Summary.s_callers = 0 then
                  List.iter
                    (fun (lock, witness) ->
                      flag_at ctx ~line:f.Summary.f_line ~col:f.Summary.f_col
                        rule_lockset
                        (Printf.sprintf
                           "%s touches state guarded by %s without holding \
                            it (no call site provides the lock): %s — take \
                            the lock around the access, or declare the race \
                            intentional with [@wa.benign_race]"
                           (short_fq fq) lock witness))
                    sum.Summary.s_requires;
                if f.Summary.f_event_loop then (
                  match sum.Summary.s_block with
                  | Some chain ->
                      flag_at ctx ~line:f.Summary.f_line ~col:f.Summary.f_col
                        rule_event_loop
                        (Printf.sprintf
                           "[@wa.event_loop] %s can block the select loop: \
                            %s — push the work onto the pool, make the fd \
                            non-blocking, or drop the annotation"
                           (short_fq fq) chain)
                  | None -> ctx.roots <- ctx.roots + 1)
          end)
        s.facts

(* Per-structure drivers ---------------------------------------------- *)

let file_allows_of_structure str =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_attribute a when String.equal a.attr_name.txt "wa.check.allow"
        ->
          allows_of_payload a.attr_payload
      | _ -> [])
    str.str_items

let analyze_structure ctx str =
  let fns = collect_fn_bindings str in
  let env = Hashtbl.create 64 in
  let rec do_items items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                with_allows ctx vb.vb_attributes @@ fun () ->
                if not ctx.capture_ok then scan_parallel ctx fns vb.vb_expr;
                scan_check_then_act ctx vb.vb_expr;
                let fw_fq =
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) ->
                      Hashtbl.find_opt ctx.resolver.r_values
                        (Ident.unique_name id)
                  | _ -> None
                in
                let fw_params, _ = peel_params vb.vb_expr in
                float_walk ctx
                  { fw_fq; fw_params; fw_collect = None }
                  vb.vb_expr;
                let d = infer ctx env vb.vb_expr in
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) ->
                    Hashtbl.replace env (Ident.unique_name id) d
                | _ -> ())
              vbs
        | Tstr_eval (e, attrs) ->
            with_allows ctx attrs @@ fun () ->
            if not ctx.capture_ok then scan_parallel ctx fns e;
            scan_check_then_act ctx e;
            float_walk ctx
              { fw_fq = None; fw_params = []; fw_collect = None }
              e;
            ignore (infer ctx env e)
        | Tstr_module mb -> do_module_expr mb.mb_expr
        | Tstr_recmodule mbs ->
            List.iter (fun mb -> do_module_expr mb.mb_expr) mbs
        | Tstr_include incl -> do_module_expr incl.incl_mod
        | _ -> ())
      items
  and do_module_expr me =
    match me.mod_desc with
    | Tmod_structure s -> do_items s.str_items
    | Tmod_constraint (me, _, _, _) -> do_module_expr me
    | Tmod_functor (_, me) -> do_module_expr me
    | _ -> ()
  in
  do_items str.str_items;
  diagnose_hot_alloc ctx;
  diagnose_concurrency ctx

(* Cmt drivers -------------------------------------------------------- *)

let is_generated src =
  Filename.check_suffix src "-gen" || Filename.check_suffix src ".ml-gen"

type loaded =
  | L_err of file_report
  | L_skip
  | L_impl of string * string list * structure
      (* source path, unit parts (["Wa_sinr"; "Linkset"]), typedtree *)

let load_unit path =
  match Cmt_format.read_cmt path with
  | exception exn ->
      L_err
        {
          skipped with
          source = Some (normalize_path path);
          file_violations =
            [
              {
                file = normalize_path path;
                line = 1;
                col = 0;
                rule = rule_cmt_error;
                message =
                  Printf.sprintf "cannot read cmt: %s"
                    (Printexc.to_string exn);
              };
            ];
        }
  | infos -> (
      match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile)
      with
      | Cmt_format.Implementation str, Some src when not (is_generated src)
        ->
          L_impl
            ( normalize_path src,
              split_wrapped infos.Cmt_format.cmt_modname,
              str )
      | _ -> L_skip)

let make_ctx ~config ~quiet ~src ~unit_parts ~summaries str =
  {
    cfg = config;
    src;
    self_module =
      String.capitalize_ascii
        (Filename.remove_extension (Filename.basename src));
    hot = path_matches ~prefixes:config.Config.hot_paths src;
    capture_ok = path_matches ~prefixes:config.Config.capture_allowed src;
    quiet;
    resolver = build_resolver unit_parts str;
    summaries;
    guards = collect_guards unit_parts str;
    wrappers = Hashtbl.create 8;
    file_allows = file_allows_of_structure str;
    allow_stack = [];
    found = [];
    closures = 0;
    exprs = 0;
    guarded = 0;
    roots = 0;
  }

let extract_unit ~config path digest loaded =
  match loaded with
  | L_impl (src, unit_parts, str) ->
      let ctx =
        make_ctx ~config ~quiet:true ~src ~unit_parts ~summaries:None str
      in
      let fns, fields = extract_structure ctx str in
      {
        Summary.u_path = normalize_path path;
        u_src = src;
        u_digest = digest;
        u_fns = fns;
        u_fields = fields;
      }
  | L_err _ | L_skip ->
      {
        Summary.u_path = normalize_path path;
        u_src = "";
        u_digest = digest;
        u_fns = [];
        u_fields = [];
      }

let diagnose_unit ~config ~summaries loaded =
  match loaded with
  | L_err r -> r
  | L_skip -> skipped
  | L_impl (src, unit_parts, str) ->
      let ctx = make_ctx ~config ~quiet:false ~src ~unit_parts ~summaries str in
      analyze_structure ctx str;
      {
        source = Some src;
        analyzed = true;
        file_violations = List.sort compare_violation ctx.found;
        file_closures = ctx.closures;
        file_expressions = ctx.exprs;
        file_guarded = ctx.guarded;
        file_roots = ctx.roots;
      }

let analyze_cmt ?(config = Config.default) ?summaries path =
  diagnose_unit ~config ~summaries (load_unit path)

let summaries_of_units units =
  let tbl = Summary.solve units in
  let facts = Hashtbl.create 256 in
  let srcs = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter
        (fun (f : Summary.fn_fact) ->
          Hashtbl.replace facts f.Summary.f_fq f;
          Hashtbl.replace srcs f.Summary.f_fq u.Summary.u_src)
        u.Summary.u_fns)
    units;
  (* Lock-order graph: an edge h -> l for every site acquiring [l]
     while [h] is held — directly ([f_lock_edges]) or through a call
     into a function whose summary says it acquires [l]. One
     representative witness per edge, chosen deterministically. *)
  let edges = Hashtbl.create 16 in
  let add_edge h l owner line desc =
    if not (String.equal h l) then
      match Hashtbl.find_opt edges (h, l) with
      | Some (_, _, d) when String.compare d desc <= 0 -> ()
      | _ -> Hashtbl.replace edges (h, l) (owner, line, desc)
  in
  Hashtbl.iter
    (fun fq (f : Summary.fn_fact) ->
      let src = Option.value ~default:"?" (Hashtbl.find_opt srcs fq) in
      List.iter
        (fun (h, l, line) ->
          add_edge h l fq line
            (Printf.sprintf "%s -> %s at %s (%s:%d)" h l (short_fq fq) src
               line))
        f.Summary.f_lock_edges;
      List.iter
        (fun (c : Summary.call) ->
          if (not c.Summary.c_deferred) && not (List.is_empty c.Summary.c_held)
          then
            match Summary.lookup tbl c.Summary.c_callee with
            | Some sum ->
                List.iter
                  (fun (l, via) ->
                    let chain =
                      if String.equal via "" then short_fq c.Summary.c_callee
                      else short_fq c.Summary.c_callee ^ " -> " ^ via
                    in
                    List.iter
                      (fun h ->
                        add_edge h l fq f.Summary.f_line
                          (Printf.sprintf "%s -> %s at %s (%s:%d) via %s" h
                             l (short_fq fq) src f.Summary.f_line chain))
                      c.Summary.c_held)
                  sum.Summary.s_locks
            | None -> ())
        f.Summary.f_calls)
    facts;
  let nodes =
    Hashtbl.fold (fun (h, l) _ acc -> h :: l :: acc) edges []
    |> List.sort_uniq String.compare
  in
  let succ n =
    Hashtbl.fold
      (fun (h, l) _ acc -> if String.equal h n then l :: acc else acc)
      edges []
    |> List.sort String.compare
  in
  let lock_cycles =
    Summary.sccs nodes succ
    |> List.concat_map (fun comp ->
           if List.length comp < 2 then []
           else
             let in_comp =
               Hashtbl.fold
                 (fun (h, l) w acc ->
                   if List.mem h comp && List.mem l comp then (w, (h, l)) :: acc
                   else acc)
                 edges []
               |> List.sort (fun ((_, _, d), _) ((_, _, d'), _) ->
                      String.compare d d')
             in
             List.map
               (fun ((owner, line, desc), _) ->
                 let others =
                   List.filter_map
                     (fun ((_, _, d), _) ->
                       if String.equal d desc then None else Some d)
                     in_comp
                 in
                 let others =
                   List.filteri (fun i _ -> i < 3) others
                   |> String.concat "; "
                 in
                 ( owner,
                   line,
                   Printf.sprintf
                     "lock-order cycle: %s conflicts with %s — a thread in \
                      each chain deadlocks; impose a global acquisition \
                      order"
                     desc others ))
               in_comp)
    |> List.sort (fun (o, i, m) (o', i', m') ->
           match String.compare o o' with
           | 0 -> (
               match Int.compare i i' with
               | 0 -> String.compare m m'
               | n -> n)
           | n -> n)
  in
  { tbl; facts; srcs; lock_cycles }

(* Directory driver: collect .cmt files, descending into dune's hidden
   .objs directories (unlike source scanners, dotted dirs are the
   point here). *)
let rec collect_cmt acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry = ".git" || entry = "node_modules" then acc
           else collect_cmt acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let summarize_paths ?(config = Config.default) paths =
  let files =
    List.fold_left collect_cmt [] paths |> List.sort_uniq String.compare
  in
  summaries_of_units
    (List.map
       (fun p -> extract_unit ~config p (Summary.digest_file p) (load_unit p))
       files)

let aggregate reports =
  let analyzed = List.filter (fun r -> r.analyzed) reports in
  {
    files_scanned = List.length analyzed;
    closures_analyzed =
      List.fold_left (fun a r -> a + r.file_closures) 0 analyzed;
    expressions_analyzed =
      List.fold_left (fun a r -> a + r.file_expressions) 0 analyzed;
    guarded_accesses =
      List.fold_left (fun a r -> a + r.file_guarded) 0 analyzed;
    event_loop_roots = List.fold_left (fun a r -> a + r.file_roots) 0 analyzed;
    violations =
      List.concat_map (fun r -> r.file_violations) reports
      |> List.sort_uniq compare_violation;
  }

let analyze_program ?(config = Config.default) ?cache paths =
  let files =
    List.fold_left collect_cmt [] paths |> List.sort_uniq String.compare
  in
  let cached = Hashtbl.create 16 in
  (match Option.bind cache Summary.load_cache with
  | Some c ->
      List.iter
        (fun (cu : Summary.cached_unit) ->
          Hashtbl.replace cached cu.Summary.cu_facts.Summary.u_path cu)
        c.Summary.c_units
  | None -> ());
  let digests = List.map (fun p -> (p, Summary.digest_file p)) files in
  let hit p digest =
    match Hashtbl.find_opt cached (normalize_path p) with
    | Some cu when String.equal cu.Summary.cu_facts.Summary.u_digest digest ->
        Some cu
    | _ -> None
  in
  (* Warm path: every unit hits and every cached report parses -> the
     aggregate is reconstructed without reading a single cmt. *)
  let warm_reports =
    if Hashtbl.length cached = 0 then None
    else
      List.fold_left
        (fun acc (p, digest) ->
          match acc with
          | None -> None
          | Some rs -> (
              match hit p digest with
              | Some cu -> (
                  match file_report_of_json cu.Summary.cu_report with
                  | Ok r -> Some (r :: rs)
                  | Error _ -> None)
              | None -> None))
        (Some []) digests
      |> Option.map List.rev
  in
  match warm_reports with
  | Some reports ->
      ( aggregate reports,
        {
          Summary.st_units = List.length files;
          st_hits = List.length files;
          st_warm = true;
        } )
  | None ->
      let loadeds =
        List.map (fun (p, digest) -> (p, digest, load_unit p)) digests
      in
      let hits = ref 0 in
      let units =
        List.map
          (fun (p, digest, l) ->
            match hit p digest with
            | Some cu ->
                incr hits;
                cu.Summary.cu_facts
            | None -> extract_unit ~config p digest l)
          loadeds
      in
      let summaries = summaries_of_units units in
      let reports =
        List.map
          (fun (_, _, l) -> diagnose_unit ~config ~summaries:(Some summaries) l)
          loadeds
      in
      (match cache with
      | Some cache_file ->
          let c_units =
            List.map2
              (fun u r ->
                { Summary.cu_facts = u; cu_report = file_report_to_json r })
              units reports
          in
          ignore (Summary.save_cache cache_file { Summary.c_units })
      | None -> ());
      ( aggregate reports,
        {
          Summary.st_units = List.length files;
          st_hits = !hits;
          st_warm = false;
        } )

let analyze_paths ?(config = Config.default) paths =
  fst (analyze_program ~config paths)
