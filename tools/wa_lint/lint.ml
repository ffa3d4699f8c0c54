(* Source-level static analysis for the wireless_agg tree.

   The linter parses every .ml file with compiler-libs and walks the
   Parsetree; the rules are deliberately syntactic (no type
   information), so each one is defined by a decidable shape of the
   AST plus a small path-based configuration.  What the rules buy:

   - [list-eq]: polymorphic [=]/[<>] against a list literal.  Structural
     equality on lists is O(n), allocates closures under flambda-less
     builds, and silently misbehaves on float-bearing elements; a
     pattern match (or [List.is_empty]) is always available.
   - [float-eq]: polymorphic [=]/[<>] where an operand is syntactically
     float-valued (float literal, [nan]/[infinity]/..., float
     arithmetic, or an application into a known float-bearing module
     such as [Link]/[Vec2]).  Polymorphic equality on floats disagrees
     with IEEE semantics readers expect ([nan = nan] is [false] but
     [compare nan nan = 0]) and on [-0.]; [Float.equal]/[Float.compare]
     or a domain comparator ([Link.equal]) state the intent.
   - [poly-compare]: any bare [compare] (or [Stdlib.compare]) in
     expression position.  The polymorphic comparison is a segfault
     hazard on functional values, wrong on NaN, and slower than the
     monomorphic comparators everywhere it is right.
   - [atomic-scope]: [Atomic.*] outside the approved concurrency core
     (default: [lib/obs/] and [lib/util/parallel.ml]).  Lock-free code
     is only reviewable while it stays in one place.
   - [unix-scope]: [Unix.*] outside the I/O perimeter (default:
     [lib/service/], [lib/io/], [bin/], [bench/]).  Syscalls in the
     numeric and algorithmic layers make them untestable without a
     kernel and invisible to the event-loop blocking certification in
     wa_check, which audits the perimeter only.
   - [obs-scope]: [Wa_obs.enabled] (or [Wa_obs.Runtime.enabled])
     outside [lib/obs/].  A branch on whether telemetry is on is how
     observation starts changing what is computed; instrumentation
     records unconditionally and lets the sink decide.  A use that
     only skips recording work carries a justified suppression.
   - [obj-magic]: [Obj.magic], anywhere.
   - [printf-hot]: any [Printf.*] reference inside a configured hot
     path (default: [lib/sinr/] and [lib/core/conflict.ml]).  Hot paths
     must not format; even [sprintf] allocates and drags the format
     machinery into otherwise-pure numeric code.
   - [missing-mli]: a [.ml] under a configured root (default [lib/])
     with no sibling [.mli].
   - [unused-export]: a value exported by a [.mli] under a configured
     root (default [lib/] and [tools/]) but never referenced outside
     its own module.  References through module aliases
     ([module X = M], [let module X = M in], chains of them) count
     against [M]'s own values; only an [open], [include], functor
     argument, [module type of] or packed module makes a module's
     whole interface count as used.  Only active when the caller
     supplies the reference scan set ([ref_paths]): deciding "never
     referenced" requires seeing every consumer, so partial scans
     (the smoke subset) skip the rule rather than lie.

   Suppressions: [[@wa.lint.allow "rule ..."]] on the offending
   expression, or a floating [[@@@wa.lint.allow "rule ..."]] to waive
   rules for a whole file.  Unknown attributes are ignored by the
   compiler, so suppressions cost nothing at build time. *)

module Json = Wa_util.Json

(* Rules ------------------------------------------------------------- *)

let rule_list_eq = "list-eq"
let rule_float_eq = "float-eq"
let rule_poly_compare = "poly-compare"
let rule_atomic_scope = "atomic-scope"
let rule_unix_scope = "unix-scope"
let rule_obs_scope = "obs-scope"
let rule_obj_magic = "obj-magic"
let rule_printf_hot = "printf-hot"
let rule_missing_mli = "missing-mli"
let rule_unused_export = "unused-export"
let rule_parse_error = "parse-error"

let all_rules =
  [
    rule_list_eq;
    rule_float_eq;
    rule_poly_compare;
    rule_atomic_scope;
    rule_unix_scope;
    rule_obs_scope;
    rule_obj_magic;
    rule_printf_hot;
    rule_missing_mli;
    rule_unused_export;
    rule_parse_error;
  ]

(* Configuration ------------------------------------------------------ *)

module Config = struct
  type t = {
    hot_paths : string list;
    atomic_allowed : string list;
    unix_allowed : string list;
    float_modules : string list;
    mli_required_roots : string list;
    export_roots : string list;
  }

  let default =
    {
      hot_paths = [ "lib/sinr/"; "lib/core/conflict.ml" ];
      atomic_allowed = [ "lib/obs/"; "lib/util/parallel.ml" ];
      unix_allowed = [ "lib/service/"; "lib/fleet/"; "lib/io/"; "bin/"; "bench/" ];
      float_modules = [ "Link"; "Vec2"; "Float" ];
      mli_required_roots = [ "lib/" ];
      export_roots = [ "lib/"; "tools/" ];
    }
end

(* Violations --------------------------------------------------------- *)

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

(* JSON round-trip ---------------------------------------------------- *)

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

type report = { files_scanned : int; violations : violation list }

let report_to_json r =
  Json.Obj
    [
      ("tool", Json.String "wa_lint");
      ("version", Json.Int 1);
      ("files_scanned", Json.Int r.files_scanned);
      ("violation_count", Json.Int (List.length r.violations));
      ("violations", Json.List (List.map violation_to_json r.violations));
    ]

let report_of_json j =
  match
    ( Option.bind (Json.member "files_scanned" j) Json.to_int_opt,
      Json.member "violations" j )
  with
  | Some files_scanned, Some (Json.List vs) ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
            match violation_of_json v with
            | Ok v -> collect (v :: acc) rest
            | Error _ as e -> e)
      in
      Result.map
        (fun violations -> { files_scanned; violations })
        (collect [] vs)
  | _ -> Error "report_of_json: missing files_scanned/violations"

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

(* AST helpers -------------------------------------------------------- *)

open Parsetree

let flatten_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | path -> Some path
      | exception _ -> None)
  | _ -> None

let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

let poly_eq_name e =
  match Option.map strip_stdlib (flatten_ident e) with
  | Some [ ("=" | "<>" | "==" | "!=") as op ] -> Some op
  | _ -> None

let is_bare_compare e =
  match Option.map strip_stdlib (flatten_ident e) with
  | Some [ "compare" ] -> true
  | _ -> false

let rec is_list_literal e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> true
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) -> true
  | Pexp_constraint (e, _) -> is_list_literal e
  | _ -> false

let float_idents =
  [ "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float"; "min_float" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_funs =
  [ "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "cos"; "sin"; "tan";
    "acos"; "asin"; "atan"; "atan2"; "hypot"; "cosh"; "sinh"; "tanh"; "ceil";
    "floor"; "abs_float"; "mod_float"; "float_of_int"; "float_of_string" ]

(* Functions of float-bearing modules that do NOT return the module's
   float-bearing type (or a float): calling these is not evidence the
   surrounding comparison is on floats. *)
let non_float_results =
  [ "compare"; "equal"; "hash"; "to_string"; "describe"; "pp"; "to_int";
    "sign_bit"; "classify_float"; "of_int"; "to_int_opt" ]

let rec is_float_expr (cfg : Config.t) e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | [ x ] -> List.mem x float_idents
      | _ -> false
      | exception _ -> false)
  | Pexp_apply (f, _) -> (
      match flatten_ident f with
      | Some [ op ] -> List.mem op float_ops || List.mem op float_funs
      | Some path -> (
          match strip_stdlib path with
          | [ m; fn ] ->
              List.mem m cfg.Config.float_modules
              && (not (List.mem fn non_float_results))
              && not
                   (String.length fn >= 3
                   && String.sub fn 0 3 = "is_")
          | _ -> false)
      | None -> false)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> is_float_expr cfg e
  | _ -> false

(* Suppressions ------------------------------------------------------- *)

let allows_of_payload = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      String.split_on_char ' ' s |> List.filter (fun x -> x <> "")
  | _ -> []

let allows_of_attrs attrs =
  List.concat_map
    (fun a ->
      if String.equal a.attr_name.txt "wa.lint.allow" then
        allows_of_payload a.attr_payload
      else [])
    attrs

let file_allows structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a when String.equal a.attr_name.txt "wa.lint.allow" ->
          allows_of_payload a.attr_payload
      | _ -> [])
    structure

(* Per-file walk ------------------------------------------------------ *)

type file_ctx = {
  cfg : Config.t;
  path : string;
  hot : bool;
  atomic_ok : bool;
  unix_ok : bool;
  obs_ok : bool;
  allows : string list;
  mutable found : violation list;
}

let flag ctx ?(attrs = []) loc rule message =
  if
    (not (List.mem rule ctx.allows))
    && not (List.mem rule (allows_of_attrs attrs))
  then
    let pos = loc.Location.loc_start in
    ctx.found <-
      {
        file = ctx.path;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        rule;
        message;
      }
      :: ctx.found

let check_apply ctx e f args =
  (match poly_eq_name f with
  | Some op ->
      let operands = List.map snd args in
      if List.exists is_list_literal operands then
        flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_list_eq
          (Printf.sprintf
             "polymorphic (%s) against a list literal; match on the \
              structure or use List.is_empty"
             op)
      else if List.exists (is_float_expr ctx.cfg) operands then
        flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_float_eq
          (Printf.sprintf
             "polymorphic (%s) on a float-valued operand; use Float.equal \
              / Float.compare or a domain comparator (Link.equal, \
              Vec2.equal, ...)"
             op)
  | None -> ());
  ignore args

let check_ident ctx e =
  match flatten_ident e with
  | None -> ()
  | Some path -> (
      if is_bare_compare e then
        flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_poly_compare
          "bare polymorphic compare; use a type-specific comparator \
           (Int.compare, Float.compare, Link.compare, ...)";
      match strip_stdlib path with
      | "Atomic" :: _ when not ctx.atomic_ok ->
          flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_atomic_scope
            "Atomic.* outside the concurrency core (allowed: lib/obs/, \
             lib/util/parallel.ml); use a Mutex or move the code"
      | "Unix" :: _ when not ctx.unix_ok ->
          flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_unix_scope
            "Unix.* outside the I/O perimeter (allowed: lib/service/, \
             lib/fleet/, lib/io/, bin/, bench/); raise the syscall into \
             the caller or move the code"
      | "Wa_obs" :: ([ "enabled" ] | [ "Runtime"; "enabled" ]) when not ctx.obs_ok
        ->
          flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_obs_scope
            "Wa_obs.enabled outside lib/obs/; record unconditionally and \
             let the sink decide, so observation never changes what is \
             computed"
      | [ "Obj"; "magic" ] ->
          flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_obj_magic
            "Obj.magic defeats the type system; find another way"
      | "Printf" :: _ when ctx.hot ->
          flag ctx ~attrs:e.pexp_attributes e.pexp_loc rule_printf_hot
            "Printf on a hot path (lib/sinr, lib/core/conflict.ml); \
             formatting does not belong in the numeric kernels"
      | _ -> ())

let iterator ctx =
  let open Ast_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> check_apply ctx e f args
    | Pexp_ident _ -> check_ident ctx e
    | _ -> ());
    default_iterator.expr it e
  in
  { default_iterator with expr }

let parse_implementation path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

let lint_file ?(config = Config.default) path =
  let npath = normalize_path path in
  match parse_implementation path with
  | exception exn ->
      let line, msg =
        match Location.error_of_exn exn with
        | Some (`Ok err) ->
            ( err.Location.main.Location.loc.Location.loc_start.Lexing.pos_lnum,
              Format.asprintf "%a" Location.print_report err )
        | _ -> (1, Printexc.to_string exn)
      in
      [
        {
          file = npath;
          line;
          col = 0;
          rule = rule_parse_error;
          message = String.concat " " (String.split_on_char '\n' msg);
        };
      ]
  | structure ->
      let ctx =
        {
          cfg = config;
          path = npath;
          hot = path_matches ~prefixes:config.Config.hot_paths npath;
          atomic_ok = path_matches ~prefixes:config.Config.atomic_allowed npath;
          unix_ok = path_matches ~prefixes:config.Config.unix_allowed npath;
          obs_ok = path_matches ~prefixes:[ "lib/obs/" ] npath;
          allows = file_allows structure;
          found = [];
        }
      in
      let it = iterator ctx in
      it.Ast_iterator.structure it structure;
      List.sort compare_violation ctx.found

(* Directory driver --------------------------------------------------- *)

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry <> "" && entry.[0] = '.' then acc
           else if entry = "_build" then acc
           else collect_ml acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then normalize_path path :: acc
  else acc

let missing_mli_check ~(config : Config.t) files =
  List.filter_map
    (fun ml ->
      if
        path_matches ~prefixes:config.Config.mli_required_roots ml
        && not (Sys.file_exists (Filename.remove_extension ml ^ ".mli"))
      then
        Some
          {
            file = ml;
            line = 1;
            col = 0;
            rule = rule_missing_mli;
            message =
              Printf.sprintf
                "module %s has no interface; every library module keeps a \
                 .mli"
                (String.capitalize_ascii
                   (Filename.remove_extension (Filename.basename ml)));
          }
      else None)
    files

(* unused-export ------------------------------------------------------ *)

let parse_interface path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.interface lexbuf)

let signature_allows signature =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_attribute a when String.equal a.attr_name.txt "wa.lint.allow" ->
          allows_of_payload a.attr_payload
      | _ -> [])
    signature

(* Exported value names of [mli] with their locations, minus
   suppressed ones.  An unparseable interface exports nothing — the
   compiler will complain louder than we can. *)
let exports_of_mli mli =
  match parse_interface mli with
  | exception _ -> []
  | signature ->
      if List.mem rule_unused_export (signature_allows signature) then []
      else
        List.filter_map
          (fun item ->
            match item.psig_desc with
            | Psig_value vd
              when not
                     (List.mem rule_unused_export
                        (allows_of_attrs vd.pval_attributes)) ->
                Some (vd.pval_name.Location.txt, vd.pval_loc)
            | _ -> None)
          signature

let is_value_name v =
  v <> "" && not (v.[0] >= 'A' && v.[0] <= 'Z')

(* Qualified references of one parsed file.  [M.v] (or [Lib.M.v])
   marks [(M, v)] used.  Aliases resolve in place: each
   [module X = A.B.M] binding, at any nesting, and each
   [let module X = A.B.M in] binding records X -> M; chains resolve
   transitively, and [X.v] marks [(M, v)] for every module X is bound
   to anywhere in the file (conservative without scope tracking).  A
   module that is opened ([open], [let open], [M.(...)]), included,
   passed to a functor, named in [module type of] or packed is marked
   wholesale-used: its exports are no longer individually trackable,
   so the rule stays silent about them. *)
let references_of_structure structure =
  let aliases = Hashtbl.create 16 in
  let refs = ref [] in
  let whole = ref [] in
  let flatten l = match Longident.flatten l with p -> p | exception _ -> [] in
  let value_ref l =
    match List.rev (strip_stdlib (flatten l)) with
    | v :: m :: _ when is_value_name v && not (is_value_name m) ->
        refs := (m, v) :: !refs
    | _ -> ()
  in
  let alias x l =
    match List.rev (flatten l) with
    | m :: _ -> Hashtbl.add aliases x m
    | [] -> ()
  in
  let open Ast_iterator in
  (* [module _ = M] binds no name: it falls through to [module_expr]
     and stays wholesale like any other module expression. *)
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_letmodule
              ({ txt = Some x; _ }, { pmod_desc = Pmod_ident lid; _ }, body)
            ->
              alias x lid.txt;
              it.expr it body
          | Pexp_ident { txt; _ } -> value_ref txt
          | _ -> default_iterator.expr it e);
      module_binding =
        (fun it mb ->
          match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some x, Pmod_ident lid -> alias x lid.txt
          | _ -> default_iterator.module_binding it mb);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; _ } -> whole := flatten txt @ !whole
          | _ -> ());
          default_iterator.module_expr it me);
    }
  in
  it.structure it structure;
  (* [m] and every module it reaches through aliases. *)
  let rec targets seen m =
    if List.mem m seen then seen
    else List.fold_left targets (m :: seen) (Hashtbl.find_all aliases m)
  in
  let used = Hashtbl.create 64 in
  let wholesale = Hashtbl.create 16 in
  List.iter
    (fun (m, v) ->
      List.iter (fun t -> Hashtbl.replace used (t, v) ()) (targets [] m))
    !refs;
  List.iter
    (fun m -> List.iter (fun t -> Hashtbl.replace wholesale t ()) (targets [] m))
    !whole;
  (used, wholesale)

(* One checked module: its implementation path, sibling interface, and
   the module name consumers write ([Linkset] — dune's library
   wrapping prefixes never appear in source references). *)
let export_candidates ~(config : Config.t) files =
  List.filter_map
    (fun ml ->
      if path_matches ~prefixes:config.Config.export_roots ml then
        let mli = Filename.remove_extension ml ^ ".mli" in
        if Sys.file_exists mli then
          Some
            ( ml,
              normalize_path mli,
              String.capitalize_ascii
                (Filename.remove_extension (Filename.basename ml)) )
        else None
      else None)
    files

let unused_export_check ~(config : Config.t) ~files ~ref_files =
  let candidates = export_candidates ~config files in
  if List.is_empty candidates then []
  else
    (* Parse every reference file once; a file that does not parse
       contributes no references (its own lint pass reports the
       parse-error). *)
    let refs =
      List.sort_uniq String.compare (files @ ref_files)
      |> List.filter_map (fun path ->
             match parse_implementation path with
             | exception _ -> None
             | s -> Some (path, references_of_structure s))
    in
    List.concat_map
      (fun (ml, mli, base) ->
        (* "Outside its module": the module's own implementation does
           not keep its exports alive. *)
        let elsewhere = List.filter (fun (p, _) -> p <> ml) refs in
        if
          List.exists
            (fun (_, (_, wholesale)) -> Hashtbl.mem wholesale base)
            elsewhere
        then []
        else
          exports_of_mli mli
          |> List.filter_map (fun (name, loc) ->
                 if
                   List.exists
                     (fun (_, (used, _)) -> Hashtbl.mem used (base, name))
                     elsewhere
                 then None
                 else
                   let pos = loc.Location.loc_start in
                   Some
                     {
                       file = mli;
                       line = pos.Lexing.pos_lnum;
                       col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
                       rule = rule_unused_export;
                       message =
                         Printf.sprintf
                           "value %s is exported by %s but never referenced \
                            outside its module; drop it from the interface \
                            (or mark the val [@@wa.lint.allow \
                            \"unused-export\"])"
                           name base;
                     }))
      candidates

let lint_paths ?(config = Config.default) ?ref_paths paths =
  let files =
    List.fold_left collect_ml [] paths |> List.sort_uniq String.compare
  in
  let violations =
    missing_mli_check ~config files
    @ List.concat_map (lint_file ~config) files
    @
    match ref_paths with
    | None -> []
    | Some extra ->
        let ref_files =
          List.fold_left collect_ml [] extra
          |> List.sort_uniq String.compare
        in
        unused_export_check ~config ~files ~ref_files
  in
  {
    files_scanned = List.length files;
    violations = List.sort_uniq compare_violation violations;
  }
