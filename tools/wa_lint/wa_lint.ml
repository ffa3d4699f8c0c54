(* Command-line front end:
   wa_lint [--json FILE] [--quiet] [--list-rules] [--refs PATH] PATH...

   --refs names reference-only scan roots (parsed for cross-module
   references, not linted) and activates the unused-export rule, which
   audits the exports of lib/ and tools/ and sees through module
   aliases.
   Exit status: 0 clean, 1 violations found, 2 usage/setup error. *)

module Lint = Wa_lint_core.Lint

let usage =
  "wa_lint [--json FILE] [--quiet] [--list-rules] [--refs PATH] PATH..."

let () =
  let json_out = ref None in
  let quiet = ref false in
  let list_rules = ref false in
  let refs = ref [] in
  let paths = ref [] in
  let spec =
    [
      ( "--json",
        Arg.String (fun f -> json_out := Some f),
        "FILE Write the machine-readable report to FILE" );
      ("--quiet", Arg.Set quiet, " Print nothing but the verdict line");
      ("--list-rules", Arg.Set list_rules, " Print the rule names and exit");
      ( "--refs",
        Arg.String (fun p -> refs := p :: !refs),
        "PATH Reference-only scan root (repeatable); activates \
         unused-export" );
    ]
  in
  (try Arg.parse spec (fun p -> paths := p :: !paths) usage
   with _ -> exit 2);
  if !list_rules then begin
    List.iter print_endline Lint.all_rules;
    exit 0
  end;
  let paths = List.rev !paths in
  if List.is_empty paths then begin
    prerr_endline usage;
    exit 2
  end;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "wa_lint: no such path: %s\n" p;
        exit 2
      end)
    (paths @ !refs);
  let ref_paths =
    match !refs with [] -> None | rs -> Some (List.rev rs)
  in
  let report = Lint.lint_paths ?ref_paths paths in
  if not !quiet then
    List.iter
      (fun v -> Format.printf "%a@." Lint.pp_violation v)
      report.Lint.violations;
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Wa_util.Json.to_string (Lint.report_to_json report));
      output_char oc '\n';
      close_out oc)
    !json_out;
  let n = List.length report.Lint.violations in
  Printf.printf "wa_lint: %d file(s), %d violation(s)\n" report.Lint.files_scanned n;
  if n > 0 then exit 1
