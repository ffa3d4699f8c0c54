(** Minimal JSON tree (no external dependencies).

    Construction, compact/pretty printing, and parsing.  Strings are
    escaped per RFC 8259; floats print with round-trippable precision;
    [of_string] accepts everything [to_string] emits (including the
    infinity literals [1e999]/[-1e999]) plus arbitrary standard JSON.

    Lives in [Wa_util] so that every layer — including the
    observability library, which the higher layers depend on — can
    emit and parse JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default true) indents with two spaces. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit
(** Stream the value straight to the channel — byte-identical to
    {!to_string} but never materializes the whole document in memory.
    No trailing newline; the caller frames (JSON lines, etc.). *)

val escape_string : string -> string
(** The escaped, quoted form of a string literal. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; [Error] carries an offset-tagged message.
    Trailing non-whitespace content is an error.  Numbers parse to
    [Int] when they are plain integer literals in range, [Float]
    otherwise; [null] inside number position is the emitter's NaN. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [Obj], [None] on
    missing keys and non-objects. *)

val to_int_opt : t -> int option
(** [Int] directly, or an integral [Float]. *)

val to_float_opt : t -> float option
(** [Float] directly, or any [Int]. *)

val to_string_opt : t -> string option
