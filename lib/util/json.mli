(** Minimal JSON values, stdlib only.

    A hand-rolled emitter (and a small strict parser, used by the tests and
    by tools that validate the checker's own output) for the machine-readable
    reports of the observability layer. Not a general-purpose JSON library:
    numbers are OCaml [int]/[float], strings are assumed to carry UTF-8, and
    object member order is preserved as given. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val add_int : Buffer.t -> int -> unit
(** Append the decimal form of [i] — [string_of_int] without the
    intermediate string. Hot on the telemetry event stream. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. [~pretty:true] indents objects and arrays by two spaces.
    Non-finite floats are emitted as [null] (JSON has no representation for
    them); finite floats round-trip exactly. Strings escape double quotes,
    backslashes and control characters below 0x20; other bytes pass
    through unchanged. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string ~pretty:true v] and a trailing
    newline to [path]. *)

val max_depth : int
(** 1024: the deepest nesting of arrays and objects {!of_string} accepts.
    The checker's own documents nest about ten deep. *)

val of_string : string -> (t, string) result
(** Strict parser for the subset this module emits (which is all of JSON
    except exotic number forms): no trailing garbage, no duplicate-key
    checking, nesting at most {!max_depth} deep. Numbers without [.], [e]
    or [E] parse as [Int]. *)

val equal : t -> t -> bool
(** Structural equality; [Float] compared bitwise (so NaN = NaN), object
    members compared in order. *)
