(** Minimal dependency-free JSON: the one codec every [ximd-*] report,
    Chrome trace and farm record goes through.

    It parses line-delimited job specs and prints byte-stable result
    records; the hand-rolled emitters elsewhere in the tree (metrics,
    diagnostics, campaign and scheduler reports, Chrome traces) write
    their numbers with [Printf] but quote every string that is not a
    fixed key with {!quote} or {!escape_into}, so all of them escape
    identically and parse back through {!parse}.

    Objects preserve field order (parse order in, given order out), so
    printing is deterministic — the property the farm's golden result
    streams rely on.  Integers that fit an OCaml [int] parse as [Int];
    anything with a fraction or exponent parses as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses one JSON document.  Errors name the byte offset and what was
    expected; trailing non-whitespace after the document is an error. *)

val to_string : t -> string
(** Compact (no whitespace) rendering; object fields in list order;
    strings escaped by {!escape_into}. *)

val escape_into : Buffer.t -> string -> unit
(** Appends [s] escaped for use inside a JSON string literal, without
    the surrounding quotes.  The double quote, the backslash, newline,
    carriage return and tab get their two-character escapes, the other
    control characters [\u00XX]; every other byte, UTF-8 included, is
    copied as is. *)

val quote : string -> string
(** [s] as a JSON string literal, quotes included. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else or when absent. *)

val keys : t -> string list
(** Field names of an [Obj], in order; [[]] on anything else. *)

val to_int : t -> int option
(** [Int n] (and [Float f] when integral) as an int. *)

val to_str : t -> string option
val to_bool : t -> bool option
