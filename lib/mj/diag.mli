(** Diagnostics raised and collected by the MJ frontend and analyses. *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  loc : Loc.t;
  message : string;
}

exception Compile_error of t
(** Raised by phases that cannot continue (lexer, parser, resolver). *)

val error : ?loc:Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format and raise a {!Compile_error}. *)

val make : severity -> Loc.t -> string -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
