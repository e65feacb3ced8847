(** Runtime values of MJ programs. References index into a {!Heap.t}. *)

type t =
  | Int of int      (** 32-bit wrapping integer *)
  | Double of float
  | Bool of bool
  | Str of string
  | Null
  | Ref of int

val wrap32 : int -> int
(** Normalize to Java [int] two's-complement range. *)

val d2i : float -> int
(** Java's double-to-int narrowing: saturating at the ends of the int
    range, [0] for NaN, truncation toward zero otherwise. *)

val default : Mj.Ast.ty -> t
(** Zero/false/null default for a declared type. *)

val to_display : t -> string
(** Rendering used by [println] and string concatenation; matches Java
    conventions for the types MJ has. *)

val equal : t -> t -> bool
(** Identity semantics of MJ [==]: numeric comparison for numbers,
    reference identity for objects and arrays, content for strings. *)

val pp : Format.formatter -> t -> unit
