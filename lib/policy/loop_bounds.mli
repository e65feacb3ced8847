(** Loop-bound analysis (paper §4.3).

    [while]/[do-while] are forbidden outright. [for] loops are admitted
    when the iteration count is calculable: integer index with constant
    initial value, relational exit test against a compile-time constant
    (literal, [static final], or known field-array length), constant
    step, and an index that the body never modifies. *)

type bound_result =
  | Bounded of int      (** iteration count *)
  | Index_modified of string
  | Unrecognized of string

val for_bound :
  ?enclosing:Mj.Ast.stmt list ->
  Analysis.Facts.t ->
  Mj.Ast.stmt ->
  bound_result
(** Analyze a [For] statement ([Invalid_argument] on other kinds). The
    syntactic recognizer runs first; on [Unrecognized] the interval
    analysis over [enclosing] (the surrounding method body, defaulting
    to the loop alone) gets a chance to bound the loop — it sees
    constants flowing through locals and affine limit arithmetic the
    syntactic shape misses. The summary of [enclosing] is memoized in
    the program's context, so the loops of one body share it. *)

val syntactic_for_bound : Analysis.Facts.t -> Mj.Ast.stmt -> bound_result
(** The purely syntactic recognizer alone (no interval fallback). *)

val while_convertible : Analysis.Facts.t -> Mj.Ast.stmt -> bool
(** True when the SFR catalogue's while-to-for transformation applies:
    [while (i REL limit) { ...; i += c; }] with the step as the last
    statement and [i] otherwise unmodified. *)

val while_parts :
  Analysis.Facts.t ->
  Mj.Ast.stmt ->
  (string * Mj.Ast.expr * Mj.Ast.expr * Mj.Ast.stmt list) option
(** (index, condition, update expression, body prefix) when
    {!while_convertible}; also accepts [Do_while] statements of the same
    shape (the entry check is the caller's business). *)

val exit_test :
  Analysis.Facts.t ->
  index:string ->
  Mj.Ast.expr ->
  (Mj.Ast.binop * int) option
(** The relational exit test [index REL constant] of a condition. *)
