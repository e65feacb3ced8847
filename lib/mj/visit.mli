(** Generic traversal helpers over MJ ASTs, used by the static analyses
    and transformations. *)

type body = {
  b_class : string;
  b_kind : kind;
  b_stmts : Ast.stmt list;
}

and kind =
  | Method of Ast.method_decl
  | Ctor of Ast.ctor_decl
  | Field_init of Ast.field_decl

val bodies : Ast.class_decl -> body list
(** All executable code of a class: field initializers (wrapped as a
    single expression statement), constructors, and method bodies. *)

val body_name : body -> string
(** "Class.method", "Class.<init>/2", or "Class.field=". *)

val iter_stmts : stmt:(Ast.stmt -> unit) -> expr:(Ast.expr -> unit) -> Ast.stmt list -> unit
(** Pre-order walk of every statement and every expression (including
    expressions nested inside other expressions and lvalues). *)

val iter_exprs : (Ast.expr -> unit) -> Ast.stmt list -> unit

val exists_expr : (Ast.expr -> bool) -> Ast.stmt list -> bool

val exists_stmt : (Ast.stmt -> bool) -> Ast.stmt list -> bool

val iter_expr : (Ast.expr -> unit) -> Ast.expr -> unit
(** Pre-order walk of one expression tree (including lvalue
    subexpressions). *)
