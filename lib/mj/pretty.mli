(** Pretty-printer for MJ syntax. Output re-parses to an equal AST. *)

val pp_class : Format.formatter -> Ast.class_decl -> unit

val program_to_string : Ast.program -> string

val expr_to_string : Ast.expr -> string

val stmt_to_string : Ast.stmt -> string
