(** Program metrics over MJ ASTs — part of the JavaTime tooling for
    inspecting designs (size, decision structure, loop nesting). *)

type method_metrics = {
  mm_class : string;
  mm_member : string;  (** method name or "<init>/k" *)
  mm_statements : int;
  mm_expressions : int;
  mm_cyclomatic : int;  (** 1 + decision points (if/loops/&&/||/?:) *)
  mm_max_loop_depth : int;
  mm_calls : int;
  mm_allocations : int;
}

type program_totals = {
  pt_classes : int;
  pt_fields : int;
  pt_methods : int;
  pt_statements : int;
  pt_expressions : int;
}

val of_program : Ast.program -> method_metrics list
(** One entry per constructor and method body, declaration order. *)

val totals : Ast.program -> program_totals

val pp_table : Format.formatter -> method_metrics list -> unit
