(** Class table: the "loading and linking" phase of an MJ program. All
    classes of a specification are bound at compile time (paper §4); the
    table merges user classes with the builtin library, validates the
    inheritance hierarchy, and provides member lookup with inheritance. *)

type t

val build : Ast.program -> t
(** Merge with builtins and validate: duplicate classes/members, unknown
    or cyclic superclasses, field shadowing of a superclass field, and
    override signature mismatches all raise {!Diag.Compile_error}. *)

val program : t -> Ast.program
(** All classes, builtins included. *)

val user_classes : t -> Ast.class_decl list

val find_class : t -> string -> Ast.class_decl option

val get_class : t -> string -> Ast.class_decl
(** Raises {!Diag.Compile_error} if absent. *)

val is_class : t -> string -> bool

val superclass : t -> string -> string option

val is_subclass : t -> sub:string -> super:string -> bool
(** Reflexive-transitive subclass test. *)

val subclasses : t -> string -> string list
(** Proper (transitive) subclasses of a class, in declaration order. *)

val lookup_method : t -> string -> string -> (string * Ast.method_decl) option
(** [lookup_method t cls name] walks the hierarchy upward from [cls];
    returns the defining class and declaration. *)

val lookup_field : t -> string -> string -> (string * Ast.field_decl) option

val lookup_ctor : t -> string -> int -> Ast.ctor_decl option
(** Constructor of the class itself (not inherited), selected by arity.
    A default zero-argument constructor is synthesized for classes that
    declare none. *)

val instance_fields : t -> string -> (string * Ast.field_decl) list
(** Instance fields in layout order, inherited fields first; each paired
    with its defining class. *)

val static_fields : t -> (string * Ast.field_decl) list
(** All static fields of all classes, paired with their defining class. *)

val ancestors : t -> string -> string list
(** The class itself followed by its superclasses, root last. *)

val replace_all : t -> Ast.class_decl list -> t
(** Rebuild the table with updated (e.g. resolved) declarations for the
    same set of class names. *)
