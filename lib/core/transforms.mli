(** The SFR transformation catalogue (paper §2, §5): program rewrites
    that move a design toward the ASR policy of use. Each transform is
    semantics-preserving on the programs it fires on; the test suite
    checks preservation by differential execution. *)

type t = {
  id : string;
  description : string;
  apply : Mj.Typecheck.checked -> Mj.Ast.program * int;
      (** rewritten user program and number of sites changed *)
}

val hoist_alloc : t
(** Constant-size array allocations in reactive methods move into the
    enclosing class's constructors as preallocated private fields; the
    allocation site becomes an aliasing declaration plus a zero-fill
    loop, preserving Java's fresh-array semantics. Only non-escaping
    arrays are hoisted. *)

val catalogue : t list
(** In application order. *)

val find : string -> t option
