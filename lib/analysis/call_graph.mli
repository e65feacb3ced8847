(** Conservative call graph over a checked program: what can run once a
    method or a constructor is entered. Every analysis that asks that
    question — the policy rules on the reactive phase and on recursion,
    the SDF port rules, the reaction-time bound, the shared-field race
    detector, the purity check behind [Elaborate.to_block] and the
    array-port probe of [Verify.input_kinds] — asks it here.

    Nodes are methods ("Class", "name") and constructors
    ("Class", "<init>/arity"), builtins included, each with the bodies it
    runs itself:
    - a method node runs its body (none when it is native);
    - a constructor node runs its class's instance field initializers,
      then its body. A class that declares no constructor gets the
      implicit no-argument one, with no body statements.

    Edges:
    - A call names the method it resolves to, in the class that defines
      it; a non-static call also names every override of that method in
      a subclass (dynamic dispatch). Static calls have no overrides.
    - A [new C(...)] names [C]'s constructor of that arity.
    - A constructor names its superclass constructor: the one an explicit
      [super(...)] selects, else the implicit no-argument one.

    Roots are the nodes an instance enters ({!method_node},
    {!constructors}): the reaction of a class is the [run] it defines or
    inherits, without its subclasses' overrides. *)

type node = string * string

type t

val build : Mj.Typecheck.checked -> t

val method_node : t -> string -> string -> node option
(** [method_node t cls name] is the method [name] an instance of [cls]
    runs: a member that [cls] only inherits resolves to the class that
    defines it ({!Mj.Symtab.lookup_method}). [None] when no class on the
    chain defines it. *)

val constructors : t -> string -> int -> node list
(** The constructors [new cls(...)] with that many arguments runs: the
    class's own, then each superclass constructor in turn up to the root.
    [[]] when the class has no constructor of that arity. *)

val bodies : t -> node -> Mj.Visit.body list
(** The code the node runs itself (not its callees). *)

val call_targets : t -> Mj.Ast.call -> node list
(** The methods a call can enter: [[]] when the call is unresolved, else
    the resolved method, then its overrides unless the call is static. *)

val reachable : t -> roots:node list -> node list
(** Declared nodes reachable from the roots, roots included, in
    declaration order. *)

val recursive_nodes : t -> node list
(** Nodes on a call cycle ("circular method invocation"), with a
    representative location for each. *)

val node_loc : t -> node -> Mj.Loc.t

val node_name : node -> string
