(** Conservative call graph over a checked program.

    Nodes are methods ("Class", "name") and constructors
    ("Class", "<init>/arity"). Dynamically dispatched calls add edges to
    the statically resolved method and to every override in subclasses.
    Field-initializer code is attributed to every constructor of its
    class. *)

type node = string * string

type t

val build : Mj.Typecheck.checked -> t

val nodes : t -> node list

val callees : t -> node -> node list

val reachable : t -> roots:node list -> node list
(** Includes the roots. *)

val recursive_nodes : t -> node list
(** Nodes on a call cycle ("circular method invocation"), with a
    representative location for each. *)

val node_loc : t -> node -> Mj.Loc.t

val method_node : string -> string -> node

val node_name : node -> string
