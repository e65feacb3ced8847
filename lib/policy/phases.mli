(** Phase split of a specification (paper §4): loading, linking and
    initialization describe the system's {e structure}; the code run by
    [run] methods is its reactive {e behaviour}. *)

val asr_classes : Mj.Typecheck.checked -> string list
(** User classes that (transitively) extend the [ASR] base class. *)

val reactive_bodies :
  Mj.Typecheck.checked -> Call_graph.t -> (Call_graph.node * Mj.Visit.body) list
(** Bodies of user-program methods/constructors reachable from the
    reactive roots. *)

val body_of_node : Mj.Typecheck.checked -> Call_graph.node -> Mj.Visit.body option
