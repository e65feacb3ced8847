(** Worst-case reaction-time bound (paper §4.3: "computation of the
    output must be bounded in time").

    Costs follow {!Mj_runtime.Cost.interpreter_tariff} and mirror the
    reference interpreter's per-node accounting, so a bound is a true
    upper bound on the cycles the {!Mj_runtime.Interp} engine charges
    for a reaction (the bytecode VM expands statements into several
    dispatched instructions and can exceed it by a constant factor).
    Bounds require an acyclic call graph and calculable loop bounds. *)

type bound =
  | Cycles of int
  | Unbounded of string  (** why: recursion, while loop, unknown bound… *)

val reaction_bound : Mj.Typecheck.checked -> cls:string -> bound
(** Bound of the [run] method an instance of the class enters: its own,
    or the one it inherits. Overrides in subclasses do not count; each
    subclass has its own bound. *)
