(** Reference interpreter for checked MJ programs (big-step).

    Deterministic except when a {!Threads} scheduler is active, in which
    case statement interleaving follows the scheduler's policy — the
    paper's Fig. 6/8 nondeterminism. Shares all machine state (heap,
    statics, cost, console, ASR ports, instants) with the other engines
    through {!Machine}. *)

type t

val create :
  ?profile:Telemetry.Profile.t ->
  ?lines:Telemetry.Lines.t ->
  Mj.Typecheck.checked ->
  t
(** Build a session: allocates static storage and runs static field
    initializers ("loading, linking and initialization"), charging
    {!Cost.interpreter_tariff}. [profile]
    observes every cycle from creation on (see {!Cost.create}); [lines]
    likewise receives an exact per-source-line attribution, driven by
    the AST locations the evaluator walks. *)

val machine : t -> Machine.t

val symtab : t -> Mj.Symtab.t

val heap : t -> Heap.t

val cycles : t -> int

val output : t -> string

val new_instance : t -> string -> Value.t list -> Value.t

val call : t -> Value.t -> string -> Value.t list -> Value.t
(** Dynamically-dispatched instance method call. *)

val call_static : t -> string -> string -> Value.t list -> Value.t

val run_main : t -> string -> unit
(** Invoke the static void [main()] method of a class. *)
