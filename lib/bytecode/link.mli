(** Name resolution shared by the bytecode engines.

    A call names its target by class and method; resolution walks the
    class chain once per (class, method) and remembers the answer: the
    engine's form of the compiled body ([Code]), or a native matched
    once by {!Mj_runtime.Machine.resolve_native}. Each compiled body is
    loaded into the engine's form once, however many classes inherit
    it. *)

type 'code target = Code of 'code | Native of Mj_runtime.Machine.native

type 'code t

val create :
  Compile.image ->
  Mj_runtime.Machine.t ->
  load:(this:bool -> Instr.method_code -> 'code) ->
  'code t
(** [load] turns a method body into the engine's form; it is called at
    most once per body, when a call first resolves to it. [this] says
    whether the body takes a receiver in slot 0: constructors and
    instance methods do, static methods do not. A [load] that raises
    (a body the verifier rejects) fails the call, and is tried again
    by the next one. *)

val target : 'code t -> string -> string -> 'code target
(** [target l cls mname]: dynamic dispatch from [cls] upward. Raises
    {!Mj_runtime.Heap.Runtime_error} when the method is missing or has
    no code; failures are not remembered. *)

val ctor : 'code t -> string -> int -> 'code
(** Constructor of a class by arity; raises when there is none. *)
