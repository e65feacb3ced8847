(** Shared execution state and native-method implementations.

    The reference interpreter, the bytecode VM, and the closure backend
    all execute against a [Machine.t]: heap, static storage, cost
    counter, console, ASR port states, and the hierarchical instant log.
    Native methods ([Math], [System.out], [Thread], [ASR], [JTime]) are
    implemented here once. *)

type instant = { label : string; mutable subs : instant list }

type t = {
  tab : Mj.Symtab.t;
  heap : Heap.t;
  statics : (string * string, Value.t ref) Hashtbl.t;
      (** one cell per static field; compiled code holds the cell, so a
          restore writes into the existing cells *)
  instances : (string, Heap.layout * Value.t array) Hashtbl.t;
      (** per class: slot layout and default field values *)
  cost : Cost.t;
  console : Buffer.t;
  asr_ports : (int, ports) Hashtbl.t;
  mutable instant_stack : instant list;
  root : instant;
  mutable invoke_run : Value.t -> unit;
      (** engine callback used by [Thread.start]; installed by the engine *)
  mutable call_depth : int;
  mutable max_call_depth : int;
      (** frames allowed before the engines raise a stack-overflow
          {!Heap.Runtime_error} (default 4096) *)
}

and ports = {
  mutable n_in : int;
  mutable n_out : int;
  mutable inputs : Value.t option array;
  mutable outputs : Value.t option array;
}

val create :
  ?tariff:Cost.tariff ->
  ?profile:Telemetry.Profile.t ->
  ?lines:Telemetry.Lines.t ->
  Mj.Symtab.t ->
  t
(** Fresh machine with static storage defaulted (initializers are the
    engine's job, since they require evaluation). *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Heap.Runtime_error} with a formatted message. *)

val as_int : Value.t -> int
val as_double : Value.t -> float
val as_bool : Value.t -> bool

val coerce : Mj.Ast.ty -> Value.t -> Value.t
(** Implicit int-to-double widening into a typed slot. *)

val static_cell : t -> string -> string -> Value.t ref option
val static_get : t -> string -> string -> Value.t
val static_set : t -> string -> string -> Value.t -> unit

(** {1 Operations shared by the engines} *)

val is_compare : Mj.Ast.binop -> bool

val int_arith : Mj.Ast.binop -> int -> int -> int
(** Java [int] arithmetic, wrapping; raises on division by zero and on
    comparison or logical operators. *)

val int_compare : Mj.Ast.binop -> int -> int -> bool
val double_arith : Mj.Ast.binop -> float -> float -> float
val double_compare : Mj.Ast.binop -> float -> float -> bool

val int_op : Mj.Ast.binop -> int -> int -> Value.t
(** {!int_arith} or {!int_compare}, boxed. *)

val double_op : Mj.Ast.binop -> float -> float -> Value.t

val alloc_instance : t -> string -> Value.t
(** Charge and allocate an instance of the class with default field
    values (constructors are the engine's job). *)

val alloc_array : t -> Mj.Ast.ty -> int -> Value.t
(** [new elem[n]]: charge and allocate, after rejecting a negative [n]
    with a "negative array size" error (nothing charged). *)

val alloc_multi : t -> Mj.Ast.ty -> int list -> Value.t
(** [new elem[d1][d2]...], charging each level's allocation. Every
    dimension is checked before the first charge, as in
    {!alloc_array}. *)

val check_cast : t -> Mj.Ast.ty -> Value.t -> Value.t
(** Identity, or a "class cast exception" error for an object of a
    class outside the target's subtree. *)

val array_store : t -> int -> int -> Value.t -> checked:bool -> Value.t
(** Store into an array cell, widening into the element type; returns
    the stored value. [checked:false] skips the modelled bounds check. *)

type native = Value.t -> Value.t list -> Value.t
(** A native method applied to its receiver ([Null] for statics) and
    arguments. *)

val resolve_native : t -> defining:string -> mname:string -> native
(** Match a native once; the result brackets each application as a
    method (profile and line table), charges the native tariff, and
    raises for unknown natives or arguments that do not fit. *)

val native_call :
  t -> defining:string -> mname:string -> Value.t -> Value.t list -> Value.t
(** [resolve_native] then apply. *)

val enter_frame : t -> unit
(** Engines bracket every MJ method/constructor body with
    [enter_frame]/[leave_frame]; exceeding [max_call_depth] raises. *)

val leave_frame : t -> unit

val ports_of : t -> Value.t -> int * int
val set_input : t -> Value.t -> int -> Value.t option -> unit
val output_port : t -> Value.t -> int -> Value.t option
val clear_io : t -> Value.t -> unit

val instant_root : t -> instant

val collect : t -> Value.t list -> unit
(** Reclaim the heap cells unreachable from the static fields, every
    ASR port owner and its port values, and the given extra roots
    ({!Heap.collect}). A no-op while {!Threads.run} is active: threads
    not yet joined may hold references no root shows. Call it only
    between executions, when no engine frame holds a reference. *)

val int_array : t -> Value.t -> int array
val make_int_array : t -> int array -> Value.t
