(** The load-time bytecode verifier both engines share — a type-inferring
    pass in the style of the JVM's (JVMS §4.10), run once per method.

    From pc 0, seeded with the receiver and the declared parameter
    types, it finds the operand-stack depth before every reachable
    instruction, the type of every operand entry there, and the type of
    each local on entry and wherever it is loaded. Types come from the
    bytecode alone — constants,
    the typed operators, conversions and parameter types. Field, static,
    array-element and call results are [Boxed], and so is any slot that
    holds different types on different paths.

    Slots are typed by web: every copy of a value ([Load], [Store],
    [Dup*], [Checkcast], and a live slot crossing a control-flow edge)
    has the type of the value copied, so a type never changes between
    two program points without an instruction that computes a new value.
    The engines can therefore keep each slot in one unboxed lane (ints
    and booleans, doubles, or boxed values) and never convert on a jump.

    A method is rejected with [Heap.Runtime_error "verify: ..."] when an
    instruction would pop more than the stack holds, two paths reach an
    instruction at different depths, an operand has the wrong type for
    its typed operator, a local may be read on some path before it is
    written, a local slot or jump target lies outside the method, the
    method declares more than {!max_locals} locals, or control falls off
    the end of the code. *)

type ty =
  | Int
  | Bool
  | Double
  | Boxed  (** a [Value.t]: references, strings, and values of unknown type *)

type t

val max_locals : int
(** 65,535, the most a JVM class file can declare ([max_locals] is a
    u2). The verifier's tables and every frame grow with the count, so a
    damaged or hostile image must not choose it freely. *)

val verify : this:bool -> Instr.method_code -> t
(** [this]: slot 0 holds a receiver and the parameters follow it;
    otherwise the parameters start at slot 0. *)

val frame_locals : t -> int
(** Slots before the operand stack: [mc_nlocals], with room for a
    receiver and every parameter whatever [mc_nlocals] says. *)

val max_stack : t -> int

val depth : t -> int -> int
(** Operand entries before [pc]; [-1] when [pc] is unreachable. *)

val slot : t -> int -> int -> ty
(** [slot v pc i]: the type of frame slot [i] before [pc] — operand
    entry [i - frame_locals v] (bottom first) when [i >= frame_locals v],
    else a local, which is typed on entry ([pc = 0]) and where a [Load]
    reads it. [pc] must be reachable. *)

val top : t -> int -> int -> ty
(** [top v pc k]: the type of the operand [k] entries below the top
    before [pc] ([k = 0] is the top). *)

val result : t -> int -> ty
(** Type of the entry the instruction at [pc] leaves on top of the
    stack (the top before [pc + 1]). *)

val back_edges : t -> int
(** Reachable jumps whose target is at or before the jump. *)

val back_edge : t -> int -> int
(** [back_edge v pc]: the index in [[0, back_edges v)] of the jump at
    [pc] when it jumps backwards, else [-1]. *)
