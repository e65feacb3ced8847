(** Cooperative green threads for the MJ reference interpreter, built on
    OCaml effect handlers.

    Java threads are the paper's source of nondeterminism (Fig. 6 and
    Fig. 8): the interleaving of statements from different threads is
    schedule-dependent. The scheduler here makes that explicit — a
    [Round_robin] policy and seeded pseudo-random policies each define one
    interleaving, and different seeds exhibit different program outcomes
    for racy programs. *)

type policy =
  | Round_robin
  | Seeded of int  (** pseudo-random runnable pick, reproducible per seed *)

type port_value =
  | Scalar of Value.t  (** an int, [null], or a reference to a non-array *)
  | Elements of Value.t array
      (** an array's contents, copied at the access: a later in-place
          update of the array does not change the recorded event *)

type access =
  | Read_static of { cls : string; field : string }
  | Write_static of { cls : string; field : string; value : Value.t }
  | Port of { native : string; port : int; value : port_value }
      (** a port native ([readPort], [writePortArray], ...) on a port
          index, with the value read or written *)

type event = { thread : int; access : access }
(** A trace entry; [thread] is the heap reference of the Thread object
    (or [-1] for the main thread). Instance-field accesses are not
    recorded. *)

val description : event -> string
(** The event as text: ["read C.f"], ["write C.f = 3"],
    ["writePortArray(0, [3;4])"]. *)

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spawn : int * (unit -> unit) -> unit Effect.t
  | Join : int -> unit Effect.t

exception Deadlock of string
(** Raised when every live thread is blocked in [join]. *)

val active : unit -> bool
(** True while {!run} is executing; interpreters must only perform
    thread effects when active. *)

val current : unit -> int
(** Id of the currently running thread; [-1] outside {!run}. *)

val note : access -> unit
(** Append a trace event for the current thread (no-op when inactive).
    Callers building an access guard on {!active}, so the path outside
    {!run} allocates nothing. *)

val maybe_yield : unit -> unit
(** Preemption point: yields to the scheduler when active. *)

val run : policy:policy -> (unit -> unit) -> event list
(** Run [main] as the initial thread under the given policy until all
    spawned threads finish; returns the recorded trace. Not reentrant. *)

val last_run_branched : unit -> bool
(** Whether a pick of the last (or current) {!run} found two or more
    runnable threads — the only point where the policy chooses. Valid
    after {!run} returns or raises; the next {!run} clears it.

    When it is false the run is seed-independent: every pick had one
    candidate, so by induction over the picks every [Seeded] policy
    (and [Round_robin]) replays the same execution — the same trace,
    the same machine state and the same exception, if any. *)
