(** Deterministic execution-cost accounting.

    Both execution substrates charge abstract cycles per operation so that
    timing-shaped results (Table 1) can be checked machine-independently.
    The tariff models a late-90s JVM: interpretation dispatch dominates,
    allocation is expensive, arithmetic is cheap. *)

type tariff = {
  dispatch : int;   (** per interpreted operation *)
  arith : int;
  load_store : int; (** local variable access *)
  field : int;
  array : int;      (** element access, bounds check included *)
  array_unchecked : int;
      (** element access whose bounds check was statically elided *)
  call : int;       (** invocation overhead *)
  alloc_base : int; (** per allocation *)
  alloc_word : int; (** per allocated word *)
  native : int;
  gc_base : int;    (** per collection pause *)
  gc_word : int;    (** per live word scanned during a collection *)
}

val interpreter_tariff : tariff
(** Models a bytecode interpreter (the paper's "Sun JDK 1.1.4"). *)

val jit_tariff : tariff
(** Models compiled code (the paper's "Café JIT"): dispatch eliminated. *)

type t

exception Budget_exceeded of int
(** Raised by {!charge} when a {!set_budget} limit is crossed; carries
    the cycle count at the moment of detection. Used as a runtime
    watchdog: a compliant reaction run under its static worst-case
    bound can never trip it. *)

val create :
  ?profile:Telemetry.Profile.t -> ?lines:Telemetry.Lines.t -> tariff -> t
(** [profile] is the deterministic per-method profiler: the engines
    bracket every method body with {!enter_method}/{!leave_method}, so
    a profile attached at machine creation sees every cycle from load
    time onward, each attributed to the innermost open method, and
    reconciles exactly with {!cycles}. Allocations and GC pauses are
    reported to it in addition to (not instead of) their charges.
    [lines] is the per-source-line table, with the same property. *)

val set_budget : t -> int option -> unit
(** Absolute cycle count the meter may not exceed; [None] disables. *)

val lines_on : t -> bool
(** Whether a line table is attached — engines with per-instruction
    position updates check this once per frame and skip the updates
    entirely when disabled. *)

val lines : t -> Telemetry.Lines.t option

val tariff : t -> tariff

val observed : t -> bool
(** Whether a profile, a line table or a budget watches the meter: then
    every charge must be made on its own, at its own line. *)

val advance : t -> int -> unit
(** Add cycles to the meter with no profile, line table or budget seeing
    them — several charges of one instruction at once. Only sound while
    {!observed} is false. *)

val charge_at : t -> Mj.Loc.t -> int -> unit
(** [charge_at t loc n] = [at_line t loc; charge t n], paying only the
    addition while nothing observes the meter. *)

val at_line : t -> Mj.Loc.t -> unit
(** Move the line profiler's position pointer to [loc]'s starting line.
    Dummy locations are ignored (charges stay on the last known line).
    One branch when no line table is attached. *)

val cycles : t -> int

val reset : t -> unit

val restore_cycles : t -> int -> unit
(** Set the meter to an absolute value (checkpoint restore). Unlike
    {!charge} this is not a charge: no budget check fires and no profile or
    line table observes it. *)

val charge : t -> int -> unit

val back_edge : t -> int array -> int -> unit
(** [back_edge t a k] is called by an engine each time a loop's back
    edge is taken, with the edge's two slots [a.(k)] and [a.(k + 1)] in
    the activation's frame ([a.(k)] holds [min_int] when the activation
    starts). With a budget set, it counts the takings in a row that find
    the meter where the previous one left it, and raises
    {!Budget_exceeded} when that count passes the cycles left before the
    budget. Such an iteration ran only instructions that charge nothing
    (loads, stores, constants, jumps, yield points): it changed no heap
    cell, static, port or console byte, only frame slots. A loop whose
    free iterations end, like [while (!b) { b = a; a = true; }], runs
    on; one that never ends trips after at most as many free iterations
    as a one-cycle-per-iteration tariff would take to reach the budget.
    The reading it carries is the meter at the trip, at or below the
    budget. Without a budget it does nothing. *)

val dispatch : t -> unit
val arith : t -> unit
val load_store : t -> unit
val field : t -> unit
val array : t -> unit
val array_unchecked : t -> unit
val call : t -> unit
val alloc : t -> words:int -> unit
val native : t -> unit
val gc : t -> live_words:int -> unit

val enter_method : t -> string -> unit
(** Notify the profile of a method entry. One branch when none is set. *)

val enter_method_in : t -> string -> string -> unit
(** [enter_method_in t cls name] = [enter_method t (cls ^ "." ^ name)],
    but only pays the concatenation when a profile is attached. *)

val leave_method : t -> unit

val bounds_trap : t -> unit
(** Record a bounds-check violation on the current source line (fired by
    the heap just before it raises). No cycle charge — the trap aborts
    the reaction. *)
