(** Elaboration: embedding a policy-compliant MJ design in the ASR model
    (paper §4.2, Fig. 7).

    An instance of an MJ class extending [ASR] looks like a black box to
    its environment: present inputs on its ports, invoke [run], collect
    outputs — one reaction per instant. Elaboration constructs the
    instance (the initialization phase), switches the heap to the
    reactive phase (optionally arming bounded-memory enforcement), and
    wraps the reaction protocol for the ASR simulator. *)

type engine = Engine_interp | Engine_vm | Engine_jit

type t

val elaborate :
  ?engine:engine ->
  ?enforce_policy:bool ->
  ?bounded_memory:bool ->
  ?gc_threshold:int ->
  ?heap_limit_words:int ->
  ?elide_bounds_checks:bool ->
  ?profile:Telemetry.Profile.t ->
  ?cost_lines:Telemetry.Lines.t ->
  Mj.Typecheck.checked ->
  cls:string ->
  t
(** Defaults: VM engine, policy enforced (raises [Invalid_argument] on a
    non-compliant program), bounded memory armed (reactive-phase
    allocation raises), garbage collection disabled, bounds checks
    kept. The class is constructed with no arguments. [gc_threshold]
    (in heap words) arms the JDK-style collector: reactive allocation
    beyond the threshold charges a pause proportional to the
    approximate live size.
    [heap_limit_words] arms a fixed heap capacity on the machine
    ({!Mj_runtime.Heap.set_limit_words}); allocation past it raises
    [Runtime_error "heap exhausted: ..."], which {!fault_classifier}
    maps to {!Asr.Supervisor.Heap_exhausted}. [elide_bounds_checks] runs the interval analysis and compiles
    statically safe array accesses to unchecked instructions (bytecode
    engines only; the interpreter ignores it). [profile] is attached
    to the engine's cost meter at creation, so it reconciles exactly
    with {!total_cycles} — initialization included.
    [cost_lines] is a per-source-line attribution table with the same
    exact-reconciliation property. *)

val ports : t -> int * int
(** Input and output port counts declared during initialization. *)

val init_cycles : t -> int
(** Cost cycles spent in loading, linking and construction. *)

val react : t -> Asr.Domain.t array -> Asr.Domain.t array
(** One instant: marshal inputs onto ports, invoke [run], collect
    outputs. ⊥ inputs are absent ([portPresent] is false); an output
    port left unwritten or last written [null] is ⊥. When the reaction
    ends, normally or by an exception, the heap cells unreachable from
    the statics, the port owners and their values, and the instance are
    reclaimed ({!Mj_runtime.Machine.collect}; skipped inside
    {!Mj_runtime.Threads.run}). *)

val deadline : before:int -> budget:int -> int
(** The meter reading at which a reaction started at [before] with
    [budget] cycles trips the watchdog: [before + budget], saturated to
    [[min_int, max_int]] so a budget near [max_int] never wraps. *)

val react_bounded :
  t -> budget_cycles:int -> Asr.Domain.t array -> Asr.Domain.t array
(** Like {!react} but with a watchdog: the reaction may spend at most
    [budget_cycles] (e.g. the static bound from
    {!Policy.Time_bound.reaction_bound}); exceeding it raises
    {!Mj_runtime.Cost.Budget_exceeded}. For a policy-compliant design
    driven under its own static bound this never fires — the test suite
    checks exactly that. *)

val last_reaction_cycles : t -> int

val total_cycles : t -> int

val machine : t -> Mj_runtime.Machine.t

val console : t -> string

val to_block : ?budget_cycles:int -> t -> Asr.Block.t
(** The design as an ASR functional block, for composition into graphs.
    Requires the [run] method (and everything it calls) to be free of
    field and static writes — the fixed-point iteration may apply a
    block several times per instant, which is only sound for stateless
    reactions. Raises [Invalid_argument] for stateful designs; those are
    driven with {!react} (the Fig. 7 protocol) instead.

    [budget_cycles] meters every application with {!react_bounded}: the
    block raises [Cost.Budget_exceeded] instead of overrunning — under a
    {!Asr.Supervisor} created with {!fault_classifier} that trap is
    contained as a [Budget_exceeded] fault. Derive the budget from
    {!Policy.Time_bound.reaction_bound} when the design is refined. *)

val to_reapplicable_block :
  ?budget_cycles:int -> t -> Asr.Block.t * (unit -> unit)
(** Like {!to_block} but sound for *stateful* designs under any
    strategy, chaotic iteration included: the first application of an
    instant with every input defined runs the reaction, and every
    further application in the instant returns its outputs (nets only
    rise, so the inputs cannot have changed). N applications are
    indistinguishable from one — same outputs, same final heap, and the
    same cycle meter (the instant charges exactly one application,
    whatever the strategy). An application that raised leaves no
    outputs, so a supervisor's retry runs the reaction again from the
    state the failed attempt left. The second component announces an
    instant boundary; the caller calls it before each
    {!Asr.Simulate.step}/[run]. *)

val system : ?budget_cycles:int -> t -> Asr.Graph.t * (unit -> unit)
(** The design as a one-block ASR system named ["simulate:<cls>"]:
    environment inputs ["0"].. drive the {!to_reapplicable_block}
    block, whose outputs feed environment outputs ["0"].. — the system
    [javatime simulate] and [why] drive, and
    {!Verify.spec_stream}'s. The second component announces an instant
    boundary; the caller calls it before each step. *)

(** {2 Machine checkpointing}

    The embedder half of {!Asr.Checkpoint}: an elaborated design's
    complete machine state (heap, statics, ports, console, cycle
    meter), deep-copied or serialized. The ASR layer carries the JSON
    as an opaque payload; these are the functions that produce and
    apply it. *)

val machine_state : t -> Mj_runtime.Snapshot.t

val restore_machine_state : t -> Mj_runtime.Snapshot.t -> unit

val machine_state_json : t -> Telemetry.Json.t

val restore_machine_json : t -> Telemetry.Json.t -> unit
(** Raises [Invalid_argument] on malformed input. *)

val fault_classifier : exn -> (Asr.Supervisor.fault_class * string) option
(** Engine-aware fault classification for {!Asr.Supervisor.create}:
    [Cost.Budget_exceeded] is a budget fault, heap-capacity exhaustion
    and bounded-memory violations are heap faults, any other
    [Heap.Runtime_error] (bounds trap, null dereference, division by
    zero, bad cast) is an ordinary trap. Returns [None] for everything
    else, falling through to the supervisor's default classifier. *)

val writes_state : Mj.Typecheck.checked -> cls:string -> bool
(** The static purity check used by {!to_block}. *)
