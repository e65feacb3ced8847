(** Fixed-point semantics of a single instant (paper §3, after Edwards).

    All nets start at ⊥; environment inputs and delay outputs are then
    fixed, and blocks are evaluated until no net changes. Monotone
    blocks over the finite-height domain guarantee convergence to the
    least fixed point, independent of evaluation order — that
    order-independence is ASR determinism, and tests randomize [order]
    to check it.

    Four evaluation strategies compute the same least fixed point:

    - {!Chaotic} — re-evaluate every block on every sweep until a sweep
      changes nothing. O(blocks × nets) applications; the reference
      oracle the others are differentially tested against.
    - {!Scheduled} — follow a precompiled {!Schedule}: acyclic blocks
      run exactly once in topological order; only delay-free cyclic
      components iterate (bounded by their net count).
    - {!Worklist} — seed every block once, then re-evaluate a block
      only when one of its input nets actually changed (driven by the
      [c_consumers] reverse index).
    - {!Fused} — execute a {!Fuse} plan compiled ahead of time from the
      schedule: acyclic blocks become direct slot operations (standard
      cells as allocation-free closures, constants folded into the
      instant template), cyclic SCCs fall back to bounded lub-iteration.
      Same single-application acyclic semantics as [Scheduled].

    Caveat on non-monotone blocks: chaotic iteration and the worklist
    re-apply blocks whose inputs rose and therefore observe retraction
    ({!Nonmonotonic}). [Scheduled] and [Fused] apply an acyclic block
    exactly once, with final inputs, so a non-monotone block in acyclic
    position silently yields its value at those inputs; inside cyclic
    components every strategy detects retraction. *)

type result = {
  nets : Domain.t array;        (** value of every net at the fixed point *)
  iterations : int;             (** chaotic: full sweeps until convergence;
                                    scheduled/fused: deepest
                                    cyclic-component round count (1 if
                                    feed-forward); worklist: most
                                    evaluations of any single block *)
  block_evaluations : int;      (** total block applications (fused:
                                    folded blocks apply zero times) *)
}

type strategy = Chaotic | Scheduled | Worklist | Fused

val strategy_name : strategy -> string

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name} (CLI parsing). *)

exception Nonmonotonic of string
(** A block changed or retracted a defined output during iteration, or
    iteration exceeded the theoretical bound — the block function is not
    monotone. *)

type buffers
(** Preallocated per-block scratch: input vectors, result vectors and
    one application step per block. *)

val make_buffers : Graph.compiled -> buffers
(** Preallocate per-block scratch. {!eval} allocates a fresh set per
    call unless one is supplied; {!Simulate} and {!Compose} allocate
    once and reuse across instants. *)

val eval :
  Graph.compiled ->
  inputs:(string * Domain.t) list ->
  delay_values:Domain.t array ->
  ?order:int array ->
  ?strategy:strategy ->
  ?schedule:Schedule.t ->
  ?fuse:Fuse.t ->
  ?buffers:buffers ->
  ?nets:Domain.t array ->
  ?probe:Probe.t ->
  unit ->
  result
(** [delay_values.(i)] is the output of the i-th delay this instant.
    Unknown input names raise [Invalid_argument]; inputs not mentioned
    are ⊥ (absent).

    [strategy] defaults to [Chaotic]. [order] permutes chaotic block
    evaluation (default: declaration order) and is rejected under the
    other strategies. [schedule] supplies a precompiled schedule
    ([Scheduled] computes one on the fly otherwise; [Worklist] uses it
    only as its seed order, defaulting to declaration order; [Fused]
    uses it when compiling a plan on the fly).

    [fuse] supplies a precompiled {!Fuse} plan (only meaningful with
    [Fused], which otherwise compiles one per call — precompile for
    per-instant use). A plan whose net/block counts disagree with the
    graph raises [Invalid_argument].

    [buffers] supplies preallocated per-block scratch (see
    {!make_buffers}); a fresh set is allocated per call otherwise.

    [nets] optionally supplies a preallocated buffer of length [n_nets]
    that is cleared and reused — the returned {!result} aliases it, so
    callers reusing a buffer across instants must consume the result
    before the next call.

    [probe] observes the evaluation (see {!Probe}): its instant hooks
    bracket the call, and every block application passes through its
    application hooks — supervision ({!Supervisor.probe}) guards each
    application and contains retractions that would otherwise raise
    {!Nonmonotonic}; {!Probe.counter} counts applications per block;
    {!Probe.causal} records the evaluation into a causal log. Under
    [Fused] a probe sees the plan's block-at-a-time ops: kernel steps
    still run in place, straight on the net slots, and only opaque
    blocks and cyclic components apply whole blocks. Folded blocks are
    never applied (they are constant and cannot fault), and evaluation
    counts are the same with or without a probe. Without a probe,
    [Fused] runs the chain-collapsed fast lane. *)

val outputs : Graph.compiled -> result -> (string * Domain.t) list

val delay_next : Graph.compiled -> result -> Domain.t array
(** Values presented to each delay's input this instant — the delays'
    outputs for the next instant. *)

val delay_next_into : Graph.compiled -> result -> Domain.t array -> unit
(** In-place {!delay_next}: overwrite [dst] (one slot per delay) with
    the values presented to each delay's input this instant. The
    allocation-free form for per-instant reaction loops. *)
