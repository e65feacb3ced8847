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
    - {!Worklist} — seed every block once, in the schedule's linear
      order, then re-evaluate a block only when one of its input nets
      actually changed (driven by the [c_consumers] reverse index).
    - {!Fused} — execute a {!Fuse} plan compiled ahead of time from the
      schedule: acyclic blocks become direct slot operations (standard
      cells as allocation-free closures, constants folded into the
      instant template), cyclic SCCs fall back to bounded lub-iteration.
      Same single-application acyclic semantics as [Scheduled].

    Caveat on non-monotone blocks: chaotic iteration re-applies blocks
    whose inputs rose and therefore observes retraction
    ({!Nonmonotonic}). [Scheduled], [Worklist] and [Fused] apply an
    acyclic block exactly once, after all its producers, with final
    inputs (the worklist's schedule-order seed reaches an acyclic block
    only once its inputs have settled), so a non-monotone block in
    acyclic position silently yields its value at those inputs; inside
    cyclic components every strategy detects retraction. *)

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

type plan
(** One prepared evaluation of a compiled graph under one strategy: the
    graph, the strategy, its chaotic order or worklist seed, the
    schedule, the fused plan, per-block scratch and the net buffer,
    built once by {!prepare} and reused by every {!eval}. A plan is
    mutable scratch: one caller at a time. {!Simulate} and {!Compose}
    each prepare one per simulator or abstraction. *)

val prepare : ?order:int array -> strategy -> Graph.compiled -> plan
(** [order] permutes chaotic block evaluation (default: declaration
    order); with any other strategy it raises [Invalid_argument]. The
    {!Schedule} is computed here; [Worklist] seeds its queue in the
    schedule's linear order, and under [Fused] the {!Fuse} plan is
    compiled here from it. *)

val graph : plan -> Graph.compiled

val strategy : plan -> strategy

val schedule : plan -> Schedule.t

val fused : plan -> Fuse.t option
(** [Some] exactly under [Fused]. *)

val nets : plan -> Domain.t array
(** The plan's net buffer: the last {!eval}'s fixed point (all ⊥ before
    the first), aliased by its {!result}. *)

val eval :
  plan ->
  inputs:(string * Domain.t) list ->
  delay_values:Domain.t array ->
  ?probe:Probe.t ->
  unit ->
  result
(** One instant. [delay_values.(i)] is the output of the i-th delay
    this instant. Unknown input names raise [Invalid_argument]; inputs
    not mentioned are ⊥ (absent). The result aliases the plan's net
    buffer, so a caller must consume it before the next call.

    [probe] observes the evaluation and owns the instant (see
    {!Probe}): [instant_begin] fires once the inputs and delay outputs
    are bound, [instant_end] once the fixpoint settled. When the probe
    watches applications ({!Probe.observes_applications}), every block
    application passes through its hooks — supervision
    ({!Supervisor.probe}) guards each application and contains
    retractions that would otherwise raise {!Nonmonotonic};
    {!Probe.counter} counts applications per block; {!Probe.causal}
    records the evaluation into a causal log. Under [Fused] such a
    probe sees the plan's block-at-a-time ops: kernel steps still run
    in place, straight on the net slots, and only opaque blocks and
    cyclic components apply whole blocks. Folded blocks are never
    applied (they are constant and cannot fault), and evaluation counts
    are the same with or without a probe. Without a probe, or with one
    that has instant hooks only, [Fused] runs the chain-collapsed fast
    lane. *)

val outputs : Graph.compiled -> result -> (string * Domain.t) list

val delay_next : Graph.compiled -> result -> Domain.t array
(** Values presented to each delay's input this instant — the delays'
    outputs for the next instant. *)

val delay_next_into : Graph.compiled -> result -> Domain.t array -> unit
(** In-place {!delay_next}: overwrite [dst] (one slot per delay) with
    the values presented to each delay's input this instant. The
    allocation-free form for per-instant reaction loops. *)
