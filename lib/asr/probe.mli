(** Instrumentation interface of {!Fixpoint.eval}: the one seam through
    which a run is observed from inside the least fixpoint (after
    Gaffé/Ressouche/Roy's modular compilation: compile the reaction
    once, instrument at its interface).

    A probe sees the instant open and close, and each block application
    as [enter], the application itself (through {!run}, which a
    guarding probe may wrap), and [leave]. Every attachment of a
    simulation is one implementation: supervision
    ({!Supervisor.probe}), per-block evaluation counting ({!counter}),
    causal recording ({!causal}), the telemetry registry's instant span
    and counters ({!registry}) and the streaming monitor ({!monitor});
    {!compose} stacks them. No hook allocates per application: the
    application is a step closure precompiled once per graph or plan,
    and its outputs are read back from the slots it wrote.

    {b Who owns the instant.} The probe does: an instant opens in
    [instant_begin] and closes in [instant_end], both fired by
    {!Fixpoint.eval}, so {!Simulate} drives no attachment itself. A
    fault that escapes the evaluation (fail-fast, a non-monotone block)
    skips [instant_end] and leaves the instant open.

    {b The fast lane.} {!Fixpoint.eval} runs its uninstrumented code
    unchanged — under [Fused], the chain-collapsed fast lane — whenever
    the probe has no application hook ({!observes_applications} is
    false): no probe, or one with instant hooks only, such as a
    monitor. *)

type step = Domain.t array -> unit
(** One application of a block: reads its input nets from the array it
    is given and leaves its outputs in place (in the net slots under
    [Fused], in a per-block result buffer elsewhere). *)

(** How the fixpoint consumed the outputs of an application. *)
type outcome =
  | Stored  (** stored straight into the output net slots (fused) *)
  | Merged  (** lub-merged into the nets; changed nets went to [write] *)
  | Retracted
      (** the merge hit a retraction that [retract] contained: the
          block is frozen at its nets' current values *)

type t = {
  instant_begin :
    Graph.compiled ->
    plan:Fuse.t option ->
    inputs:(string * Domain.t) list ->
    delay_values:Domain.t array ->
    unit;
      (** the instant's inputs and delay outputs are bound; [plan] is
          the fused plan under [Fused] *)
  instant_end :
    nets:Domain.t array -> iterations:int -> block_evaluations:int -> unit;
      (** the fixpoint settled at [nets]; [iterations] and
          [block_evaluations] as in {!Fixpoint.result} *)
  enter : int -> unit;  (** block [bi] is about to be applied *)
  guard :
    (int -> step -> Domain.t array -> Domain.t array -> int array -> unit)
    option;
      (** [g bi step nets dst slots] runs [step nets] in place of the
          plain application. The application's outputs are at
          [dst.(slots.(p))]; a guard that contains a fault writes its
          substitution there instead. At most one probe of a
          composition guards. *)
  retract : int -> Domain.t array -> int array -> string -> bool;
      (** [retract bi nets out_nets detail]: merging block [bi]'s
          outputs contradicted a defined net. [true] contains it (the
          block is frozen at its nets' current values); [false] lets
          {!Fixpoint.Nonmonotonic} propagate. *)
  write : int -> Domain.t -> unit;
      (** the open application established this net's value (merged
          applications only) *)
  leave : int -> Domain.t array -> outcome -> unit;
      (** block [bi]'s application is finished; [nets] are current *)
}

val none : t
(** The probe that observes nothing; the identity of {!compose}. *)

val run :
  t -> int -> step -> Domain.t array -> Domain.t array -> int array -> unit
(** [run p bi step nets dst slots]: the application as [p] wants it —
    through its guard, or plainly [step nets]. *)

val compose : t list -> t option
(** Stack probes: instant and application hooks fire in list order
    ([instant_end] in reverse), a retraction is contained if any probe
    contains it. [None] for the empty list. Raises [Invalid_argument]
    when more than one probe guards. *)

val observes_applications : t -> bool
(** Whether some hook of [p] watches block applications ([enter],
    [guard], [retract], [write] or [leave]). When none does,
    {!Fixpoint.eval} takes its unprobed path and fires only the instant
    hooks. *)

val counter : int array -> t
(** Count applications per block: entry [bi] is incremented on each
    application of block [bi]. The array must have one entry per block
    of the evaluated graph ([Invalid_argument] at [instant_begin]
    otherwise). *)

val causal :
  ?containment:(int -> string option) -> Domain.t Telemetry.Causal.t -> t
(** Record evaluations into a causal log: instant-start bindings
    (folded constants of the fused plan, driven inputs, delay
    crossings), then one event per application that established a net
    value, its reads resolved to their producers' uids. If no instant
    is open on the log, the evaluation is bracketed as one traced
    instant. [containment bi] tags a substituted application with its
    provenance (see {!Supervisor.containment}); a contained retraction
    is tagged ["contained:retraction"]. A tagged application that
    established nothing still records its output nets, so held and
    absent values keep their provenance. *)

(** {2 Instant probes}

    The registry and the monitor observe whole instants. They share a
    {!clock}: the simulator's instant index and the reference fixed point
    of net churn (nets whose value differs from the last scanned
    instant's), scanned at most once per instant however many probes
    read it. *)

type clock = {
  mutable instant : int;
      (** the instant being evaluated; the simulator advances it *)
  last : Domain.t array;  (** last scanned fixed point; [[||]] without
                              churn readers *)
  mutable scanned : int;  (** the instant [churn] was scanned at, or -1 *)
  mutable churn : int;
}

val clock : churn:bool -> int -> clock
(** [clock ~churn n_nets] at instant 0, with [n_nets] ⊥ reference nets
    when [churn]. *)

val churn : clock -> Domain.t array -> scan:bool -> int
(** This instant's churn of [nets]: the cached count if the instant was
    scanned, a fresh scan if [scan], else 0. *)

val registry :
  clock ->
  Telemetry.Registry.t ->
  Graph.compiled ->
  faults:(unit -> int) option ->
  t
(** Each instant is one ["instant"] span (args: instant index,
    fixpoint iterations, block evaluations, net churn scanned every
    instant, and [faults ()] when given), counters ["asr.instants"],
    ["asr.block_evaluations"] and ["asr.block.<name>.evals"] (one per
    block, created here), and the ["asr.fixpoint_iterations"]
    histogram. Per-block counting is an application hook, so a
    registry takes Fused off its fast lane. *)

val monitor :
  clock ->
  Telemetry.Monitor.t ->
  faults:(unit -> int) option ->
  escalated:(unit -> string list) option ->
  t
(** Brackets each instant with {!Telemetry.Monitor.instant_begin} /
    [instant_end], recording it under the clock's instant index with
    its iterations, block evaluations, [faults ()] and churn: exact
    when a registry probe scanned the instant, otherwise sampled as
    {!Telemetry.Monitor.create} describes for [churn_every]. Then one
    {!Telemetry.Monitor.quarantine} dump per block [escalated ()]
    names: composed before the supervisor's probe, so that the
    supervisor closes the instant first, these are the blocks
    quarantined in the instant just recorded. Instant hooks only. *)
