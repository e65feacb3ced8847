(** Reactive simulation: drive an ASR system instant by instant.

    ASR systems are reactive — the environment initiates every instant
    by presenting inputs; with no input the system sits idle (paper §3).
    The simulator owns the delay state between instants and one
    {!Fixpoint.plan}, prepared at creation; each reaction evaluates the
    plan and advances the delays. Every attachment observes the instant
    through one composed {!Probe}, which owns the instant's lifecycle:
    the simulator calls no attachment itself. *)

type t

type trace_entry = {
  instant : int;
  inputs : (string * Domain.t) list;
  outputs : (string * Domain.t) list;
  iterations : int;
}

val create :
  ?order:int array ->
  ?strategy:Fixpoint.strategy ->
  ?telemetry:Telemetry.Registry.t ->
  ?supervisor:Supervisor.t ->
  ?monitor:Telemetry.Monitor.t ->
  ?causal:Domain.t Telemetry.Causal.t ->
  Graph.t ->
  t
(** Compiles the graph and prepares its {!Fixpoint.plan} (schedule,
    and under {!Fixpoint.Fused} the {!Fuse} plan) once. [strategy]
    defaults to {!Fixpoint.Worklist} — near-linear per instant on
    feed-forward systems — unless [order] is given, which selects
    chaotic iteration under that fixed block order (determinism tests
    shuffle it). Passing [order] together with a non-chaotic [strategy]
    raises [Invalid_argument].

    The attachments are composed here, once, into one probe — in this
    order, so the instant closes in reverse: {!Probe.monitor},
    {!Supervisor.probe} (every application guarded; the supervisor's
    instant opens and closes with the evaluation), {!Probe.causal} (the
    sink's net count must match the compiled graph), {!Probe.registry}.
    The registry closes first, so with both it and the monitor attached
    churn is scanned once and exact; the supervisor closes before the
    monitor records the instant, so the monitor's quarantine dump for a
    block the supervisor escalated covers the instant that triggered
    it, and a snapshot taken at that instant already shows the block
    quarantined. With nothing attached, or only instant hooks (a
    monitor), the evaluation path — under [Fused], the chain-collapsed
    fast lane — is exactly the unobserved one.

    The monitor copies no state: it records each instant under the
    simulator's instant index, and with [supervisor] its snapshots and
    dumps embed {!Supervisor.health_json}
    ({!Telemetry.Monitor.set_health_source}); with [causal], its
    [data_loss] object reports the causal ring's overwrite and
    truncated-slice counters. The monitor is independent of
    [telemetry]; with both, their cumulative ["asr.instants"] /
    ["asr.block_evaluations"] / ["asr.supervisor.faults"] views
    reconcile exactly because they are fed from the same per-instant
    values. *)

val step : t -> (string * Domain.t) list -> (string * Domain.t) list
(** React to one instant's inputs; returns the outputs and advances the
    delay state. *)

val run : t -> (string * Domain.t) list list -> trace_entry list
(** Feed a stream of instants. *)

val strategy : t -> Fixpoint.strategy

val graph : t -> Graph.compiled
(** The graph compiled at creation. *)

val fuse_plan : t -> Fuse.t option
(** The {!Fuse} plan precompiled at creation — [Some] exactly when the
    strategy is {!Fixpoint.Fused}. *)

val schedule : t -> Schedule.t
(** The schedule precompiled at creation. *)

val instant_count : t -> int

val block_evaluations : t -> int
(** Total block applications across all instants since creation (or the
    last {!reset}) — the quantity the scheduling strategies minimize. *)

val supervisor : t -> Supervisor.t option

val monitor : t -> Telemetry.Monitor.t option

val causal : t -> Domain.t Telemetry.Causal.t option

val telemetry : t -> Telemetry.Registry.t option

val net_values : t -> Domain.t array
(** Copy of the most recent instant's fixed point, indexed by net (all
    ⊥ before the first reaction) — the per-instant observation the
    containment property quantifies over. *)

val reset : t -> unit
(** Back to initial delay values, instant 0, evaluation count 0; also
    resets the attached supervisor, if any, and with it the health an
    attached monitor reports. *)

(** {2 Checkpoint state}

    The complete simulator-side state between instants: delay
    registers, last fixed point, churn reference, and the two
    counters. A fresh simulator with this state imported reacts
    bit-identically to the one exported from — attachment state
    (supervisor, monitor, causal log, registry) travels separately via
    the attachments' own checkpoint hooks (see {!Checkpoint}). *)

type state = {
  st_instant : int;
  st_evaluations : int;
  st_delays : Domain.t array;
  st_nets : Domain.t array;
  st_prev_nets : Domain.t array;  (** [[||]] without churn sinks *)
}

val export_state : t -> state
(** Deep copy; valid however the simulator advances afterwards. *)

val import_state : t -> state -> unit
(** Restore into a simulator compiled from the same graph with the same
    strategy and attachment configuration. Raises [Invalid_argument] on
    a delay- or net-count mismatch. *)
