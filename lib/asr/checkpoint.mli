(** Durable checkpoints: deep snapshot/restore of the complete
    simulation state, serialized to a versioned on-disk JSON artifact.

    A checkpoint taken between instants captures everything the rest of
    the run depends on — the simulator registers ({!Simulate.state}:
    delays, last fixed point, churn reference, counters), the
    supervisor's inter-instant state (committed outputs, fault streaks,
    quarantine set, retry counters, capped fault log), the fault
    injector's clock, the telemetry registry's counters, the monitor's
    cumulatives and per-block health, and the causal log's continuable
    state ({!Telemetry.Causal.state}). Reals ride as IEEE-754 bit
    patterns (the {!Codec} shared with {!Trace}), so a resumed run is
    bit-identical to the uninterrupted one: same fixed points, outputs,
    fault log, causal events and monitor cumulatives, under every
    strategy and supervisor policy, injected campaigns included.

    Embedder state — elaborated reaction heaps and machine registers —
    rides along as an opaque [machine] payload composed by the layer
    that owns it (the CLI threads [Runtime.Snapshot] JSON through;
    plain function blocks have no machine and leave it empty). *)

type t

val capture :
  system:string ->
  ?policy:Supervisor.policy ->
  ?escalate_after:int ->
  ?inject:Inject.spec list ->
  ?seed:int ->
  ?injector:Inject.t ->
  ?machine:Telemetry.Json.t ->
  Simulate.t ->
  t
(** Snapshot the simulator and all its attachments, between instants
    (raises [Invalid_argument] mid-instant). [policy]/[escalate_after]
    default to the attached supervisor's; [inject] defaults to
    [injector]'s specs when one is passed. [seed] and [system] are
    provenance metadata carried for the recovery harness. The snapshot
    is deep: the simulator may keep running afterwards. *)

(** Everything {!resume} rebuilt, wired together and restored. *)
type resumed = {
  r_sim : Simulate.t;
  r_supervisor : Supervisor.t option;
  r_injector : Inject.t option;
  r_monitor : Telemetry.Monitor.t option;
  r_telemetry : Telemetry.Registry.t option;
  r_causal : Domain.t Telemetry.Causal.t option;
}

val resume :
  ?telemetry:Telemetry.Registry.t ->
  ?monitor:Telemetry.Monitor.t ->
  ?supervisor:Supervisor.t ->
  t ->
  Graph.t ->
  resumed
(** Rebuild a running simulation from a checkpoint and the (clean,
    uninstrumented) graph it was captured from: re-instrument injection,
    recreate and restore each attachment recorded in the artifact, and
    import the simulator state. Pass [?supervisor]/[?monitor]/
    [?telemetry] to supply instances created with non-default
    configuration (sinks, clocks, capacities); they are restored into.
    The caller drives the remaining instants exactly as it would have
    from the interruption point — and feeds the next {!Inject.tick}s to
    [r_injector]. Machine payloads are not applied here: read
    {!machine} and restore through the owning layer. *)

(** {2 Inspection} *)

val instant : t -> int
(** Completed instants at capture — the index the resumed run's next
    reaction will occupy. *)

val system : t -> string

val strategy : t -> Fixpoint.strategy

val policy : t -> Supervisor.policy option

val escalation_threshold : t -> int

val has_supervisor : t -> bool
(** The artifact carries supervisor state (drivers use these to decide
    which attachments to recreate before {!resume}). *)

val has_monitor : t -> bool

val has_causal : t -> bool

val machine : t -> Telemetry.Json.t option
(** The opaque embedder payload passed to {!capture}, if any. *)

(** {2 Serialization} *)

val to_json : t -> Telemetry.Json.t

val of_json : Telemetry.Json.t -> t
(** Raises [Invalid_argument] on malformed input or an unsupported
    version. *)

val equal : t -> t -> bool
(** Bit-exact artifact equality (serialized-form comparison). *)

val save : ?monitor:Telemetry.Monitor.t -> t -> string -> unit
(** Write the artifact durably ({!Durable.write_file}): a crash or a
    failed write leaves the file at [path] as it was. When a monitor is
    passed, feeds its
    checkpoint-write accounting: bytes and [Sys.time] seconds on
    success, the [checkpoint_write_failures] data-loss flag on
    [Sys_error] (which still propagates). *)

val load : string -> t
(** Raises [Sys_error] or [Invalid_argument]. *)
