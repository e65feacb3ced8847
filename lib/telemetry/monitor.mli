(** Always-on, bounded-memory observability for long-running
    simulations.

    One monitor owns, per simulation: a {!Recorder} flight ring (last N
    instants), three {!Sketch} quantile sketches (per-instant latency,
    modeled cycles, block evaluations — p50/p95/p99 at any moment, any
    stream length), sliding {!Window} aggregations (evaluation rate,
    churn min/max, latency EWMA) and an EWMA latency-spike flag. Memory
    is fixed at creation; nothing grows with the number of instants,
    which is what distinguishes this layer from the batch exporters in
    {!Export}.

    The monitor observes; it owns no simulation state. Per-block health
    (fault counts, streaks, quarantine) is the supervisor's, and the
    instant index is the simulator's: snapshots and dumps embed the
    health a source installed by the simulator returns
    ({!set_health_source}), and each instant is recorded under the
    index its caller passes.

    The simulator attaches it as an instant probe ([Asr.Probe.monitor])
    that brackets each instant with {!instant_begin} / {!instant_end}
    and calls {!quarantine} for each block the supervisor escalated in
    it; the monitor emits one NDJSON snapshot every [snapshot_every]
    instants and a flight-recorder dump the moment a block is
    quarantined, so escalations ship with their last-K-instants
    context. All timestamps come from a caller-supplied clock
    (µs by convention), defaulting to a deterministic tick so tests and
    fixed-seed campaigns are bit-reproducible. *)

type t

val create :
  ?recorder_capacity:int ->
  ?snapshot_every:int ->
  ?snapshot_sink:(string -> unit) ->
  ?dump_sink:(Json.t -> unit) ->
  ?clock:(unit -> float) ->
  ?cycles_source:(unit -> int) ->
  ?churn_every:int ->
  unit ->
  t
(** Defaults: [recorder_capacity = 256], [snapshot_every = 0]
    (periodic snapshots off), deterministic tick clock, no cycle
    source, [churn_every = 256]. Fixed: {!Sketch}'s 1% relative
    error, 64-instant windows with {!Window}'s EWMA weight 0.1, and a
    latency spike flag at 4 × the running EWMA, armed after 8
    instants.

    [snapshot_sink] receives each periodic snapshot as one serialized
    JSON object (no trailing newline — append one per line for NDJSON).
    [dump_sink] receives each flight-recorder dump (quarantines).
    [cycles_source] is polled once per instant for the modeled cycle
    count of that instant's reactions (e.g.
    [Elaborate.last_reaction_cycles]); without it cycles record as 0.

    [churn_every] bounds the cost of net-churn accounting: an exact
    churn comparison is O(nets) per instant — fine for the batch
    telemetry registry, but it would dominate an always-on monitor on
    large fused nets. The simulator therefore runs the full scan only
    every [churn_every] instants when the monitor is the sole consumer
    (a record's [r_net_churn] then means "nets changed since the
    previous churn sample", 0 between samples); with the full telemetry
    registry also attached the scan already runs every instant and
    churn is exact. [0] disables sampling entirely. *)

(** {2 Instant lifecycle (driven by the simulator)} *)

val instant_begin : t -> unit
(** Samples the clock; latency of the instant is the span to
    {!instant_end}. *)

val instant_end :
  t ->
  instant:int ->
  iterations:int ->
  block_evals:int ->
  net_churn:int ->
  faults:int ->
  unit
(** Close the instant: push its flight record under index [instant]
    (the simulator's, so a resumed run continues the numbering), feed
    sketches and windows, flag latency spikes, and emit a periodic
    snapshot when due. *)

val quarantine : t -> block:string -> unit
(** Emit a flight-recorder dump ([reason = "quarantine:<block>"]) to
    [dump_sink]; the dump is also retained as {!last_dump}. *)

val set_health_source : t -> (unit -> Json.t) -> unit
(** Install a thunk returning per-block health as JSON (the simulator
    installs [Asr.Supervisor.health_json] of its supervisor); every
    snapshot's and dump's [health] member is its result, [[]] when no
    source is installed. *)

val set_causal_source : t -> (unit -> int * int) -> unit
(** Install a thunk returning an attached {!Causal} ring's
    [(overwrites, truncated_slices)] pair; once installed, every
    snapshot's and dump's [data_loss] object reports the pair as
    [causal_overwrites] / [causal_truncated] (both 0 when no source is
    installed). The simulator wires this when a reaction loop carries
    both a monitor and a causal sink. *)

(** {2 Checkpoint write accounting}

    Durable-checkpoint writes are part of the monitored system: their
    count, volume and cost appear in every {!snapshot} under a
    [checkpoint] object, and a failed write — lost recovery data —
    raises the [checkpoint_write_failures] flag in [data_loss]. *)

val checkpoint_written : t -> bytes:int -> seconds:float -> unit
(** One successful write of [bytes]; [seconds] is what the whole save
    cost — [Asr.Checkpoint.save] passes the [Sys.time] of encoding,
    digest and durable write together, not the write alone. *)

val checkpoint_write_failed : t -> unit

val checkpoint_stats : t -> int * int * float * int
(** [(writes, bytes, seconds, failures)]. *)

(** {2 Inspection} *)

val instants : t -> int
(** Instants this monitor recorded (restored ones included): its own
    count, not an instant index. *)

val churn_every : t -> int
(** The churn sampling stride the driver should honor (see {!create}). *)

val cum_block_evals : t -> int
val cum_net_churn : t -> int
val cum_faults : t -> int

val latency : t -> Sketch.t
val cycles : t -> Sketch.t
val evals : t -> Sketch.t

val recorder : t -> Recorder.t

val spike_count : t -> int
(** Instants whose latency exceeded 4 × the running EWMA (after an
    8-instant warmup). *)

val snapshot : t -> Json.t
(** The current snapshot object — the same shape the periodic sink
    receives: the index of the last recorded instant as [instant] (-1
    before the first), cumulative counters, sketch quantiles, window
    aggregates, health (see {!set_health_source}), and a [data_loss]
    object (recorder overwrites, sketch out-of-range counts,
    causal-ring overwrites and truncated slices — see
    {!set_causal_source}). *)

val snapshots_emitted : t -> int

val dump : reason:string -> t -> Json.t
(** Flight-recorder dump with monitor context:
    [{"reason": r, "instant": n, "flight": {...}, "health": [...],
    "data_loss": {...}}], [n] the index of the last recorded
    instant. *)

val last_dump : t -> Json.t option
(** The most recent dump emitted by {!quarantine}. *)

val reset : t -> unit

(** {2 Checkpoint state}

    What travels in a durable checkpoint: the cumulative counters (the
    resume bit-exactness gate) and the spike/snapshot counts. The
    quantile sketches, windows and flight ring restart empty on restore
    — they are bounded-memory summaries of the process, not simulation
    state. Block health is the supervisor's and travels with it. *)

val state_json : t -> Json.t
(** Raises [Invalid_argument] when an instant is open. *)

val restore_state : t -> Json.t -> unit
(** {!reset} then restore: the monitor continues as if it had observed
    the checkpointed run. Raises [Invalid_argument] on malformed
    input. *)
