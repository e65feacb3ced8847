(** The run artifact: a deep snapshot of a simulation at an instant
    boundary, optionally with the recording of the run that led there,
    serialized as one versioned, digest-checked JSON file.

    A checkpoint captures everything the rest of the run depends on —
    the simulator registers ({!Simulate.state}), the supervisor's
    inter-instant state (committed outputs, fault streaks, quarantine
    set, retry counters, capped fault log), the fault injector's clock,
    the telemetry registry's counters, the monitor's cumulatives and
    per-block health, and the causal log's continuable state
    ({!Telemetry.Causal.state}). Reals ride as IEEE-754 bit patterns
    ({!Codec}), so a resumed run is bit-identical to the uninterrupted
    one under every strategy and supervisor policy, injected campaigns
    included.

    Because an ASR instant is the least fixpoint of deterministic block
    reactions and injection is seeded, a recorded run is that state plus
    the input stream plus the per-instant fixed points. A {e recording}
    adds exactly those (stream, nets, outputs, iteration counts, the
    fatal fault of an aborted run, block names, net producers, ports);
    its causal log is the artifact's causal section. The queries — {!why},
    {!first_divergence} — read recorded artifacts.

    Every artifact carries a fingerprint of the compiled graph's block
    names and port layout: {!resume} and {!replay} reject another
    graph. Embedder state — elaborated reaction heaps and machine
    registers — rides along as an opaque [machine] payload composed by
    the layer that owns it. *)

type t

val capture :
  system:string ->
  ?seed:int ->
  ?injector:Inject.t ->
  ?machine:Telemetry.Json.t ->
  Simulate.t ->
  t
(** Snapshot the simulator and all its attachments, between instants
    (raises [Invalid_argument] mid-instant). Policy and escalation
    threshold come from the attached supervisor, the injection plan and
    clock from [injector]. [seed] and [system] are provenance metadata.
    The snapshot is deep: the simulator may keep running afterwards. *)

(** {1 Recording} *)

type recorder
(** A run being recorded by the driver that steps it. *)

val recorder : Simulate.t -> (string * Domain.t) list list -> recorder
(** Record a fresh simulator (raises [Invalid_argument] past instant 0)
    over [stream]. The recording keeps the whole stream even when the
    run aborts early, so two runs of one stream stay comparable. *)

val record_step : recorder -> Simulate.trace_entry
(** Run the stream's next instant and log its fixed point. A
    [Supervisor.Fatal] ends the recording and propagates. *)

val recorded : system:string -> ?machine:Telemetry.Json.t -> recorder -> t
(** {!capture} plus the recording. After a fail-fast abort the
    attachments are mid-instant: the artifact then keeps the completed
    instants, the fatal fault and the causal events for queries, but
    no supervisor, monitor or machine state, and {!resume} rejects it. *)

val record :
  ?strategy:Fixpoint.strategy ->
  ?policy:Supervisor.policy ->
  ?inject:Inject.spec list ->
  ?seed:int ->
  Graph.t ->
  (string * Domain.t) list list ->
  t
(** Run [graph] over the stream with a fresh causal ring of 65,536
    events and record it. [strategy] defaults to {!Fixpoint.Scheduled};
    [policy] attaches a supervisor that escalates after 3 consecutive
    faulty instants; [inject] instruments the graph with a fresh
    injector ticked once per instant. A [Fail_fast] abort is caught and
    recorded in {!fatal}. *)

val replay : t -> Graph.t -> t
(** Record [graph] again under the artifact's strategy, policy,
    injection plan, seed, ring capacity and stream. A faithful graph
    replays to an {!equal} artifact; raises [Invalid_argument] on a
    graph fingerprint mismatch or an artifact without a recording. *)

(** {1 Resume} *)

(** Everything {!resume} rebuilt, wired together and restored. *)
type resumed = {
  r_sim : Simulate.t;
  r_supervisor : Supervisor.t option;
  r_injector : Inject.t option;
}

val resume :
  ?telemetry:Telemetry.Registry.t ->
  ?monitor:Telemetry.Monitor.t ->
  ?supervisor:Supervisor.t ->
  t ->
  Graph.t ->
  resumed
(** Rebuild a running simulation from an artifact and the (clean,
    uninstrumented) graph it was captured from: re-instrument
    injection, recreate and restore each attachment recorded in the
    artifact, and import the simulator state. Pass [?supervisor]/
    [?monitor]/[?telemetry] to supply instances created with
    non-default configuration; they are restored into. The caller
    drives the remaining instants and feeds the next {!Inject.tick}s to
    [r_injector]. Machine payloads are not applied here: read
    {!machine} and restore through the owning layer. Raises
    [Invalid_argument] on a graph fingerprint mismatch and on an
    aborted recording. *)

(** {1 Inspection} *)

val instant : t -> int
(** Completed instants at capture — the index the resumed run's next
    reaction will occupy, and the number of instants a recording
    holds. *)

val policy : t -> Supervisor.policy option

val escalation_threshold : t -> int

val has_supervisor : t -> bool
(** The artifact carries supervisor state (drivers use these to decide
    which attachments to recreate before {!resume}). *)

val has_monitor : t -> bool

val machine : t -> Telemetry.Json.t option
(** The opaque embedder payload passed to {!capture}, if any. *)

val fingerprint : t -> string
(** The captured graph's {!Graph.fingerprint}. Every capture of one
    simulator shares the string its compilation computed once. *)

val n_nets : t -> int

(** The recording queries below raise [Invalid_argument] on an
    artifact without a recording. *)

val outputs : t -> (string * Domain.t) list list

val nets_at : t -> int -> Domain.t array option
(** The net fixed point of one recorded instant. *)

val output_net : t -> string -> int option
(** Net observed by the named environment output. *)

val faults : t -> Telemetry.Json.t list
(** The supervisor's fault log (empty without supervisor state). *)

val fault_count : t -> int

val fatal : t -> string option
(** The rendered fault that aborted a [Fail_fast] run, if any. *)

val events : t -> Domain.t Telemetry.Causal.event list
(** The causal section's retained events. *)

val data_loss : t -> int * int
(** [(ring overwrites, slices truncated so far)] of the causal log. *)

(** {1 Why-provenance} *)

val why : t -> net:int -> instant:int -> Domain.t Telemetry.Causal.slice
(** Backward causal slice of [(net, instant)] over the causal log. *)

val slice_to_string : t -> Domain.t Telemetry.Causal.slice -> string
(** Render a slice as an indented causal tree: the queried value, its
    establishing event, and recursively every read's producer (shared
    ancestors are printed once and referenced by uid), with ⊥ leaves,
    evicted dependencies and truncation called out. *)

val slice_json : t -> Domain.t Telemetry.Causal.slice -> Telemetry.Json.t
(** {!Telemetry.Causal.slice_json} with the net's [producer] label. *)

(** {1 First-divergence localization} *)

type divergence = {
  d_instant : int;  (** earliest instant at which the runs disagree *)
  d_net : int;
      (** among that instant's divergent nets, the one whose
          establishing event in run A has the smallest uid — the
          earliest cause; -1 when one run is missing the instant
          entirely (fatal abort) *)
  d_block : int;
      (** block that established the net in run A; -1 for bindings or
          when unknown *)
  d_producer : string;
      (** the net's producer — block name, ["input:x"], ["delay"] or
          ["unwritten"] — or ["missing in A"/"B"] *)
  d_value_a : Domain.t;
  d_value_b : Domain.t;
  d_slice_a : Domain.t Telemetry.Causal.slice option;
  d_slice_b : Domain.t Telemetry.Causal.slice option;
      (** both causal slices of the divergent net ([None] only in the
          missing-instant case) *)
}

exception Incomparable of string
(** The recordings are not two runs of the same experiment: different
    net counts or different input streams. *)

val first_divergence : t -> t -> divergence option
(** Scan both recordings' fixed points instant by instant and localize
    the earliest divergence; [None] when every recorded instant agrees
    on every net (and both runs have the same length). The graph
    fingerprints are not compared: a mutated graph against its
    reference is the point. Raises {!Incomparable} when the comparison
    is meaningless. *)

val divergence_to_string : divergence -> string

val divergence_json : divergence -> Telemetry.Json.t

(** {1 Serialization}

    One encoder writes an artifact's bytes straight into a buffer, with
    no JSON tree in between; {!save} writes them, {!to_json} parses
    them and {!equal} compares them, so the three cannot disagree. *)

val to_json : t -> Telemetry.Json.t
(** The parse of the payload {!save} writes (reals' ["r"] members are
    the rounded decimals the file holds; their ["bits"] are exact). *)

val of_json : Telemetry.Json.t -> t
(** Raises [Invalid_argument] on malformed input or a version other
    than 2. *)

val equal : t -> t -> bool
(** Bit-exact artifact equality: the encoded payloads are equal. *)

val save : ?monitor:Telemetry.Monitor.t -> t -> string -> unit
(** Write [{"digest":D,"artifact":P}] and a newline durably
    ({!Durable.write_file}), [D] being the MD5 of the payload bytes [P]:
    a crash or a failed write leaves the file at [path] as it was. When
    a monitor is passed, feeds its checkpoint-write accounting: bytes
    and the [Sys.time] seconds of the whole save — encoding, digest and
    durable write — on success, the [checkpoint_write_failures]
    data-loss flag on [Sys_error] (which still propagates). *)

val load : string -> t
(** Check the digest, then parse. Raises [Sys_error] on I/O errors,
    [Invalid_argument] on a digest mismatch, a missing header (version
    1 artifacts have none) or bad contents, and
    [Telemetry.Json.Parse_error] on malformed JSON. *)
