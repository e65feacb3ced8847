(** Deterministic record/replay traces and first-divergence
    localization.

    A trace is the complete, serializable record of one simulated run:
    the header (system name, strategy, containment policy, injection
    plan, causal-ring capacity), the input-instant stream, every
    instant's net fixed point, the environment outputs, the fault log,
    and the causal event log captured by {!Telemetry.Causal}. Because
    ASR instants are least fixpoints of deterministic block reactions
    and fault injection is seeded ({!Inject}), a trace replayed against
    the same source graph reproduces the run {e bit-identically} —
    {!equal} compares the serialized forms, so "identical" includes
    every real-valued net down to its IEEE-754 bits (reals are encoded
    by their bit pattern, not a decimal rendering).

    On top of recorded traces sit the two observability queries of this
    layer: {!why} (backward causal slicing — why does this net hold
    this value at this instant?) and {!first_divergence} (the earliest
    [(instant, block, net)] where two runs of the same input stream
    disagree, with both causal slices — the localization primitive
    behind [javatime trace-diff] and the differential test reporters). *)

type t

(** {1 Recording and replay} *)

val record :
  ?strategy:Fixpoint.strategy ->
  ?policy:Supervisor.policy ->
  ?escalate_after:int ->
  ?inject:Inject.spec list ->
  ?seed:int ->
  ?capacity:int ->
  Graph.t ->
  (string * Domain.t) list list ->
  t
(** Run [graph] over the input stream with a fresh causal sink and
    record everything. [strategy] defaults to {!Fixpoint.Scheduled}.
    [policy] (with [escalate_after], default 3) attaches a supervisor;
    without one, blocks run unguarded. [inject] instruments the graph
    with a fresh {!Inject} injector ticked once per instant, so
    injected campaigns replay exactly. [seed] is recorded metadata (the
    seed the caller used to draw the plan or stream). [capacity]
    (default 65536) bounds the causal ring. A [Fail_fast] abort is
    caught: the trace keeps the instants completed before the fatal
    fault and records the fault in {!fatal}. *)

val assemble :
  system:string ->
  strategy:Fixpoint.strategy ->
  ?policy:Supervisor.policy ->
  ?escalate_after:int ->
  ?inject:Inject.spec list ->
  ?seed:int ->
  graph:Graph.compiled ->
  causal:Domain.t Telemetry.Causal.t ->
  stream:(string * Domain.t) list list ->
  nets:Domain.t array array ->
  outputs:(string * Domain.t) list list ->
  iterations:int array ->
  ?faults:Telemetry.Json.t list ->
  ?fatal:string ->
  unit ->
  t
(** Build a trace from a run the caller drove itself (e.g. a simulation
    that also carried a monitor, or one-of-a-kind drivers like the CLI):
    the compiled graph, the causal sink the run recorded into, the input
    stream, and the per-instant fixed points / outputs / iteration
    counts captured after each step. {!record} is [assemble] around a
    fresh {!Simulate} loop. *)

val replay : t -> Graph.t -> t
(** Re-run the trace's header against [graph] — same strategy, policy,
    injection plan, capacity and input stream. The caller supplies the
    graph because traces store block {e names}, not functions. Replay
    of a faithful graph satisfies [equal trace (replay trace graph)]. *)

val equal : t -> t -> bool
(** Bit-identical serialized forms ({!to_json} strings). *)

(** {1 Inspection} *)

val system : t -> string
val strategy : t -> Fixpoint.strategy
val n_nets : t -> int
val block_names : t -> string array

val instants : t -> int
(** Instants completed (and recorded) before the stream ended or a
    fatal fault aborted the run. *)

val stream : t -> (string * Domain.t) list list
val outputs : t -> (string * Domain.t) list list
val iterations : t -> int array

val nets_at : t -> int -> Domain.t array option
(** The net fixed point of one recorded instant. *)

val output_net : t -> string -> int option
(** Net observed by the named environment output. *)

val fault_count : t -> int

val faults : t -> Telemetry.Json.t list
(** The supervisor fault log, one {!Supervisor.fault_to_json} object
    per contained fault, in containment order. *)

val fatal : t -> string option
(** The rendered fault that aborted a [Fail_fast] run, if any. *)

val data_loss : t -> int * int
(** [(causal ring overwrites at record time, slices truncated so far on
    the restored log)]. *)

val events : t -> Domain.t Telemetry.Causal.event list

val log : t -> Domain.t Telemetry.Causal.t
(** The causal event log restored for querying ({!Telemetry.Causal.restore});
    built once and cached. *)

val producer : t -> int -> string
(** Human label for a net's static producer: the block name, ["input:x"],
    ["delay"], or ["unwritten"]. *)

(** {1 Why-provenance} *)

val why : t -> net:int -> instant:int -> Domain.t Telemetry.Causal.slice
(** Backward causal slice of [(net, instant)] over the restored log. *)

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
  d_producer : string;  (** {!producer} label, or ["missing in A"/"B"] *)
  d_value_a : Domain.t;
  d_value_b : Domain.t;
  d_slice_a : Domain.t Telemetry.Causal.slice option;
  d_slice_b : Domain.t Telemetry.Causal.slice option;
      (** both causal slices of the divergent net ([None] only in the
          missing-instant case) *)
}

exception Incomparable of string
(** The traces are not two runs of the same experiment: different net
    counts or different input streams. *)

val first_divergence : t -> t -> divergence option
(** Scan both runs' recorded fixed points instant by instant and
    localize the earliest divergence; [None] when every recorded
    instant agrees on every net (and both runs have the same length).
    Raises {!Incomparable} when the comparison is meaningless. *)

val divergence_to_string : divergence -> string

val divergence_json : divergence -> Telemetry.Json.t

(** {1 Serialization} *)

val value_json : Domain.t -> Telemetry.Json.t
(** Exact value codec: ⊥ is [null]; reals carry their IEEE-754 bit
    pattern as hex (the decimal rendering rides along for humans but
    the bits are authoritative on parse), so round-trips are
    bit-exact. *)

val value_of_json : Telemetry.Json.t -> Domain.t
(** Inverse of {!value_json}. Raises [Invalid_argument] on malformed
    input. *)

val to_json : t -> Telemetry.Json.t

val of_json : Telemetry.Json.t -> t
(** Inverse of {!to_json}. Raises [Invalid_argument] on malformed or
    version-incompatible input. *)

val save : t -> string -> unit
(** Write the serialized trace (one JSON object, trailing newline)
    durably ({!Durable.write_file}); raises [Sys_error] on failure,
    leaving the file at the path as it was. *)

val load : string -> t
(** {!of_json} of a file's contents. Raises [Sys_error] on I/O errors,
    [Telemetry.Json.Parse_error] or [Invalid_argument] on bad
    contents. *)
