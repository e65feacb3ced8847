(** Reaction supervisor: runtime fault containment for ASR simulation.

    The refinement rules guarantee bounded reactions *statically*; the
    supervisor enforces graceful behavior when a block misbehaves
    anyway — an unrefined program, a modeling error, or an injected
    fault ({!Inject}). It wraps every block application of a fixpoint
    so that a raising block is *contained* instead of tearing down the
    whole reactive system: the block's output nets hold their previous
    value or go absent (per {!policy}) while the fixpoint continues for
    every other block, and a watchdog escalates a block to permanent
    quarantine after [escalate_after] consecutive faulty instants.

    {b Containment invariant.} A contained block's substitution is
    always lub-consistent with what the block already wrote this
    instant (staged outputs if any, otherwise the previous instant's
    committed outputs, otherwise ⊥), and is constant for the rest of
    the instant — so the supervised fixpoint still iterates a monotone
    function and converges. Consequently every net outside
    {!Graph.affected_nets} of the faulted block takes exactly the same
    per-instant value as in the fault-free run; the test suite and the
    [faults] bench check this bit-for-bit.

    {b Determinism.} The supervisor adds no randomness: given the same
    graph, inputs, policy and (injected) faults, the fault log and all
    net traces are identical run to run.

    Lifecycle: {!attach} once per compiled graph, {!begin_instant} /
    {!end_instant} around each instant — both done by the {!probe},
    the one owner of the supervised instant, so every
    {!Fixpoint.eval} it observes is one instant. *)

type policy =
  | Fail_fast  (** re-raise as {!Fatal}: stop the simulation *)
  | Hold_last  (** output nets hold the previous instant's values *)
  | Absent  (** output nets go ⊥ for the instant *)
  | Retry of int
      (** re-run the block up to [n] more times within the instant;
          contain like [Hold_last] if every attempt faults *)

type fault_class =
  | Trap  (** bounds violation, division by zero, … *)
  | Budget_exceeded  (** reaction cycle budget blown *)
  | Heap_exhausted  (** allocation failure / bounded-memory violation *)
  | Step_limit  (** more applications in one instant than [step_budget] *)
  | Retraction  (** non-monotone: the block changed a defined output *)

type action =
  | Held
  | Went_absent
  | Recovered of int  (** a [Retry] succeeded after [n] failed attempts *)
  | Escalated
  | Aborted

type fault = {
  f_instant : int;
  f_block : int;  (** index in [compiled.c_blocks] *)
  f_block_name : string;
  f_class : fault_class;
  f_detail : string;  (** human-readable provenance (exception message) *)
  f_action : action;
}

exception Fatal of fault
(** Raised under [Fail_fast] (after logging the fault). *)

(** One block's fault history. The supervisor is its only owner:
    {!Telemetry.Monitor} snapshots and flight dumps embed
    {!health_json}, and a checkpoint carries the registers behind it. *)
type health = {
  h_block : int;  (** index in [compiled.c_blocks]; names may repeat *)
  h_block_name : string;
  h_faults : int;
      (** contained faults, beyond the log cap too; escalations are not
          faults *)
  h_recovered : int;  (** faults a [Retry] absorbed *)
  h_streak : int;  (** consecutive faulty instants, current *)
  h_max_streak : int;
  h_last_fault_instant : int;
      (** instant of the last contained fault; -1 when a [Retry]
          absorbed every one *)
  h_quarantined : bool;
}

type t

val create :
  ?policy:policy ->
  ?escalate_after:int ->
  ?step_budget:int ->
  ?classify:(exn -> (fault_class * string) option) ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** Defaults: [policy = Hold_last], [escalate_after = 3] consecutive
    faulty instants before quarantine, no [step_budget] (no
    per-instant application limit). The fault log retains 1,000
    records; later ones are counted in {!dropped_faults}.

    [classify] maps an exception raised by a block to a fault class and
    detail; it is consulted before the built-in classifier (which
    recognizes {!Inject.Injected}, [Division_by_zero],
    [Invalid_argument], [Failure], [Stack_overflow], [Out_of_memory]).
    An exception neither classifier recognizes propagates unchanged —
    the supervisor contains faults, it does not swallow harness bugs.
    Engine-level classification (cycle budgets, heap limits) is
    provided by [Elaborate.fault_classifier].

    [telemetry] feeds counters ["asr.supervisor.faults"],
    ["asr.supervisor.fault.<class>"], ["asr.supervisor.recovered"] and
    ["asr.supervisor.quarantined"]. *)

val attach : t -> Graph.compiled -> unit
(** Size the per-block state for this graph. Idempotent for graphs with
    the same block count; [Invalid_argument] if the supervisor is
    already attached to a graph with a different one. *)

val begin_instant : t -> unit

val end_instant : t -> unit
(** Commit staged outputs, advance the watchdog (consecutive-fault
    counters, longest streaks, quarantine escalation), move to the next
    instant. *)

val in_instant : t -> bool

val probe : t -> Probe.t
(** The supervisor as a {!Fixpoint.eval} probe. Its guard runs each
    block application unless the block is quarantined or already
    contained this instant (then the substitution is written to the
    application's output slots directly), classifies and contains any
    recognized fault per the policy, and stages the block's good
    outputs by reading its output slots back. Its [retract] contains a
    lub conflict detected outside the block function (the block
    returned, but its outputs contradict the nets) by freezing the
    block at its nets' current values for the rest of the instant — or
    declines when the block was already contained this instant, and
    {!Fixpoint.Nonmonotonic} propagates. Its instant hooks {!attach}
    the evaluated graph and bracket the evaluation as one supervised
    instant ({!begin_instant} / {!end_instant}); an escaping fault
    ({!Fatal}) leaves that instant open. *)

(** {2 Inspection} *)

val policy : t -> policy

val escalation_threshold : t -> int
(** The [escalate_after] this supervisor was created with. *)

val faults : t -> fault list
(** Chronological fault log (capped at 1,000 records). *)

val fault_count : t -> int
(** Contained (non-recovered) faults, including those beyond the cap. *)

val recovered_count : t -> int

val dropped_faults : t -> int

val instant_fault_count : t -> int
(** Faults contained in the current (or just-ended) instant. *)

val is_quarantined : t -> int -> bool

val containment : t -> int -> string option
(** When block [bi]'s outputs this instant come from a containment
    substitution rather than the block's own function, the provenance
    tag: ["contained:"] or ["quarantined:"] followed by the value
    source — ["held"] (outputs staged earlier this instant),
    ["hold-last"] (last committed outputs) or ["absent"] (⊥). [None]
    when the block is running normally. Feeds the causal trace so
    held/absent values carry their policy provenance. *)

val quarantined_blocks : t -> int list

val escalated : t -> int list
(** Blocks the watchdog quarantined as the current (or just-ended)
    instant closed, ascending. *)

val health : t -> health list
(** One row per block that ever faulted (a fault a [Retry] absorbed
    counts), in block order. *)

val health_json : t -> Telemetry.Json.t
(** {!health} as a list of objects: [block] (index), [block_name],
    [faults], [recovered], [streak], [max_streak],
    [last_fault_instant], [quarantined]. *)

val faults_json : t -> Telemetry.Json.t
(** The full fault log plus summary counters, for [--fault-log]. Each
    fault is the same object as in {!state_json}: [action] is a tag
    (["held"], ["absent"], ["recovered:N"], ["escalated"],
    ["aborted"]). *)

val reset : t -> unit
(** Clear all per-block state, counters and the log (for re-running a
    trace on the same graph; pairs with {!Simulate.reset}). *)

(** {2 Checkpoint state}

    The inter-instant registers — instant index, committed outputs,
    fault streaks, quarantine flags, the other {!health} registers of
    the blocks that ever faulted, counters, and the capped fault log —
    as a JSON blob. Per-instant scratch (staged values, latches,
    application counts) is excluded: it is cleared by the next
    [begin_instant], so a checkpoint taken between instants never needs
    it. Reals serialize as IEEE-754 bit patterns, and fault actions as
    parseable tags (["recovered:3"], not prose), so a restored
    supervisor continues — and logs — bit-identically. *)

val state_json : t -> Telemetry.Json.t
(** Raises [Invalid_argument] when called mid-instant. *)

val restore_state : t -> Telemetry.Json.t -> unit
(** Restore into an {!attach}ed supervisor created with the same policy
    and escalation threshold (both are checked; mismatch raises
    [Invalid_argument], as does malformed input). *)

(** {2 Names} *)

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Accepts ["fail"]/["fail-fast"], ["hold"]/["hold-last"], ["absent"],
    ["retry:<n>"]. *)

val class_name : fault_class -> string

val fault_to_string : fault -> string

val default_classify : exn -> (fault_class * string) option
