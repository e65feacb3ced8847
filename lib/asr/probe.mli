(** Instrumentation interface of {!Fixpoint.eval}: the one seam through
    which a run is observed from inside the least fixpoint (after
    Gaffé/Ressouche/Roy's modular compilation: compile the reaction
    once, instrument at its interface).

    A probe sees the instant open and close, and each block application
    as [enter], the application itself (through {!run}, which a
    guarding probe may wrap), and [leave]. Supervision
    ({!Supervisor.probe}), per-block evaluation counting ({!counter})
    and causal recording ({!causal}) are each one implementation;
    {!compose} stacks them. No hook allocates per application: the
    application is a step closure precompiled once per graph or plan,
    and its outputs are read back from the slots it wrote.

    Without a probe, {!Fixpoint.eval} runs its uninstrumented code
    unchanged — under [Fused], the chain-collapsed fast lane. *)

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
  instant_end : unit -> unit;  (** the fixpoint settled *)
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
