(** Bounded-memory causal event log for fixpoint evaluation.

    Every instant of an ASR run is a least fixpoint of block reactions,
    so the causal chain behind any net value — which block evaluation
    wrote it, from which input nets, at which versions — is
    well-defined. This module records that chain as a bounded ring of
    events and answers backward *why-provenance* queries: from
    [(net, instant)] to the minimal DAG of block evaluations, input and
    delay bindings that produced the value.

    The module is value-agnostic (['v] is instantiated by the caller —
    {!Asr.Fixpoint} uses its [Domain.t]); the telemetry layer carries no
    simulator types. Events reference each other by [uid] — the
    position in the push sequence — and nets and blocks by the integer
    indices of the caller's compiled graph.

    Memory discipline follows {!Recorder}: the ring holds the most
    recent [capacity] events; older events are overwritten and the loss
    is surfaced as an {!overwrites} counter (and, through the caller,
    as a [data_loss] field). A slice that chases a dependency past the
    retention horizon reports itself truncated rather than guessing.

    The ring is preallocated as a struct of arrays — per-slot uid,
    instant, kind, block, tag and source, plus fixed-stride read and
    write arenas whose stride grows only when an event exceeds it — so
    recording allocates nothing per event. {!event} records are built
    on demand by queries; serialization streams the slots. The ring is
    also the log's only saved form: a checkpoint keeps a {!snapshot}
    of it, {!write_json} streams that, {!of_json} decodes it back into
    a ring, and a resumed run records into its own {!copy}. *)

type kind =
  | Eval  (** a block evaluation *)
  | Input  (** an environment input binding at instant start *)
  | Delay  (** a delay output binding ([ev_src] is the source net read
               at the previous instant) *)
  | Folded  (** a constant net preloaded by a fused plan's template *)

type 'v event = {
  ev_uid : int;  (** position in the push sequence; the event's identity *)
  ev_instant : int;
  ev_kind : kind;
  ev_block : int;  (** evaluated block index; -1 for bindings *)
  ev_tag : string;
      (** "" for an ordinary evaluation; a containment provenance tag
          (e.g. ["contained:hold-last"]) when the recorded outputs are a
          supervisor substitution rather than the block's own values *)
  ev_src : int;  (** [Delay] only: source net, read at [ev_instant - 1];
                     -1 otherwise *)
  ev_reads : int array;
      (** flattened [(net, producer uid)] pairs: the nets read by the
          evaluation and the uid of each net's establishing event at
          read time (-1 when the net was still ⊥) *)
  ev_write_nets : int array;  (** nets this event established *)
  ev_write_values : 'v array;  (** parallel to [ev_write_nets] *)
}

type 'v t

val create : ?capacity:int -> n_nets:int -> unit -> 'v t
(** Ring of at most [capacity] (default 65536) events over a graph of
    [n_nets] nets. Raises [Invalid_argument] on a non-positive
    capacity or a negative net count. *)

val capacity : 'v t -> int

val n_nets : 'v t -> int

(** {1 Instant lifecycle}

    {!Asr.Fixpoint.eval} brackets each evaluation it runs as one
    instant; instants are numbered from 0 in bracket order. *)

val in_instant : 'v t -> bool

val begin_instant : 'v t -> unit
(** Opens the next instant: the current net-writer registers become the
    previous instant's (so delay bindings can resolve their source) and
    every net starts the new instant unwritten. Raises
    [Invalid_argument] when an instant is already open or [t] is a
    {!snapshot}. *)

val end_instant : 'v t -> unit

val instant : 'v t -> int
(** The open instant's index, or the index the next {!begin_instant}
    will open. *)

(** {1 Recording} *)

val record_binding : 'v t -> kind:kind -> net:int -> ?src:int -> 'v -> unit
(** Record an instant-start binding ([Input], [Delay] or [Folded]) of
    [net]. For [Delay], [src] is the net whose previous-instant value
    crossed the delay; the binding's read resolves against the previous
    instant's writer registers. *)

val eval_begin : 'v t -> block:int -> reads:int array -> unit
(** Open an evaluation event for [block]. [reads] are the input nets
    (the caller's static array is only read, never retained); each is
    resolved to its current establishing uid immediately. *)

val eval_write : 'v t -> net:int -> 'v -> unit
(** Record that the open evaluation established [net]. *)

val set_tag : 'v t -> string -> unit
(** Tag the open evaluation with containment provenance. *)

val pending_writes : 'v t -> int
(** Writes recorded on the open evaluation so far. *)

val pending_tag : 'v t -> string

val eval_commit : 'v t -> unit
(** Close the open evaluation. The event is pushed only when it
    established at least one net or carries a tag; quiet re-evaluations
    (chaotic sweeps that change nothing) leave no trace and no ring
    pressure. *)

(** {1 Loss accounting} *)

val pushed : 'v t -> int
(** Events pushed since creation (monotone; not reset by eviction). *)

val overwrites : 'v t -> int
(** Events lost to ring eviction: [max 0 (pushed - capacity)]. *)

val truncated_slices : 'v t -> int
(** Slices computed so far whose dependency chase crossed the retention
    horizon. A {!snapshot} keeps the count it was taken with: slices of
    it count nothing. *)

val data_loss : 'v t -> int * int
(** [(overwrites, truncated_slices)] — the pair surfaced in
    [data_loss] objects by {!Monitor} and the exporters. *)

(** {1 Queries} *)

val events : ?instant:int -> 'v t -> 'v event list
(** Retained events in push order, optionally only those of one
    instant. *)

val find : 'v t -> int -> 'v event option
(** Event by uid; [None] when never pushed or evicted. *)

val writer : 'v t -> net:int -> instant:int -> 'v event option
(** The retained event that established [net]'s final value at
    [instant], if any. *)

type 'v slice = {
  sl_net : int;
  sl_instant : int;
  sl_value : 'v option;  (** [None]: no retained writer (⊥, or lost) *)
  sl_root : int;  (** uid of the establishing event, or -1 *)
  sl_events : 'v event list;
      (** the minimal causal DAG, in push (hence causal) order *)
  sl_bottom : (int * int) list;
      (** [(net, instant)] leaves that were ⊥ when read *)
  sl_missing : (int * int) list;
      (** [(net, instant)] dependencies lost to ring eviction *)
  sl_truncated : bool;  (** [sl_missing <> []] or the root itself was
                            past the retention horizon *)
}

val slice : 'v t -> net:int -> instant:int -> 'v slice
(** Backward causal slice: the minimal set of retained events the value
    of [net] at [instant] transitively depends on, following
    evaluation reads within the instant and delay crossings into
    earlier instants. *)

(** {1 Copies and serialization}

    A copy carries the per-net writer registers, which may reference
    evicted events the ring no longer holds, so a log continued from a
    copy records uids and read edges bit-identical to the uninterrupted
    run's, and queries over it answer as the original did. *)

val snapshot : 'v t -> 'v t
(** A frozen deep copy (array blits, no event records): it answers
    queries, but {!begin_instant} on it raises and its slices count
    nothing, so its {!write_json} bytes never change. Of a log cut
    short mid-instant, the snapshot holds the committed events and
    unknown (-1) writer registers: it answers queries about completed
    instants, and a run continued from it would not be faithful. *)

val copy : 'v t -> 'v t
(** A deep copy that keeps recording where [t] stopped; [t] may be a
    {!snapshot}. Raises [Invalid_argument] when an instant is open. *)

val event_json : render:('v -> Json.t) -> 'v event -> Json.t

val write_json : render:(Buffer.t -> 'v -> unit) -> Buffer.t -> 'v t -> unit
(** Appends the log as one JSON object: [capacity], [pushed], the last
    opened [instant] (-1 before the first), [truncated] slices, the
    per-net [writers] and the retained [events] in push order, each as
    the bytes of {!event_json}, given a [render] that appends
    [Json.to_string (r v)]. Allocates nothing per event beyond what
    [render] does. Raises [Invalid_argument] when an instant is open. *)

val of_json : unrender:(Json.t -> 'v) -> Json.t -> 'v t
(** Inverse of {!write_json}: a {!snapshot} holding the section. It is
    validated as it is stored — capacity and counters, writer
    registers inside the pushed range, and every event: uid inside the
    retention window and in push order, instant within the log's,
    source, read and write nets within the net count (the length of
    [writers]), reads and writes as pairs, read producer uids preceding
    the event. A violation raises
    [Invalid_argument "Causal.of_json: ..."]; so does a malformed
    field, unless [unrender] raises first. *)

val slice_json : render:('v -> Json.t) -> 'v slice -> Json.t
