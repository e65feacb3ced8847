(** Deterministic per-method cycle profile (flat + cumulative).

    The runtime's [Cost] sink feeds this with [charge]/[enter]/[leave]
    events; because the cost model is deterministic, the result is an
    exact attribution — like [gprof] with a sampling rate of every
    cycle. Invariant: the sum of all [self] cycles (including the
    [<toplevel>] root, which absorbs charges outside any method, e.g.
    static initializers run at load time) equals {!total}, which equals
    [Cost.cycles] when the sink is attached from machine creation.

    Recursion: cumulative time is only accumulated at the outermost
    occurrence of a label on the stack, so a recursive method's [cum]
    is not double-counted. *)

type row = {
  r_label : string;  (** ["Class.method"], or ["<toplevel>"] for the root *)
  mutable r_calls : int;
  mutable r_self : int;  (** cycles charged while this frame was innermost *)
  mutable r_cum : int;  (** cycles in this frame and its callees *)
  mutable r_allocs : int;
  mutable r_alloc_words : int;
  mutable r_gc_cycles : int;  (** portion of [r_self] spent in GC pauses *)
}

type t

val create : ?spans:Registry.t -> unit -> t
(** When [spans] is given, every method entry/exit is additionally
    recorded as a span in that registry with the cycle counter as its
    timestamp — exporting it as a Chrome trace gives a full call tree
    on a cycle timeline. *)

val charge : t -> int -> unit
val enter : t -> string -> unit
val leave : t -> unit
val alloc : t -> words:int -> unit
val gc : t -> cycles:int -> unit

val total : t -> int
(** Total cycles charged; equals the sum of [r_self] over {!rows}. *)

val rows : t -> row list
(** Root first, then methods in first-call order. The root's [r_cum] is
    {!total}. *)

val by_self : t -> row list
(** Sorted by [r_self] descending (ties by label). *)

val depth : t -> int
(** Current stack depth — 0 when every [enter] has been matched, useful
    as a sanity check. *)
