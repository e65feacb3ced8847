(** Object heap with phase-tagged allocation accounting.

    The ASR policy of use requires all allocation to happen during
    initialization; the heap distinguishes an [Init] phase from the
    [Reactive] phase, counts allocations per phase, and can be armed to
    reject reactive-phase allocation outright (bounded-memory
    enforcement of elaborated blocks).

    The model has no reclamation of individual objects: its counters,
    its capacity limit and its collector model count every word ever
    allocated. The host representation does reclaim: {!collect} drops
    the cells unreachable from a set of roots, without touching any
    modeled quantity or reusing an index. *)

type phase = Init | Reactive

exception Runtime_error of string
(** Raised for null dereference, bad index, division by zero, bad casts,
    and forbidden allocation. *)

type layout = private {
  l_cls : string;
  l_names : string array;  (** field name of each slot *)
  l_index : (string, int) Hashtbl.t;  (** slot of each field name *)
}
(** Where an object keeps its fields. A heap registers one layout per
    class ({!layout}); all instances of the class share it. *)

type obj_data =
  | Object of { layout : layout; slots : Value.t array }
  | Arr of { elem : Mj.Ast.ty; cells : Value.t array }

type stats = {
  init_allocations : int;
  reactive_allocations : int;
  init_words : int;
  reactive_words : int;
  live_objects : int;  (** cells holding an object: not yet reclaimed *)
}

type t

val create : unit -> t

val phase : t -> phase

val set_phase : t -> phase -> unit

val forbid_reactive_alloc : t -> bool -> unit
(** When armed, any allocation in the [Reactive] phase raises
    {!Runtime_error}. *)

val stats : t -> stats

val set_limit_words : t -> int option -> unit
(** Arm (or clear) a fixed heap capacity in words. An allocation that
    would push the total allocated words (both phases; the model never
    reclaims) past the limit raises {!Runtime_error} with a message
    starting ["heap exhausted"] — the token [Elaborate.fault_classifier]
    keys on. Checked in both phases; independent of the GC model and of
    [Cost] (arming a limit never changes modeled cycles). *)

val limit_words : t -> int option

val make_layout : cls:string -> string array -> layout
(** A layout registered with no heap, for decoding a snapshot; {!restore}
    re-slots its objects into the heap's own layout. *)

val layout : t -> cls:string -> names:string array -> layout
(** The heap's layout for [cls], registered with slots in [names] order
    on first request. *)

val alloc_object : t -> layout -> Value.t array -> Value.t
(** A new object whose slots are the given array (taken, not copied). *)

val alloc_array : t -> elem:Mj.Ast.ty -> int -> Value.t

val get : t -> int -> obj_data

val deref : t -> Value.t -> int
(** Extract a reference index; raises on [Null] or non-reference. *)

val object_class : t -> int -> string

val get_field : t -> int -> string -> Value.t
(** By name; raises on an array or a missing field. *)

val set_field : t -> int -> string -> Value.t -> unit

type field_site
(** A field access site's inline cache: the layout it last met and the
    slot of its field in that layout. *)

val field_site : string -> field_site

val get_field_at : t -> int -> field_site -> Value.t
(** Same result and errors as {!get_field} with the site's name; a
    lookup by name only when the object's layout differs from the last
    one seen at the site. *)

val set_field_at : t -> int -> field_site -> Value.t -> unit

val array_length : t -> int -> int

val array_get : t -> int -> int -> Value.t

val array_set : t -> int -> int -> Value.t -> unit

val array_get_unchecked : t -> int -> int -> Value.t
(** Like {!array_get} without the modelled bounds check — for sites the
    static analysis proved in range. OCaml's own check backstops an
    unsound plan with [Invalid_argument] instead of silent corruption. *)

val array_set_unchecked : t -> int -> int -> Value.t -> unit

val words_of_object : int -> int
(** Heap words occupied by an object with n fields (header included). *)

val words_of_array : int -> int

(** {1 Garbage-collection model}

    A crude stop-the-world collector in the JDK-1.1 mould: when
    reactive-phase allocation since the last collection exceeds the
    configured threshold, the [on_gc] hook fires with the approximate
    live size (initialization-phase words plus the words allocated since
    the previous collection) so the engine can charge a pause. Disabled
    by default. *)

val configure_gc : t -> threshold_words:int option -> unit

val set_gc_hook : t -> (live_words:int -> unit) -> unit

val set_trap_hook : t -> (unit -> unit) -> unit
(** Called just before a checked array access raises [Runtime_error] on
    an out-of-bounds index — the machine wires this to
    [Cost.bounds_trap] so the trap is attributed to a source line. *)

val gc_count : t -> int

(** {1 Host-side reclamation} *)

val collect : t -> roots:((Value.t -> unit) -> unit) -> unit
(** A mark–sweep pass: [roots mark] hands every root value to [mark];
    every cell unreachable from them becomes empty, so a later access
    through a reference to it raises ["dangling reference"]. Object
    slots are scanned, and array cells only when the element type can
    hold a reference. The sweep visits the previous pass's survivors
    and the cells allocated since (O(live + new)). Indices are never
    reused and no modeled counter moves: allocation counts and words,
    the capacity limit, the collector model and {!Cost} read as if the
    pass had not run. *)

(** {1 Snapshot / restore}

    Deep copies of the complete heap state — cells (object field tables
    and array contents included), allocation counters for both phases,
    the capacity limit, and the GC model's counters. The foundation of
    re-application-safe reactions and durable checkpoints: restoring a
    snapshot makes the heap bit-identical to the moment of capture.
    The [on_gc]/[on_trap] hooks are wiring, not state, and are left
    untouched by {!restore}. A reclaimed cell is [None] in
    [s_cells]. *)

type snapshot = {
  s_cells : obj_data option array;
  s_next : int;
  s_phase : phase;
  s_forbid_reactive : bool;
  s_init_allocations : int;
  s_reactive_allocations : int;
  s_init_words : int;
  s_reactive_words : int;
  s_limit_words : int option;
  s_gc_threshold : int option;
  s_words_since_gc : int;
  s_gc_count : int;
}

val snapshot : t -> snapshot
(** Deep copy: later heap mutation never shows through a snapshot. *)

val restore : t -> snapshot -> unit
(** Deep copy back: the same snapshot can be restored any number of
    times, and mutating the restored heap never corrupts the snapshot.
    Objects take the heap's registered layout of their class (re-slotted
    by field name when the snapshot carries another one), so inline
    caches filled before the restore stay valid. The restored cells
    become {!collect}'s sweep set. *)
