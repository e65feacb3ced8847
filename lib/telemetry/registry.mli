(** Process-local instrumentation registry: monotonic counters,
    power-of-two histograms, and nestable spans.

    One registry is one observation session. Components take a registry
    as an optional argument and record into it when one is given; with
    none they skip the recording altogether. Timestamps come
    from a caller-supplied clock (microseconds by convention — the
    Chrome trace exporter assumes µs) or, by default, from a
    deterministic tick counter so unit tests are reproducible. *)

type arg = Int of int | Float of float | Str of string | Bool of bool
(** Key/value payload attached to spans. *)

type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
      (** 64 buckets: bucket [0] holds values ≤ 0, bucket [i ≥ 1] holds
          values in [2{^i-1}, 2{^i}). *)
}

type span = {
  sp_id : int;
  sp_name : string;
  sp_cat : string;
  sp_depth : int;  (** nesting depth at entry, 0 for roots *)
  sp_parent : int;  (** [sp_id] of the enclosing span, [-1] for roots *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_closed : bool;
  mutable sp_args : (string * arg) list;
}

type t

val create : ?clock:(unit -> float) -> ?max_spans:int -> unit -> t
(** Defaults: deterministic tick clock (1.0 per reading,
    starting at 1.0), [max_spans = 1_000_000] retained span records
    (further spans still nest and time correctly but are not retained;
    see {!dropped_spans}). *)

(** {2 Counters} *)

val counter : t -> string -> counter
(** Find-or-create. The handle is valid for the registry's lifetime. *)

val add : counter -> int -> unit
(** Saturates at [max_int]; negative increments are ignored (counters
    are monotonic). *)

val count : t -> string -> int -> unit
(** [count t name n]: find-or-create + {!add}. *)

(** {2 Histograms} *)

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit
val observe_value : t -> string -> int -> unit
(** Find-or-create + {!observe}. *)

val mean : histogram -> float

(** {2 Spans} *)

val enter :
  t -> ?cat:string -> ?args:(string * arg) list -> ?ts:float -> string -> unit
(** Open a span nested under the innermost open span. [ts] overrides the
    registry clock (used by the cycle profiler, whose timeline is cycle
    counts rather than wall time). *)

val exit : t -> ?args:(string * arg) list -> ?ts:float -> unit -> unit
(** Close the innermost open span, appending [args] to it. Unbalanced
    calls are ignored. *)

val with_span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [enter]/[exit] bracket, exception-safe. *)

(** {2 Inspection} *)

val counters : t -> counter list
(** In creation order. *)

val histograms : t -> histogram list
val spans : t -> span list
(** In start order, including any still-open spans ([sp_closed = false]). *)

val dropped_spans : t -> int

val export_counters : t -> (string * int) list
(** [(name, value)] pairs in creation order — the counter half of a
    durable checkpoint. *)

val import_counters : t -> (string * int) list -> unit
(** Find-or-create each named counter and set (not add) its value, for
    checkpoint restore; counters not named are left untouched. *)

val saturated : counter -> bool
(** The counter hit [max_int]: later increments were lost. *)

val saturated_counters : t -> string list
(** Names of saturated counters, in creation order — a data-loss flag
    every exporter surfaces (see {!Export}). *)

val reset : t -> unit
