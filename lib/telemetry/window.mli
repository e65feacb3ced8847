(** Fixed-capacity sliding-window aggregations.

    A ring of the last [capacity] samples plus an exponentially
    weighted moving average over the whole stream. Everything is O(1)
    per push and O(capacity) per query, with no allocation after
    {!create} — cheap enough to leave on for every instant of a
    long-running simulation. *)

type t

val create : capacity:int -> unit -> t
(** The EWMA weighs each new sample 0.1. [Invalid_argument] unless
    [capacity >= 1]. *)

val capacity : t -> int

val push : t -> float -> unit
(** Append a sample, evicting the oldest once the window is full. *)

val size : t -> int
(** Samples currently in the window ([min pushed capacity]). *)

val pushed : t -> int
(** Total samples ever pushed. *)

val last : t -> float
(** Most recent sample; [nan] when empty. *)

val sum : t -> float
(** Sum over the window (0 when empty). *)

val mean : t -> float
(** Mean over the window; [nan] when empty. *)

val rate : t -> float
(** Alias of {!mean}, read as events-per-instant when the stream is a
    per-instant count. *)

val min_value : t -> float
(** Minimum over the window; [nan] when empty. *)

val max_value : t -> float
(** Maximum over the window; [nan] when empty. *)

val ewma : t -> float
(** Exponentially weighted moving average over {e all} pushed samples
    (seeded with the first); [nan] when empty. *)

val clear : t -> unit
