(** Fixed-capacity ring-buffer flight recorder.

    One record per instant, overwriting the oldest once full — memory
    is bounded by [capacity] regardless of how long the simulation
    runs, so the recorder is cheap enough to leave always-on and
    {!dump} the last N instants the moment something goes wrong (the
    supervisor dumps on quarantine escalation so the watchdog's
    verdict ships with its context). Overwrites are counted and
    surfaced in every dump: a window that silently lost its prefix is
    never read as the whole flight. *)

type record = {
  r_instant : int;
  r_cycles : int;  (** modeled cycles of the instant's reactions (0 when unmetered) *)
  r_iterations : int;  (** fixpoint iterations *)
  r_block_evals : int;
  r_net_churn : int;  (** nets whose fixed point changed vs the previous instant *)
  r_faults : int;  (** faults contained this instant *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default [capacity = 256] records. [Invalid_argument] when
    [capacity < 1]. *)

val capacity : t -> int

val push : t -> record -> unit

val push_values :
  t ->
  instant:int ->
  cycles:int ->
  iterations:int ->
  block_evals:int ->
  net_churn:int ->
  faults:int ->
  unit
(** Same as {!push} without materializing a [record] — the always-on
    per-instant path stores straight into the ring and allocates
    nothing. *)

val size : t -> int
(** Records currently retained ([min pushed capacity]). *)

val pushed : t -> int

val overwrites : t -> int
(** Records lost to ring wrap-around — a data-loss flag, included in
    every {!dump}. *)

val records : t -> record list
(** Chronological (oldest first). *)

val record_to_json : record -> Json.t

val dump : t -> Json.t
(** [{"capacity": c, "pushed": n, "overwrites": o, "records": [...]}]
    with records chronological — parseable back by {!Json.parse}. *)

val clear : t -> unit
