(** Mergeable log-bucket quantile sketch (DDSketch-style).

    A bounded-memory summary of a value stream that answers quantile
    queries with a {e relative}-error guarantee: for any recorded
    positive value stream and any [q], the estimate [x̂] satisfies
    [|x̂ - x| <= alpha * x] ([alpha = 0.01]) where [x] is the exact
    [q]-quantile — the log-bucket layout makes the guarantee
    multiplicative, so one sketch covers microseconds and minutes alike.

    Values are assigned to geometric buckets [gamma^(i-1) < v <=
    gamma^i] with [gamma = (1 + alpha) / (1 - alpha)]; each bucket
    stores only a count, so memory is O(log(max/min) / alpha) and
    independent of the stream length.

    {b Merge} is pointwise bucket addition: associative, commutative,
    and lossless (the merged sketch is bit-identical in every count to
    the sketch of the concatenated streams) — the primitive per-domain
    telemetry sinks need to combine at instant commit.

    Zero values are counted exactly in a dedicated slot (they sort
    before every positive bucket). Negative and non-finite values
    cannot be bucketed and are {e counted but not recorded} — see
    {!out_of_range}; exporters surface that count as a data-loss flag
    so a truncated view is never silently read as complete. *)

type t

val create : unit -> t
(** An empty sketch holding at most 2,048 buckets. When the bucket
    table would exceed that, the lowest buckets collapse into one
    (standard DDSketch degradation: the guarantee then holds only above
    the collapse boundary; see {!collapsed}). *)

val alpha : float
(** The relative error bound, 0.01. *)

val add : t -> float -> unit
(** Record one value. Zero is counted exactly; negative, NaN and ±∞
    increment {!out_of_range} and are otherwise ignored. *)

val count : t -> int
(** Recorded values (zeros included, out-of-range excluded). *)

val zero_count : t -> int

val out_of_range : t -> int
(** Values that could not be recorded (negative or non-finite) — a
    data-loss flag, surfaced by every exporter. *)

val collapsed : t -> int
(** Values whose low buckets were collapsed past the 2,048-bucket cap
    — 0 in normal operation. *)

val min_value : t -> float
(** Smallest recorded value; [nan] when empty. *)

val max_value : t -> float
(** Largest recorded value; [nan] when empty. *)

val sum : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]: the value at rank
    [floor (q * (count - 1))] of the sorted recorded stream, up to the
    relative-error guarantee. [nan] when the sketch is empty;
    [Invalid_argument] outside [[0, 1]]. Monotone in [q]. *)

val merge : into:t -> t -> unit
(** Pointwise bucket addition of the second sketch into [into]. The
    result is exactly the sketch of the concatenated streams
    (bucket-identical, so quantile queries agree bit-for-bit with a
    single sketch that saw every value). *)

val copy : t -> t

val equal : t -> t -> bool
(** Structural equality of everything quantile queries depend on:
    counts, min/max and every bucket. The floating [sum] is
    deliberately excluded (float addition is not associative, so sums
    of differently ordered merges may differ in the last ulp). *)

val buckets : t -> (int * int) list
(** [(index, count)] pairs in ascending index order — the exact merge
    state, for tests and serialization. *)

val clear : t -> unit
(** Back to the empty sketch. *)

val to_json : t -> Json.t
(** [{"alpha": a, "count": n, "zeros": z, "out_of_range": o,
    "collapsed": c, "min": m, "max": M, "sum": s,
    "p50": ..., "p95": ..., "p99": ...}] — non-finite floats render per
    {!Json.to_string}. *)
