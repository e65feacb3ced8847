(** Minimal JSON tree, printer and parser.

    The telemetry exporters need to emit JSON (Chrome trace files,
    machine-readable profiles) and the test suite needs to parse that
    output back to validate it structurally. The switch carries no JSON
    library, so this is a small, dependency-free implementation: it
    covers exactly the constructs the exporters produce (objects,
    arrays, strings, ints, floats, bools, null) plus enough of RFC 8259
    to re-read them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) rendering. Strings are escaped; non-finite
    floats are rendered as [0] (JSON has no representation for them). *)

(** {2 Streaming}

    Encoders that emit large documents write straight into a buffer,
    with no tree in between. Each writer appends exactly the bytes
    {!to_string} renders for the corresponding tree node, so streamed
    and tree-built sections can be mixed in one document. *)

val write : Buffer.t -> t -> unit
(** [write buf j] appends [to_string j]. *)

val write_int : Buffer.t -> int -> unit
(** Appends [to_string (Int n)] without allocating. *)

val write_str : Buffer.t -> string -> unit
(** Appends [to_string (Str s)]: quoted and escaped. *)

val parse : string -> t
(** Inverse of {!to_string} on its image; accepts any whitespace-
    separated JSON text with ASCII escapes. Raises {!Parse_error} with
    an offset on malformed input. Numbers without [.], [e] or [E] parse
    as [Int]; everything else as [Float]. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the first binding of [k], [None] otherwise
    or when the value is not an object. *)

val float_bits : float -> t
(** Lossless float encoding for durable artifacts. {!to_string} rounds
    floats through a decimal representation (and renders non-finite
    values as [0]), so serializers that must round-trip reals bit-exactly
    — traces, checkpoints — encode them as
    [{"r": <approx>, "bits": "<16 hex digits>"}]: the ["r"] member keeps
    the artifact human-readable, the ["bits"] member carries the exact
    IEEE-754 bit pattern. *)

val float_of_bits : t -> float option
(** Inverse of {!float_bits}: decodes the ["bits"] member back to the
    identical bit pattern. [None] when the value is not a well-formed
    {!float_bits} object. *)
